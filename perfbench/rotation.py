"""Rational unitary changes of an orthonormal coframe, written as structure files.

A Hermitian structure (g, J, F, psi) on a Lie algebra is written in an
orthonormal coframe e^1..e^n.  Any rational orthogonal Q that commutes with J
gives another such coframe f = Q e in which J, and hence F = g(J., .), keep
their matrices, while the structure constants and psi become dense rationals.
Every invariant the engine reports (Jacobi, Betti numbers, balancedness,
holonomy dimensions) is unchanged, so the unrotated expectations still apply.

Q is a product of Pythagorean-angle rotations: one inside each pair
(e^a, J e^a), which multiplies a complex coordinate by a unit phase, and
optionally some that turn two pairs into each other by the same real angle
on both halves.  Each factor commutes with J by construction; the product is
checked exactly anyway.  This module does its own exact arithmetic on
``Fraction`` so that the inputs do not depend on the engine under test.
"""

from __future__ import annotations

import random
import re
from fractions import Fraction

Matrix = list[list[Fraction]]
RationalForm = dict[tuple[int, ...], Fraction]  # sorted index tuple -> coefficient

# (leg, leg, hypotenuse).  One triple only: larger hypotenuses make the
# structure constants longer and the run slower, so a seed that drew them
# would cost more than one that did not.  Seeds choose signs and which leg is
# the cosine.
TRIPLE = (3, 4, 5)

_J_ENTRY = re.compile(r"e(\d)\s*->\s*(-?)\s*e(\d)")


class GeneratorError(ValueError):
    """The generator produced a matrix that is not unitary for the declared J."""


def parse_j_line(line: str, n: int) -> dict[int, tuple[int, int]]:
    """``J: e1 -> -e2, ...`` as {a: (sign, b)} meaning J e^a = sign e^b."""
    body = line.split(":", 1)[1]
    out: dict[int, tuple[int, int]] = {}
    for chunk in body.split(","):
        m = _J_ENTRY.fullmatch(chunk.strip())
        if m is None:
            raise GeneratorError(f"J entry is not a signed generator: {chunk.strip()!r}")
        out[int(m.group(1))] = (-1 if m.group(2) else 1, int(m.group(3)))
    if sorted(out) != list(range(1, n + 1)):
        raise GeneratorError("J line must give the image of every generator")
    return out


def j_matrix(j: dict[int, tuple[int, int]], n: int) -> Matrix:
    """Row a holds J e^a, the convention of the structure-file grammar."""
    m = [[Fraction(0)] * n for _ in range(n)]
    for a, (sign, b) in j.items():
        m[a - 1][b - 1] = Fraction(sign)
    return m


def j_pairs(j: dict[int, tuple[int, int]]) -> list[tuple[int, int, int]]:
    """(a, b, sign) with J e^a = sign e^b, one per complex coordinate."""
    seen: set[int] = set()
    pairs = []
    for a in sorted(j):
        if a in seen:
            continue
        sign, b = j[a]
        seen.update((a, b))
        pairs.append((a, b, sign))
    return pairs


def identity(n: int) -> Matrix:
    return [[Fraction(int(i == k)) for k in range(n)] for i in range(n)]


def matmul(a: Matrix, b: Matrix) -> Matrix:
    n = len(a)
    return [[sum((a[i][k] * b[k][j] for k in range(n) if a[i][k]), Fraction(0))
             for j in range(n)] for i in range(n)]


def transpose(a: Matrix) -> Matrix:
    return [list(col) for col in zip(*a)]


def _angle(rng: random.Random) -> tuple[Fraction, Fraction]:
    p, q, h = TRIPLE
    if rng.random() < 0.5:
        p, q = q, p
    return Fraction(p * rng.choice((1, -1)), h), Fraction(q * rng.choice((1, -1)), h)


def _phase(n: int, pair: tuple[int, int, int], c: Fraction, s: Fraction) -> Matrix:
    """x -> c x + s y, y -> -s x + c y with x = e^a, y = J e^a = sign e^b."""
    a, b, sign = pair
    g = identity(n)
    g[a - 1][a - 1], g[a - 1][b - 1] = c, s * sign
    g[b - 1][a - 1], g[b - 1][b - 1] = -s * sign, c
    return g


def _mix(n: int, p1: tuple[int, int, int], p2: tuple[int, int, int],
         c: Fraction, s: Fraction) -> Matrix:
    """The same real rotation on (x1, x2) and on (y1, y2)."""
    (a1, b1, s1), (a2, b2, s2) = p1, p2
    g = identity(n)
    g[a1 - 1][a1 - 1], g[a1 - 1][a2 - 1] = c, s
    g[a2 - 1][a1 - 1], g[a2 - 1][a2 - 1] = -s, c
    g[b1 - 1][b1 - 1], g[b1 - 1][b2 - 1] = c, s * s1 * s2
    g[b2 - 1][b1 - 1], g[b2 - 1][b2 - 1] = -s * s1 * s2, c
    return g


def unitary_rotation(j: dict[int, tuple[int, int]], n: int, rng: random.Random,
                     mixes: int) -> Matrix:
    """A seeded rational Q with Q Q^T = 1 and Q J = J Q."""
    pairs = j_pairs(j)
    q = identity(n)
    for pair in pairs:
        q = matmul(_phase(n, pair, *_angle(rng)), q)
    # which pairs mix is fixed, for the same reason as the single triple
    for i in range(mixes):
        p1, p2 = pairs[i % len(pairs)], pairs[(i + 1) % len(pairs)]
        q = matmul(_mix(n, p1, p2, *_angle(rng)), q)
    check_unitary(q, j_matrix(j, n))
    return q


def check_unitary(q: Matrix, jm: Matrix) -> None:
    if matmul(q, transpose(q)) != identity(len(q)):
        raise GeneratorError("rotation is not orthogonal")
    if matmul(q, jm) != matmul(jm, q):
        raise GeneratorError("rotation does not commute with J")


def _sort_sign(idx: list[int]) -> tuple[int, tuple[int, ...]] | None:
    if len(set(idx)) < len(idx):
        return None
    sign = 1
    for i in range(len(idx)):
        for k in range(i + 1, len(idx)):
            if idx[i] > idx[k]:
                sign = -sign
    return sign, tuple(sorted(idx))


def substitute(form: RationalForm, images: list[dict[int, Fraction]]) -> RationalForm:
    """Replace each e^c by the 1-form images[c - 1] and expand."""
    out: RationalForm = {}
    for idx, coeff in form.items():
        terms: list[tuple[list[int], Fraction]] = [([], coeff)]
        for c in idx:
            terms = [(acc + [d], v * w) for acc, v in terms
                     for d, w in images[c - 1].items()]
        for acc, v in terms:
            signed = _sort_sign(acc)
            if signed is not None:
                sign, key = signed
                out[key] = out.get(key, Fraction(0)) + sign * v
    return {k: v for k, v in out.items() if v}


def rotate_structure(diffs: list[RationalForm], forms: dict[str, RationalForm],
                     q: Matrix) -> tuple[list[RationalForm], dict[str, RationalForm]]:
    """Structure equations and forms in the coframe f = Q e."""
    n = len(q)
    # e^c = sum_d Q[d][c] f^d because Q is orthogonal
    images = [{d + 1: q[d][c] for d in range(n) if q[d][c]} for c in range(n)]
    new_diffs = []
    for a in range(n):
        acc: RationalForm = {}
        for b in range(n):
            if q[a][b]:
                for key, v in substitute(diffs[b], images).items():
                    acc[key] = acc.get(key, Fraction(0)) + q[a][b] * v
        new_diffs.append({k: v for k, v in acc.items() if v})
    return new_diffs, {name: substitute(f, images) for name, f in forms.items()}


def render(form: RationalForm) -> str:
    if not form:
        return "0"
    parts = []
    for idx in sorted(form):
        v = form[idx]
        token = "e" + "".join(str(i) for i in idx)
        mag = abs(v)
        text = token if mag == 1 else f"{mag}*{token}"
        if not parts:
            parts.append(text if v > 0 else f"-{text}")
        else:
            parts.append(f"+ {text}" if v > 0 else f"- {text}")
    return " ".join(parts)


def structure_file(title: str, diffs: list[RationalForm], forms: dict[str, RationalForm],
                   j_line: str) -> str:
    lines = [f"# {title}", "[algebra]", f"dim = {len(diffs)}"]
    lines += [f"d e{i} = {render(d)}" for i, d in enumerate(diffs, start=1) if d]
    lines += ["", "[structure]"]
    lines += [f"{name} = {render(f)}" for name, f in forms.items()]
    lines.append(j_line)
    return "\n".join(lines) + "\n"
