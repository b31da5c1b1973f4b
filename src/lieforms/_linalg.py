"""Exact linear algebra helpers shared across modules (not public API)."""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Mapping, Sequence, TypeVar

from .scalars import Scalar, UnsupportedScalarError

ScalarMatrix = list[list[Scalar]]
R = TypeVar("R", int, float, Scalar)


def insert_echelon_row(echelon: list[dict[int, int]], pivots: list[int],
                       row: Mapping[int, Fraction | int]) -> bool:
    """Reduce a sparse row {column: value} against the echelon; insert it and
    return True if it is independent.  Fraction-free (Bareiss, Math. Comp. 22,
    1968): the row is cleared of denominators, each step takes the
    gcd-cancelled integer combination b*row - a*erow, and rows are stored
    primitive as {column: nonzero int} with the least column as pivot:
    multiples of the rows of rational elimination."""
    den = lcm(*(x.denominator for x in row.values()))
    work = {c: x.numerator * (den // x.denominator) for c, x in row.items() if x}
    for erow, p in zip(echelon, pivots):
        a = work.get(p)
        if a:
            g = gcd(a, erow[p])
            work = _combine(work, erow, a // g, erow[p] // g)
    if not work:
        return False
    g = gcd(*work.values())
    echelon.append({c: x // g for c, x in work.items()} if g > 1 else work)
    pivots.append(min(work))
    return True


def _combine(work: dict[int, int], erow: dict[int, int], a: int, b: int) -> dict[int, int]:
    """b*work - a*erow over the union of columns, zeros dropped (in place if b = 1)."""
    out = {c: b * x for c, x in work.items()} if b != 1 else work
    for c, y in erow.items():
        v = out.get(c, 0) - a * y
        if v:
            out[c] = v
        else:
            del out[c]
    return out


def fraction_nullspace(rows: Iterable[Mapping[int, Fraction | int]],
                       ncols: int) -> list[dict[int, Fraction]]:
    """Kernel of the matrix with these sparse rows and ncols columns, as sparse
    vectors {column: nonzero Fraction} ordered by free coordinate.

    The echelon rows, sorted by pivot and cleared above each pivot, are
    multiples of the reduced row echelon form's rows, so the vector of free
    column f is e_f - sum_p row_p[f] / row_p[p] e_p.
    """
    echelon: list[dict[int, int]] = []
    pivots: list[int] = []
    for row in rows:
        insert_echelon_row(echelon, pivots, row)
    order = sorted(range(len(pivots)), key=pivots.__getitem__)
    pivots, reduced = [pivots[i] for i in order], [echelon[i] for i in order]
    for i in range(len(reduced) - 1, 0, -1):
        row, p = reduced[i], pivots[i]
        for j in range(i):
            a = reduced[j].get(p)
            if a:
                g = gcd(a, row[p])
                reduced[j] = _combine(reduced[j], row, a // g, row[p] // g)
    kernel = {f: {f: Fraction(1)} for f in sorted(set(range(ncols)).difference(pivots))}
    for row, p in zip(reduced, pivots):
        for f, x in row.items():
            if f != p:
                kernel[f][p] = Fraction(-x, row[p])
    return list(kernel.values())


def scalar_identity(n: int) -> ScalarMatrix:
    return [[Scalar.rational(1 if i == j else 0) for j in range(n)] for i in range(n)]


def scalar_mat_mul(a: ScalarMatrix, b: ScalarMatrix) -> ScalarMatrix:
    n, m, p = len(a), len(b), len(b[0]) if b else 0
    out = [[Scalar.zero()] * p for _ in range(n)]
    for i in range(n):
        for k in range(m):
            if a[i][k].is_zero():
                continue
            for j in range(p):
                if not b[k][j].is_zero():
                    out[i][j] = out[i][j] + a[i][k] * b[k][j]
    return out


def scalar_mat_neg(a: ScalarMatrix) -> ScalarMatrix:
    return [[-x for x in row] for row in a]


def scalar_mat_eq(a: ScalarMatrix, b: ScalarMatrix) -> bool:
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def leading_minors(matrix: Sequence[Sequence[R]], zero: R, one: R) -> list[R]:
    """The leading principal minors det A_k, k = 0..n, of a square matrix over
    any commutative ring (int, Scalar, float), by Berkowitz's division-free
    algorithm (Inf. Proc. Letters 18, 1984) in O(n^4) ring operations.

    With A_{k+1} = [[A_k, c], [r, a]], the characteristic polynomial
    det(x - A_{k+1}) is the lower-triangular Toeplitz matrix with first column
    1, -a, -r c, -r A_k c, ..., -r A_k^(k-1) c times that of A_k; det A_k is
    (-1)^k times its constant term.
    """
    def dot(xs: Sequence[R], ys: Sequence[R]) -> R:  # stops at the shorter of the two
        return sum(map(mul, xs, ys), zero)

    poly, minors = [one], [one]  # det(x - A_k), leading coefficient first
    for k, row in enumerate(matrix):
        col = [matrix[i][k] for i in range(k)]
        t = [one, -row[k]]
        for p in range(k):
            t.append(-dot(row, col))
            if p < k - 1:
                col = [dot(matrix[i], col) for i in range(k)]
        poly = [dot(t[i::-1], poly) for i in range(k + 2)]
        minors.append(-poly[-1] if k % 2 == 0 else poly[-1])
    return minors


def scalar_matrix_determinant(matrix: Sequence[Sequence[Scalar]]) -> Scalar:
    """The last leading minor, over the Scalar entries."""
    return leading_minors(matrix, Scalar.zero(), Scalar.one())[-1]


def _rational_pair(x: Scalar) -> tuple[int, int]:
    q = x.rational_pair()
    if q is None:
        raise UnsupportedScalarError(f"not a rational constant: {x}")
    return q


def _integral(mat: Iterable[Iterable[Scalar]]) -> list[list[int]]:
    """The rational Scalar matrix times the lcm of its denominators, read as
    int pairs; an entry that is not a rational constant raises."""
    pairs = [[_rational_pair(x) for x in row] for row in mat]
    den = lcm(*(d for row in pairs for _, d in row))
    return [[n * (den // d) for n, d in row] for row in pairs]


def symmetric(matrix: ScalarMatrix) -> bool:
    n = len(matrix)
    return all(matrix[i][j] == matrix[j][i] for i in range(n) for j in range(i + 1, n))


def positive_definite(matrix: ScalarMatrix) -> bool:
    """Sylvester's criterion for symmetric matrices with rational entries: the
    leading minors of the matrix cleared of denominators by L > 0 are those
    of the matrix times powers of L."""
    return all(m > 0 for m in leading_minors(_integral(matrix), 0, 1))
