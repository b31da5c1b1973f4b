"""Exact linear algebra helpers shared across modules (not public API)."""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence

from .scalars import Scalar

ScalarMatrix = list[list[Scalar]]


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


def scalar_matrix_determinant(matrix: Sequence[Sequence[Scalar]]) -> Scalar:
    """Rational matrices by one fraction-free (Bareiss) elimination of the
    matrix cleared of denominators by L: the last pivot is L**n * det, with
    the sign of the row swaps.  Cofactor expansion serves any other matrix."""
    if not all(c.is_rational() for row in matrix for c in row):
        return _cofactor_determinant(matrix)
    den, a = _cleared(matrix)
    n, sign, prev = len(a), 1, 1
    for k in range(n):
        swap = next((i for i in range(k, n) if a[i][k]), None)
        if swap is None:
            return Scalar.zero()
        if swap != k:
            a[k], a[swap], sign = a[swap], a[k], -sign
        pivot = a[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (pivot * a[i][j] - a[i][k] * a[k][j]) // prev
        prev = pivot
    return Scalar.rational(Fraction(sign * prev, den**n))


def _cofactor_determinant(matrix: Sequence[Sequence[Scalar]]) -> Scalar:
    n = len(matrix)
    if n == 1:
        return matrix[0][0]
    total = Scalar.zero()
    for j in range(n):
        entry = matrix[0][j]
        if entry.is_zero():
            continue
        minor = [[row[c] for c in range(n) if c != j] for row in matrix[1:]]
        term = entry * _cofactor_determinant(minor)
        total = total + (term if j % 2 == 0 else -term)
    return total


def _cleared(matrix: Sequence[Sequence[Scalar]]) -> tuple[int, list[list[int]]]:
    """(L, L * matrix) for rational entries, L the lcm of their denominators."""
    rows = [[c.as_fraction() for c in row] for row in matrix]
    den = lcm(*(q.denominator for row in rows for q in row))
    return den, [[q.numerator * (den // q.denominator) for q in row] for row in rows]


def symmetric(matrix: ScalarMatrix) -> bool:
    n = len(matrix)
    return all(matrix[i][j] == matrix[j][i] for i in range(n) for j in range(i + 1, n))


def positive_definite(matrix: ScalarMatrix) -> bool:
    """Sylvester criterion for symmetric matrices with rational entries: the
    pivots of one fraction-free (Bareiss) elimination of the matrix cleared of
    denominators by L > 0 are the leading minors times powers of L."""
    a = _cleared(matrix)[1]
    n, prev = len(a), 1
    for k in range(n):
        pivot = a[k][k]
        if pivot <= 0:
            return False
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (pivot * a[i][j] - a[i][k] * a[k][j]) // prev
        prev = pivot
    return True
