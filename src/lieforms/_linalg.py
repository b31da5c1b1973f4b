"""Exact linear algebra helpers shared across modules (not public API)."""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from .scalars import Scalar

ScalarMatrix = list[list[Scalar]]


def insert_echelon_row(echelon: list[list[int]], pivots: list[int],
                       row: Sequence[Fraction | int]) -> bool:
    """Reduce row against the echelon; insert and return True if independent.

    Fraction-free (Bareiss, Math. Comp. 22, 1968): the ``int`` or ``Fraction``
    row is cleared of denominators, each step takes the gcd-cancelled integer
    combination b*row - a*erow, and rows are stored primitive.  Stored rows are
    multiples of those of rational elimination: same ranks, same pivots.
    """
    den = lcm(*(x.denominator for x in row))
    work = [x.numerator * (den // x.denominator) for x in row]
    for erow, p in zip(echelon, pivots):
        a = work[p]
        if a:
            b = erow[p]
            g = gcd(a, b)
            a, b = a // g, b // g
            work = [b * x - a * y for x, y in zip(work, erow)]
    pivot = next((c for c, v in enumerate(work) if v), None)
    if pivot is None:
        return False
    g = gcd(*work)
    echelon.append([x // g for x in work] if g > 1 else work)
    pivots.append(pivot)
    return True


def fraction_nullspace(columns: list[list[Fraction | int]], rows: int) -> list[list[Fraction]]:
    """Kernel of x -> sum x_c columns[c], basis ordered by free coordinate.

    Echelon rows from ``insert_echelon_row``, sorted by pivot and cleared above
    each pivot, are multiples of the unique reduced row echelon form's rows.
    """
    ncols = len(columns)
    if ncols == 0:
        return []
    echelon: list[list[int]] = []
    pivots: list[int] = []
    for r in range(rows):
        insert_echelon_row(echelon, pivots, [col[r] for col in columns])
    by_pivot = sorted(zip(pivots, echelon))
    pivots, reduced = [p for p, _ in by_pivot], [row for _, row in by_pivot]
    for i in range(len(reduced) - 1, 0, -1):
        row, p = reduced[i], pivots[i]
        for j in range(i):
            a, b = reduced[j][p], row[p]
            if a:
                g = gcd(a, b)
                reduced[j] = [b // g * x - a // g * y for x, y in zip(reduced[j], row)]
    out = []
    for free in sorted(set(range(ncols)) - set(pivots)):
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for row, c in zip(reduced, pivots):
            vec[c] = Fraction(-row[free], row[c])
        out.append(vec)
    return out


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
