import functools
import random
import time
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lieforms import catalog
from lieforms._linalg import (
    fraction_nullspace,
    insert_echelon_row,
    leading_minors,
    positive_definite,
    scalar_matrix_determinant,
)
from lieforms.algebras import parse_equations
from lieforms.scalars import Scalar, UnsupportedScalarError


def fraction_gauss(rows):
    """Textbook rational elimination with first-nonzero pivots, in input order."""
    echelon, pivots, grew = [], [], []
    for row in rows:
        work = [Fraction(v) for v in row]
        for erow, p in zip(echelon, pivots):
            if work[p]:
                f = work[p] / erow[p]
                work = [a - f * b for a, b in zip(work, erow)]
        pivot = next((c for c, v in enumerate(work) if v), None)
        grew.append(pivot is not None)
        if pivot is not None:
            echelon.append(work)
            pivots.append(pivot)
    return grew, pivots, echelon


def sparse(row):
    """A dense row as the kernel's {column: nonzero value} mapping."""
    return {c: v for c, v in enumerate(row) if v}


def dense(vec, ncols, zero=0):
    return [vec.get(c, zero) for c in range(ncols)]


def dense_insert_echelon_row(echelon, pivots, row):
    """The dense-list kernel that the sparse ``insert_echelon_row`` replaced."""
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


def dense_fraction_nullspace(columns, rows):
    """The dense-list kernel that the sparse ``fraction_nullspace`` replaced:
    the kernel of x -> sum x_c columns[c], ordered by free coordinate."""
    ncols = len(columns)
    if ncols == 0:
        return []
    echelon, pivots = [], []
    for r in range(rows):
        dense_insert_echelon_row(echelon, pivots, [col[r] for col in columns])
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


def planted_rows(rng, ncols, rational):
    """Random sparse rows, mixed with combinations of earlier rows and zero rows."""
    def entry():
        if rng.random() < 0.4:
            return 0
        num = rng.randint(-9, 9)
        return Fraction(num, rng.randint(1, 12)) if rational else num

    rows = []
    for _ in range(rng.randint(1, 2 * ncols)):
        kind = rng.random()
        if rows and kind < 0.4:
            picked = rng.sample(rows, rng.randint(1, min(3, len(rows))))
            coeffs = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) if rational
                      else rng.randint(-5, 5) for _ in picked]
            rows.append([sum(c * r[i] for c, r in zip(coeffs, picked)) for i in range(ncols)])
        elif kind < 0.45:
            rows.append([0] * ncols)
        else:
            rows.append([entry() for _ in range(ncols)])
    return rows


@pytest.mark.parametrize("rational", [False, True], ids=["int", "fraction"])
def test_insert_echelon_row_matches_fraction_gauss(rational):
    rng = random.Random(2024)
    for _ in range(300):
        ncols = rng.randint(1, 10)
        rows = planted_rows(rng, ncols, rational)
        want_grew, want_pivots, want_echelon = fraction_gauss(rows)
        echelon, pivots = [], []
        grew = [insert_echelon_row(echelon, pivots, sparse(row)) for row in rows]
        assert grew == want_grew
        assert pivots == want_pivots
        for stored, reference, p in zip([dense(r, ncols) for r in echelon], want_echelon, pivots):
            assert all(type(v) is int for v in stored)
            assert gcd(*stored) == 1
            # each stored row is a nonzero multiple of the rational one
            ratio = Fraction(stored[p]) / reference[p]
            assert ratio and [ratio * v for v in reference] == stored


def gauss_jordan_nullspace(columns, rows):
    """The rational Gauss-Jordan kernel that ``fraction_nullspace`` replaced,
    with its entries read as ``Fraction`` so that ``int`` input works too, as
    {free column: kernel vector}."""
    ncols = len(columns)
    if ncols == 0:
        return {}
    mat = [[Fraction(columns[c][r]) for c in range(ncols)] for r in range(rows)]
    pivot_of_col = {}
    rank = 0
    for c in range(ncols):
        sel = next((r for r in range(rank, rows) if mat[r][c] != 0), None)
        if sel is None:
            continue
        mat[rank], mat[sel] = mat[sel], mat[rank]
        lead = mat[rank][c]
        mat[rank] = [v / lead for v in mat[rank]]
        for r in range(rows):
            if r != rank and mat[r][c] != 0:
                f = mat[r][c]
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[rank])]
        pivot_of_col[c] = rank
        rank += 1
    out = {}
    for free in range(ncols):
        if free in pivot_of_col:
            continue
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for c, r in pivot_of_col.items():
            vec[c] = -mat[r][free]
        out[free] = vec
    return out


@pytest.mark.parametrize("rational", [False, True], ids=["int", "fraction"])
def test_fraction_nullspace_matches_gauss_jordan(rational):
    rng = random.Random(2025)
    cases = [([], 3), ([[] for _ in range(4)], 0), ([[0] * 5 for _ in range(3)], 5)]
    for _ in range(200):
        ncols = rng.randint(1, 12)
        rows = planted_rows(rng, ncols, rational)
        cases.append(([[row[c] for row in rows] for c in range(ncols)], len(rows)))
    for columns, nrows in cases:
        ncols = len(columns)
        found = fraction_nullspace([sparse([col[r] for col in columns]) for r in range(nrows)],
                                   ncols)
        assert all(type(v) is Fraction and v for vec in found for v in vec.values())
        kernel = [dense(vec, ncols, Fraction(0)) for vec in found]
        want = gauss_jordan_nullspace(columns, nrows)
        assert kernel == list(want.values())
        # each vector leads at its free column and is 0 at the other free columns
        assert [max(vec) for vec in found] == list(want)
        for f, vec in zip(want, found):
            assert vec[f] == 1 and not any(vec.get(g) for g in want if g != f)
        rank = sum(fraction_gauss([[col[r] for col in columns] for r in range(nrows)])[0])
        assert len(kernel) == len(columns) - rank
        for vec in kernel:
            assert all(sum(x * col[r] for x, col in zip(vec, columns)) == 0
                       for r in range(nrows))


@st.composite
def sparse_matrices(draw):
    """(rows, ncols): sparse int or Fraction rows, some zero, some combinations
    of earlier rows, so that rows are absorbed as well as inserted."""
    ncols = draw(st.integers(0, 12))
    rational = draw(st.booleans())
    entry = (st.builds(Fraction, st.integers(-20, 20), st.integers(1, 12)) if rational
             else st.integers(-20, 20))
    rows = []
    for _ in range(draw(st.integers(0, 14))):
        kind = draw(st.sampled_from(("random", "random", "zero", "combination")))
        if kind == "zero" or not ncols:
            rows.append({})
        elif kind == "combination" and rows:
            acc = {}
            for row in draw(st.lists(st.sampled_from(rows), min_size=1, max_size=3)):
                c = draw(entry)
                for col, v in row.items():
                    acc[col] = acc.get(col, 0) + c * v
            rows.append({col: v for col, v in acc.items() if v})
        else:
            cols = draw(st.sets(st.integers(0, ncols - 1), max_size=ncols))
            rows.append({col: v for col in sorted(cols) if (v := draw(entry))})
    return rows, ncols


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(sparse_matrices())
def test_sparse_kernel_matches_the_dense_oracle(matrix):
    rows, ncols = matrix
    echelon, pivots, want_echelon, want_pivots = [], [], [], []
    for row in rows:
        assert (insert_echelon_row(echelon, pivots, row)
                == dense_insert_echelon_row(want_echelon, want_pivots, dense(row, ncols)))
    assert set(pivots) == set(want_pivots)
    assert [dense(r, ncols) for r in echelon] == want_echelon
    columns = [[row.get(c, 0) for row in rows] for c in range(ncols)]
    kernel = fraction_nullspace(rows, ncols)
    assert [dense(vec, ncols, Fraction(0)) for vec in kernel] == dense_fraction_nullspace(
        columns, len(rows))


def cofactor_determinant(m):
    """Laplace expansion along the first row, each minor expanded once."""
    n = len(m)

    @functools.cache
    def minor(cols):  # the rows n - len(cols).. and the columns cols
        r = n - len(cols)
        return sum((-1) ** k * m[r][c] * minor(cols[:k] + cols[k + 1:])
                   for k, c in enumerate(cols) if m[r][c]) if cols else Fraction(1)

    return minor(tuple(range(n)))


def sylvester_oracle(matrix):
    """Sylvester's criterion from k cofactor determinants, as before Bareiss."""
    m = [[c.as_fraction() for c in row] for row in matrix]
    return all(cofactor_determinant([row[:k] for row in m[:k]]) > 0
               for k in range(1, len(m) + 1))


def scalars(rows):
    return [[Scalar.rational(v) for v in row] for row in rows]


def random_symmetric(rng, n, density):
    m = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if i == j or rng.random() < density:
                m[i][j] = m[j][i] = Fraction(rng.randint(-6, 9), rng.randint(1, 5))
    return m


def gram(rng, n):
    """A A^T + I for a dense rational A: dense and positive definite."""
    a = [[Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)] for _ in range(n)]
    return [[sum(x * y for x, y in zip(a[i], a[j])) + (i == j) for j in range(n)]
            for i in range(n)]


def test_positive_definite_matches_the_cofactor_oracle():
    rng = random.Random(4)
    verdicts = set()
    for n in range(0, 9):
        for _ in range(12):
            for m in (random_symmetric(rng, n, rng.random()), gram(rng, n)):
                want = sylvester_oracle(scalars(m))
                assert positive_definite(scalars(m)) == want
                verdicts.add(want)
    assert verdicts == {True, False}


def test_positive_definite_on_dense_8x8_matrices():
    rng = random.Random(8)
    dense = gram(rng, 8)
    assert all(dense[i][j] for i in range(8) for j in range(8))
    assert positive_definite(scalars(dense)) and sylvester_oracle(scalars(dense))
    # positive diagonal, but e1 - e2 has negative norm: 2 + 2 - 2*3 < 0
    indefinite = [[Fraction(2 if i == j else 1, 3) for j in range(8)] for i in range(8)]
    indefinite[0][1] = indefinite[1][0] = Fraction(3)
    assert all(indefinite[i][i] > 0 for i in range(8))
    assert not positive_definite(scalars(indefinite))
    assert not sylvester_oracle(scalars(indefinite))


def test_positive_definite_is_rational_only():
    with pytest.raises(UnsupportedScalarError):
        positive_definite([[Scalar.t(), Scalar.zero()], [Scalar.zero(), Scalar.one()]])


def random_square(rng, n):
    """A seeded rational matrix, made singular about a third of the time by a
    zero row or a row that combines two others."""
    m = [[Fraction(rng.randint(-6, 6), rng.randint(1, 5)) if rng.random() < 0.7 else Fraction(0)
          for _ in range(n)] for _ in range(n)]
    kind = rng.random()
    if n > 2 and kind < 0.2:
        a, b = rng.sample(range(n), 2)
        m[rng.randrange(n)] = [x - Fraction(2, 3) * y for x, y in zip(m[a], m[b])]
    elif n and kind < 0.3:
        m[rng.randrange(n)] = [Fraction(0)] * n
    return m


def test_determinant_matches_the_cofactor_oracle():
    rng = random.Random(11)
    zeros = nonzeros = 0
    for n in range(0, 9):
        for _ in range(12):
            m = random_square(rng, n)
            want = cofactor_determinant(m)
            assert scalar_matrix_determinant(scalars(m)) == Scalar.rational(want)
            zeros += want == 0
            nonzeros += want != 0
    assert zeros >= 20 and nonzeros >= 50


def test_determinant_needs_row_swaps_and_keeps_the_parametric_path():
    swap = [[0, 2, 1], [3, 0, 0], [0, 1, Fraction(1, 2)]]
    assert scalar_matrix_determinant(scalars(swap)) == Scalar.rational(cofactor_determinant(
        [[Fraction(x) for x in row] for row in swap]))
    assert scalar_matrix_determinant(scalars([[0, 1], [1, 0]])) == Scalar.rational(-1)
    t = Scalar.t()
    assert scalar_matrix_determinant([[t, Scalar.one()], [Scalar.one(), t]]) == t * t - 1
    assert scalar_matrix_determinant([]) == Scalar.one()


def test_leading_minors_match_the_cofactor_oracle():
    rng = random.Random(16)
    for n in range(0, 9):
        for _ in range(15):
            m = [[rng.randint(-9, 9) if rng.random() < 0.7 else 0 for _ in range(n)]
                 for _ in range(n)]
            want = [cofactor_determinant([row[:k] for row in m[:k]]) for k in range(n + 1)]
            assert leading_minors(m, 0, 1) == want


def test_radical_determinant_takes_no_factorial_path():
    """A dense 8x8 matrix with entries a + b*3^(1/2): cofactor expansion over
    its 8! terms took about 5 s on a 2-core Xeon, Berkowitz under 0.1 s."""
    rng = random.Random(3)
    root3 = Scalar.rational(3).rational_power(Fraction(1, 2))
    m = [[Scalar.rational(rng.randint(-4, 4)) + Scalar.rational(rng.randint(1, 4)) * root3
          for _ in range(8)] for _ in range(8)]
    start = time.perf_counter()
    det = scalar_matrix_determinant(m)
    elapsed = time.perf_counter() - start
    assert det == cofactor_determinant(m) and not det.is_rational()
    assert elapsed < 1.0, elapsed


def test_float_minors_match_the_exact_ones_on_the_family_metrics():
    """validate_family samples positivity through leading_minors on floats;
    the exact minors are the cofactor oracle's, in t."""
    checked = 0
    for entry in catalog.catalog_manifest():
        family = catalog.StructureContext(parse_equations(entry.payload)).family
        if family is None:
            continue
        metric = family.geometry.metric
        exact = [Scalar.zero() + cofactor_determinant([row[:k] for row in metric[:k]])
                 for k in range(6)]
        for t0 in family.sample_points():
            floats = leading_minors([[c.evaluate_float(t0) for c in row] for row in metric],
                                    0.0, 1.0)
            for got, want in zip(floats, exact):
                want = want.evaluate_float(t0)
                assert abs(got - want) <= 1e-9 * max(1.0, abs(want)), (entry.name, t0)
            checked += 1
    assert checked >= 15
