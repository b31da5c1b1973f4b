import dataclasses
import functools
import io
import itertools
import math
import random
import re
from collections import Counter
from contextlib import redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lieforms
from lieforms import algebras, exterior, scalars
from lieforms._linalg import fraction_nullspace, insert_echelon_row, scalar_matrix_determinant
from lieforms.algebras import (
    CohomologyReport,
    LieAlgebra,
    ParseError,
    _d_columns,
    ce_cohomology,
    central_extension,
    check_jacobi,
    extend_by_line,
    parse_compact,
    parse_equations,
    parse_form_expr,
    parse_scalar_expr,
    verify_basis_change,
)
from lieforms.catalog import catalog_manifest, get_entry, run_entry
from lieforms.cli import main
from lieforms.connection import MetricFrame, bismut_connection, curvature
from lieforms.exterior import Form, exterior_derivative, wedge
from lieforms.scalars import Scalar, UnsupportedScalarError
from perfbench.workloads import FAMILY_ENTRIES, rotated_file, shift_payload, sun_entries
from sign_reference import insertion_sort_index

F = Fraction


def matrix_inverse(matrix):
    """Adjugate inverse; the determinant must be a single-signature scalar."""
    n = len(matrix)
    det = scalar_matrix_determinant(matrix)
    if det.is_zero():
        raise ValueError("matrix is singular")
    inv_det = Scalar.one() / det
    out = [[Scalar.zero()] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [[matrix[r][c] for c in range(n) if c != i]
                     for r in range(n) if r != j]
            cof = scalar_matrix_determinant(minor)
            out[i][j] = (-cof if (i + j) % 2 else cof) * inv_det
    return out


def form(dim, *terms):
    return Form.from_terms(dim, len(terms[0][0]),
                           [([int(c) for c in idx], coeff) for idx, coeff in terms])


SOLVABLE = parse_equations("""
[algebra]
dim = 5
d e3 = e13
d e4 = -e14
d e5 = e34
""").algebra


def test_parse_compact_examples():
    alg = parse_compact("(0,0,0,0,12)")
    assert alg.dimension == 5
    assert alg.differentials[4] == form(5, ("12", 1))
    assert all(alg.differentials[i].is_zero() for i in range(4))

    h19 = parse_compact("(0,0,0,12,23,14-35)")
    assert h19.differentials[5] == form(6, ("14", 1), ("35", -1))

    ab = parse_compact("(0,0)")
    assert ab.dimension == 2 and all(d.is_zero() for d in ab.differentials)

    h5 = parse_compact("(0,0,0,0,13+42,14+23)")
    assert h5.differentials[4] == form(6, ("13", 1), ("24", -1))


def test_parse_compact_rejects_bad_tokens():
    with pytest.raises(ParseError):
        parse_compact("(0,0,1x)")
    with pytest.raises(ParseError):
        parse_compact("(0,0,15)")  # index out of range
    with pytest.raises(ParseError):
        parse_compact("(" + ",".join("0" for _ in range(10)) + ")")
    with pytest.raises(ParseError, match="empty compact entry") as err:
        parse_compact("(0,,0,12)")
    assert (err.value.line, err.value.column) == (1, 4)


def test_parse_equations_differentials():
    sf = parse_equations("""
    [algebra]
    dim = 6
    d e6 = -2 e12 + e14 + e23 + 2 e34
    """)
    assert sf.algebra.differentials[5] == form(
        6, ("12", -2), ("14", 1), ("23", 1), ("34", 2))
    assert sf.algebra.differentials[0].is_zero()


def test_parse_equations_parametric_form():
    sf = parse_equations("""
    [algebra]
    dim = 5
    d e4 = e12
    d e5 = e14

    [family]
    param = t
    omega3 = e1^(e4 - t*e5) + e23
    """)
    fam = sf.family
    assert fam is not None
    got = fam.forms["omega3"]
    t = Scalar.t()
    want = form(6, ("14", 1), ("23", 1)) + form(6, ("15", 1)).scale(-t)
    assert got == want


def test_parse_equations_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse_equations("""
        [algebra]
        dim = 4
        d e3 = e13 +
        """)
    assert "line 4" in str(err.value)
    with pytest.raises(ParseError):
        parse_equations("[algebra]\ndim = 3\nd e2 = e12\nd e2 = e13\n")
    with pytest.raises(ParseError):
        parse_equations("[algebra]\ndim = 3\nomega = e7\n")


def test_blanks_before_a_bad_character_or_a_comment_are_skipped():
    cases = (("e12 $", 5, "$"), ("e12 \t$", 6, "$"), ("e12 \xa0+ e34", 5, "\xa0"))
    for expr, column, char in cases:
        with pytest.raises(ParseError) as err:
            parse_form_expr(expr, 6)
        assert (err.value.column, err.value.message) == (column, f"unexpected character {char!r}")
    assert parse_form_expr("e12 #c", 6) == parse_form_expr("e12#c", 6) == form(6, ("12", 1))


def test_parse_scalar_expr_radical():
    s = parse_scalar_expr("((2-3*t)/2)^(1/3)")
    assert s == Scalar.linear(1, F(-3, 2)).rational_power(F(1, 3))
    assert parse_scalar_expr("3^(1/2)") ** 2 == Scalar.rational(3)


def test_jacobi_pass_and_fail():
    assert check_jacobi(SOLVABLE).passed
    assert check_jacobi(parse_compact("(0,0,0,0)")).passed
    bad = parse_compact("(0,0,0,12,34)")
    report = check_jacobi(bad)
    assert not report.passed
    gens = dict(report.residuals)
    assert gens["d^2 e5"] == form(5, ("123", -1))


def test_catalog_style_algebras_pass_jacobi():
    for text in ["(0,0,0,12,14)", "(0,0,12,13,23)", "(0,0,12,13,14+23)",
                 "(0,0,0,0,13+42,14+23)", "(0,0,0,12,23,14-35)"]:
        assert check_jacobi(parse_compact(text)).passed


def test_cohomology_solvable_example():
    rep = ce_cohomology(SOLVABLE, max_degree=2)
    assert rep.betti[0] == 1
    assert rep.betti[1] == 2
    assert [r.render() for r in rep.representatives[1]] == ["e1", "e2"]
    assert rep.betti[2] == 1
    assert [r.render() for r in rep.representatives[2]] == ["e12"]


def test_cohomology_abelian_binomials():
    rep = ce_cohomology(parse_compact("(0,0,0,0,0)"))
    import math
    assert list(rep.betti) == [math.comb(5, k) for k in range(6)]


def test_cohomology_iwasawa_b1():
    h5 = parse_compact("(0,0,0,0,13+42,14+23)")
    rep = ce_cohomology(h5, max_degree=1)
    assert rep.betti[1] == 4


def test_cohomology_euler_characteristic_vanishes():
    for text in ["(0,0,0,12,14)", "(0,0,12,13,23)", "(0,0,0,0,12)"]:
        rep = ce_cohomology(parse_compact(text))
        assert sum((-1) ** k * b for k, b in enumerate(rep.betti)) == 0


def test_cohomology_nilpotent_top_betti_is_one():
    for text in ["(0,0,0,12,14)", "(0,0,12,13,23)", "(0,0,12,13,14+23)"]:
        rep = ce_cohomology(parse_compact(text))
        assert rep.betti[0] == 1 and rep.betti[-1] == 1


def test_cohomology_rejects_parametric():
    t = Scalar.t()
    diff = form(3, ("12", 1)).scale(t)
    alg = LieAlgebra(3, (Form.zero(3, 2), Form.zero(3, 2), diff))
    with pytest.raises(UnsupportedScalarError):
        ce_cohomology(alg)


def test_extend_by_line():
    alg = parse_compact("(0,0,0,0,12)")
    ext = extend_by_line(alg)
    assert ext.dimension == 6
    assert ext.differentials[5].is_zero()
    assert ext.differentials[4] == form(6, ("12", 1))
    twice = extend_by_line(ext)
    assert twice.dimension == 7
    assert twice.differentials[5].is_zero() and twice.differentials[6].is_zero()


def test_central_extension():
    torus = parse_compact("(0,0,0,0)")
    ext = central_extension(torus, form(4, ("12", 1), ("34", -1)))
    assert ext.dimension == 5
    assert ext.differentials[4] == form(5, ("12", 1), ("34", -1))
    assert check_jacobi(ext).passed

    trivial = central_extension(torus, Form.zero(4, 2))
    assert all(d.is_zero() for d in trivial.differentials)

    kt = parse_equations("[algebra]\ndim = 4\nd e4 = -e23\n").algebra
    ext2 = central_extension(kt, form(4, ("23", 1)))
    assert ext2.differentials[4] == form(5, ("23", 1))

    with pytest.raises(ValueError):
        central_extension(kt, form(4, ("12", 1), ("14", 1)))  # d(e14) != 0


def test_central_extension_b1_growth():
    torus = parse_compact("(0,0,0,0)")
    b1 = ce_cohomology(torus, 1).betti[1]
    exact = central_extension(torus, Form.zero(4, 2))
    assert ce_cohomology(exact, 1).betti[1] == b1 + 1  # Omega = 0 is exact
    nonexact = central_extension(torus, form(4, ("23", 1)))
    assert ce_cohomology(nonexact, 1).betti[1] == b1


def test_verify_basis_change_identity_and_permutation():
    alg = SOLVABLE
    eye = [[Scalar.rational(1 if i == j else 0) for j in range(5)] for i in range(5)]
    assert verify_basis_change(alg, eye, alg).passed

    ab = parse_compact("(0,0,0,0)")
    perm = [[Scalar.rational(1 if j == (i + 1) % 4 else 0) for j in range(4)]
            for i in range(4)]
    assert verify_basis_change(ab, perm, ab).passed


def test_verify_basis_change_two_step_pattern():
    sf = parse_equations("""
    [algebra]
    dim = 6
    d e5 = e13 - e24
    d e6 = -2 e12 + e14 + e23 + 2 e34

    [basis_change]
    f1 = -2*e2 + 3^(1/2)*e3 + e4
    f2 = e1 - 3^(1/2)*e2 + 2*e3
    f3 = 2*e2 + 3^(1/2)*e3 - e4
    f4 = e1 + 3^(1/2)*e2 + 2*e3
    f5 = -3^(1/2)*e5 - e6
    f6 = -3^(1/2)*e5 + e6
    target = (0,0,0,0,12,34)
    """)
    bc = sf.basis_change
    assert bc is not None
    report = verify_basis_change(sf.algebra, bc.matrix, bc.target)
    # d f5 = f12 and d f6 = f34 hold exactly, with unit constants: no row
    # carries a factor note
    assert report.passed
    assert [len(row) for row in report.rows] == [2] * 6


def test_verify_basis_change_reverse_direction():
    sf = parse_equations("""
    [algebra]
    dim = 6
    d e5 = e13 - e24
    d e6 = -2 e12 + e14 + e23 + 2 e34

    [basis_change]
    f1 = -2*e2 + 3^(1/2)*e3 + e4
    f2 = e1 - 3^(1/2)*e2 + 2*e3
    f3 = 2*e2 + 3^(1/2)*e3 - e4
    f4 = e1 + 3^(1/2)*e2 + 2*e3
    f5 = -3^(1/2)*e5 - e6
    f6 = -3^(1/2)*e5 + e6
    target = (0,0,0,0,12,34)
    """)
    bc = sf.basis_change
    inverse = matrix_inverse(bc.matrix)
    back = verify_basis_change(bc.target, inverse, sf.algebra)
    assert back.passed


def test_matrix_determinant_and_inverse():
    m = [[Scalar.rational(v) for v in row] for row in [[1, 2], [3, 4]]]
    assert scalar_matrix_determinant(m) == Scalar.rational(-2)
    inv = matrix_inverse(m)
    assert inv[0][0] == Scalar.rational(-2)
    assert inv[0][1] == Scalar.rational(1)

    singular = [[Scalar.rational(v) for v in row] for row in [[1, 2], [2, 4]]]
    with pytest.raises(ValueError):
        matrix_inverse(singular)
    with pytest.raises(ValueError):
        verify_basis_change(parse_compact("(0,0)"), singular, parse_compact("(0,0)"))


def test_verify_basis_change_scaling_hint():
    alg = parse_compact("(0,0,12)")
    doubled = [[Scalar.rational(2 if i == j else 0) for j in range(3)] for i in range(3)]
    target = parse_compact("(0,0,12)")
    report = verify_basis_change(alg, doubled, target)
    # d f3 = 2 e12 while f1^f2 = 4 e12: proportional with factor 1/2, not a pass
    assert not report.passed
    assert report.rows[2][2] == "   (matches target up to factor 1/2)"


def test_structure_section_and_j_line():
    sf = parse_equations("""
    [algebra]
    compact = (0,0,0,0,13+42,14+23)

    [structure]
    F = e12 + e34 + e56
    psi_plus = e135 - e146 - e236 - e245
    J: e1 -> -e2, e2 -> e1, e3 -> -e4, e4 -> e3, e5 -> -e6, e6 -> e5
    """)
    assert sf.forms["F"] == form(6, ("12", 1), ("34", 1), ("56", 1))
    assert sf.coframe_map is not None
    assert sf.coframe_map.squares_to_minus_identity()
    assert sf.coframe_map.is_orthogonal()


def test_domain_and_theta_parsing():
    sf = parse_equations("""
    [algebra]
    dim = 5
    d e4 = e12
    d e5 = e14

    [structure]
    theta = (3/5, 4/5)

    [family]
    param = t
    domain = (-inf, 2/3) | (2/3, inf)
    eta = e1
    """)
    assert sf.theta == (F(3, 5), F(4, 5))
    fam = sf.family
    assert fam.domain[0].hi == F(2, 3) and fam.domain[0].lo is None
    assert fam.domain[1].lo == F(2, 3) and fam.domain[1].hi is None
    samples = fam.domain[0].samples()
    assert all(s < F(2, 3) for s in samples)

    with pytest.raises(ParseError):
        parse_equations("[algebra]\ndim = 2\n[structure]\ntheta = (1/2, 1/2)\n")


def test_scalar_render_parses_back():
    import random
    rng = random.Random(29)
    t = Scalar.t()
    atoms = [
        Scalar.rational(F(3, 4)),
        t,
        t ** 2,
        Scalar.linear(1, F(-3, 2)).rational_power(F(1, 3)),
        Scalar.linear(2, -1).rational_power(F(-1)),
        Scalar.rational(3).rational_power(F(1, 2)),
    ]
    for _ in range(25):
        value = Scalar.rational(rng.randint(-3, 3))
        for _ in range(rng.randint(1, 3)):
            value = value + rng.choice(atoms) * Scalar.rational(F(rng.randint(-4, 4),
                                                                  rng.randint(1, 3)))
        rendered = value.render()
        assert parse_scalar_expr(rendered) == value, rendered


def test_form_render_parses_back():
    import itertools
    import random
    rng = random.Random(31)
    t = Scalar.t()
    coeff_pool = [
        Scalar.rational(1), Scalar.rational(F(-1, 2)), t,
        Scalar.linear(1, F(-3, 2)).rational_power(F(1, 3)) * Scalar.rational(2),
        Scalar.linear(2, -1).rational_power(F(-1)) - Scalar.rational(1),
    ]
    for _ in range(20):
        degree = rng.randint(1, 3)
        coeffs = {}
        for idx in itertools.combinations(range(1, 7), degree):
            if rng.random() < 0.4:
                coeffs[idx] = rng.choice(coeff_pool)
        f = Form(6, degree, dict(coeffs))
        if f.is_zero():
            continue
        rendered = f.render()
        assert parse_form_expr(rendered, 6) == f, rendered


def test_d_squared_property_matches_jacobi():
    import random
    rng = random.Random(3)
    for text in ["(0,0,0,12,14)", "(0,0,12,13,23)"]:
        alg = parse_compact(text)
        for _ in range(10):
            coeffs = {}
            for idx in itertools.combinations(range(1, 6), 2):
                if rng.random() < 0.5:
                    coeffs[idx] = Scalar.rational(rng.randint(-3, 3))
            a = Form(5, 2, {k: v for k, v in coeffs.items() if not v.is_zero()})
            dda = exterior_derivative(alg, exterior_derivative(alg, a))
            assert dda.is_zero()


def two_step_nilpotent(seed):
    """8d: d e1..e4 = 0 and d e5..e8 dense random rational 2-forms in e1..e4."""
    rng = random.Random(seed)
    pairs = list(itertools.combinations(range(1, 5), 2))
    diffs = [Form.zero(8, 2)] * 4 + [
        Form.from_terms(8, 2, [(ab, F(rng.randint(-9, 9), rng.randint(1, 6))) for ab in pairs])
        for _ in range(4)]
    return LieAlgebra(8, tuple(diffs))


def cohomology_algebras():
    algebras = [parse_equations(e.payload).algebra for e in catalog_manifest()]
    return [a for a in algebras if check_jacobi(a).passed] + [
        two_step_nilpotent(seed) for seed in range(4)]


def dense_d_columns(algebra, top):
    """The dense differentials, each term signed by an insertion sort, that
    the bitmask-signed sparse ``_d_columns`` replaced."""
    n = algebra.dimension
    consts = [[(ab, c.as_fraction()) for ab, c in d.coeffs.items()] for d in algebra.differentials]
    scale = math.lcm(*(q.denominator for d in consts for _, q in d))
    terms = [[(ab, int(q * scale)) for ab, q in d] for d in consts]
    out = []
    for k in range(top + 1):
        target = {idx: pos for pos, idx in
                  enumerate(itertools.combinations(range(1, n + 1), k + 1))}
        vectors = []
        for idx in itertools.combinations(range(1, n + 1), k):
            vec = [0] * len(target)
            for pos, i in enumerate(idx):
                rest = idx[:pos] + idx[pos + 1:]
                for ab, c in terms[i - 1]:
                    sign, jdx = insertion_sort_index(ab + rest)
                    if sign:
                        vec[target[jdx]] += -sign * c if pos % 2 else sign * c
            vectors.append(vec)
        out.append(vectors)
    return out


def dense_columns(columns, n, k):
    """Sparse degree-k columns over the degree-(k+1) basis as dense lists."""
    return [[col.get(t, 0) for t in range(math.comb(n, k + 1))] for col in columns]


def test_sparse_differentials_match_the_dense_oracle():
    algs = [parse_equations(e.payload).algebra for e in catalog_manifest()] + [
        two_step_nilpotent(seed) for seed in range(4)]
    assert all(alg.is_rational() for alg in algs)
    for alg in algs:
        n = alg.dimension
        sparse = _d_columns(alg, n)
        assert [dense_columns(cols, n, k) for k, cols in enumerate(sparse)] == dense_d_columns(
            alg, n)
        assert all(v for cols in sparse for col in cols for v in col.values())


def test_cohomology_differential_is_the_exterior_derivative():
    for alg in cohomology_algebras():
        n = alg.dimension
        scale = math.lcm(*(c.as_fraction().denominator
                           for d in alg.differentials for c in d.coeffs.values()))
        columns = [dense_columns(cols, n, k) for k, cols in enumerate(_d_columns(alg, n - 1))]
        assert len(columns) == n
        for k, vectors in enumerate(columns):
            targets = list(itertools.combinations(range(1, n + 1), k + 1))
            for idx, vec in zip(itertools.combinations(range(1, n + 1), k), vectors, strict=True):
                image = exterior_derivative(alg, Form(n, k, {idx: Scalar.one()}))
                assert all(type(v) is int for v in vec)
                assert vec == [scale * image.coefficient(t).as_fraction() for t in targets]
        # consecutive differentials compose to zero
        for first, second in zip(columns, columns[1:]):
            for vec in first:
                assert not any(sum(x * col[r] for x, col in zip(vec, second))
                               for r in range(len(second[0])))


def test_cohomology_poincare_duality_on_two_step_nilpotent_algebras():
    for seed in range(4):
        alg = two_step_nilpotent(seed)
        assert check_jacobi(alg).passed
        rep = ce_cohomology(alg)
        assert rep.betti == rep.betti[::-1]
        assert sum((-1) ** k * b for k, b in enumerate(rep.betti)) == 0
        assert rep.betti[0] == 1 and rep.betti[1] == 4
        assert [len(r) for r in rep.representatives] == list(rep.betti)


def test_cohomology_max_degree_is_a_prefix_of_the_full_report():
    for alg in cohomology_algebras():
        full, low = ce_cohomology(alg), ce_cohomology(alg, 3)
        assert low.betti == full.betti[:4]
        assert low.representatives == full.representatives[:4]


def pairs_perfectly(reps, n):
    """Poincare duality on printed classes: for each k the matrix of top
    coefficients of reps[k][i] ^ reps[n-k][j] is square and nonsingular.  On a
    unimodular algebra d(Lambda^{n-1}) = 0, so a coboundary pairs to zero with
    every cocycle and this holds exactly when each list is a basis of H^k."""
    top = tuple(range(1, n + 1))
    for k in range(n + 1):
        matrix = [[wedge(a, b).coefficient(top) for b in reps[n - k]] for a in reps[k]]
        if len(reps[k]) != len(reps[n - k]) or (
                matrix and scalar_matrix_determinant(matrix).is_zero()):
            return False
    return True


def duality_algebras():
    """The Lie algebras of the catalog and of its SU(n) entries rotated at seeds 1 and 7."""
    texts = [e.payload for e in catalog_manifest()] + [
        rotated_file(lieforms, e, random.Random(seed))
        for seed in (1, 7) for e in sun_entries(lieforms)]
    algs = [a for a in (parse_equations(t).algebra for t in texts) if check_jacobi(a).passed]
    assert len(algs) == 21 + 24
    return algs


def test_cohomology_representatives_satisfy_poincare_duality():
    algs = duality_algebras()
    broken = 0
    for alg in algs:
        n, reps = alg.dimension, list(ce_cohomology(alg).representatives)
        assert pairs_perfectly(reps, n)
        # a class replaced by a nonzero coboundary breaks the pairing
        boundary = next((d for d in alg.differentials if not d.is_zero()), None)
        if boundary is not None:
            assert reps[2], alg.name
            reps[2] = (boundary, *reps[2][1:])
            assert not pairs_perfectly(reps, n)
            broken += 1
    assert broken == len(algs) - 1  # all but the abelian circle-eps0


def ce_cohomology_oracle(algebra, max_degree=None):
    """The representatives chosen by inserting every kernel vector, as a Fraction
    row, into the echelon of all the coboundaries d e^J: the elimination that
    ``ce_cohomology`` replaced by reading the classes from pivot columns."""
    n = algebra.dimension
    top = n if max_degree is None else min(max_degree, n)
    tables = _d_columns(algebra, top)
    reps = []
    for k in range(top + 1):
        rows = [{} for _ in range(math.comb(n, k + 1))]
        for c, col in enumerate(tables[k]):
            for r, v in col.items():
                rows[r][c] = v
        echelon, pivots = [], []
        for img in tables[k - 1] if k else ():
            insert_echelon_row(echelon, pivots, img)
        basis = list(itertools.combinations(range(1, n + 1), k))
        reps.append(tuple(Form(n, k, {basis[i]: Scalar.rational(c) for i, c in vec.items()})
                          for vec in fraction_nullspace(rows, len(tables[k]))
                          if insert_echelon_row(echelon, pivots, vec)))
    return CohomologyReport(tuple(map(len, reps)), tuple(reps))


def random_solvable(rng, n):
    """d e1 = 0 and d e^i a sum of at most two random rational multiples of e^ab,
    a < b <= i and a < i: triangular, so solvable once the Jacobi identity holds."""
    diffs = [Form.zero(n, 2)]
    for i in range(2, n + 1):
        pairs = [(a, b) for a, b in itertools.combinations(range(1, i + 1), 2) if a < i]
        diffs.append(Form.from_terms(n, 2, [
            (ab, F(rng.randint(-3, 3), rng.randint(1, 3)))
            for ab in rng.sample(pairs, min(len(pairs), rng.randint(0, 2)))]))
    return LieAlgebra(n, tuple(diffs))


def random_solvable_algebras(count, seed=0):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        alg = random_solvable(rng, rng.randint(3, 7))
        if check_jacobi(alg).passed and any(not d.is_zero() for d in alg.differentials):
            out.append(alg)
    return out


def test_cohomology_matches_the_coboundary_insertion_oracle():
    # the oracle's degree k reads only d_{k-1} and d_k, so its full report truncates
    # to every max_degree; the dense 8d two-step algebras run the low degrees only
    swept = duality_algebras() + random_solvable_algebras(60)
    assert {a.dimension for a in swept} == set(range(3, 9))
    cases = [(alg, range(alg.dimension)) for alg in swept]  # top n runs as None
    cases += [(two_step_nilpotent(seed), range(4)) for seed in range(40)]
    for alg, tops in cases:
        want = ce_cohomology_oracle(alg)
        for top in (None, *tops):
            end = None if top is None else top + 1
            assert ce_cohomology(alg, top) == CohomologyReport(
                want.betti[:end], want.representatives[:end]), (alg.name, top)


# ---------------------------------------------------------------------------
# The parser's contract: only ParseError escapes, and only Scalars leave it.
# ---------------------------------------------------------------------------

PAYLOADS = [e.payload for e in catalog_manifest()]
GRAMMAR = "0123456789+-*/^()=,:|#[]> \n\tetdJ_"


@st.composite
def mutated_payloads(draw):
    """A catalog payload with a few characters inserted, deleted or replaced."""
    text = draw(st.sampled_from(PAYLOADS))
    for _ in range(draw(st.integers(1, 4))):
        pos = draw(st.integers(0, len(text)))
        kind = draw(st.sampled_from(("insert", "delete", "replace")))
        char = "" if kind == "delete" else draw(st.sampled_from(GRAMMAR))
        text = text[:pos] + char + text[pos + (kind != "insert"):]
    return text


COEFFICIENT = re.compile(r"(?<![e\d])\d+")  # a number that is not part of an index


def expressions(line):
    """(start, end, compact) of each expression a line assigns: its right-hand
    side, or each entry of a compact declaration."""
    key, eq, rhs = line.partition("=")
    key = key.strip()
    if not eq or key in ("dim", "param", "domain", "theta"):
        return []
    at = len(line) - len(rhs)
    if key not in ("compact", "target"):
        return [(at, len(line), False)]
    out, pos = [], line.index("(", at) + 1
    for chunk in line[pos:line.rindex(")")].split(","):
        out.append((pos, pos + len(chunk), True))
        pos += len(chunk) + 1
    return out


def term_spans(expr):
    """(start, end) of each term of a sum outside parentheses, its sign included."""
    starts, depth, prev = [0], 0, "="
    for i, ch in enumerate(expr):
        depth += (ch == "(") - (ch == ")")
        if ch in "+-" and depth == 0 and i and prev not in "*/^(=,:+-":
            starts.append(i)
        if not ch.isspace():
            prev = ch
    return list(zip(starts, starts[1:] + [len(expr)]))


@st.composite
def grammar_keeping_payloads(draw):
    """A catalog payload with a few token edits that keep the grammar: a
    coefficient changed, two indices of a monomial swapped, or one term of a
    sum dropped (a lone term becomes 0)."""
    text = draw(st.sampled_from(PAYLOADS))
    for _ in range(draw(st.integers(1, 3))):
        lines = text.split("\n")
        k, (a, b, compact) = draw(st.sampled_from(
            [(k, span) for k, line in enumerate(lines) for span in expressions(line)]))
        expr = lines[k][a:b]
        kind = draw(st.sampled_from(("coefficient", "swap", "drop")))
        monomial = re.compile(r"(?<!\d)\d\d(?!\d)" if compact else r"(?<=e)\d{2,}")
        if kind == "coefficient" and not compact and (found := list(COEFFICIENT.finditer(expr))):
            m = draw(st.sampled_from(found))
            expr = expr[:m.start()] + str(draw(st.sampled_from((0, 1, 2, 3, 5)))) + expr[m.end():]
        elif kind == "swap" and (found := list(monomial.finditer(expr))):
            m = draw(st.sampled_from(found))
            digits = list(m.group())
            i, j = draw(st.permutations(range(len(digits))))[:2]
            digits[i], digits[j] = digits[j], digits[i]
            expr = expr[:m.start()] + "".join(digits) + expr[m.end():]
        elif kind == "drop":
            spans = term_spans(expr)
            if len(spans) == 1:
                expr = " 0"
            else:
                start, end = draw(st.sampled_from(spans))
                expr = " " + (expr[:start] + expr[end:]).strip().lstrip("+").strip()
        lines[k] = lines[k][:a] + expr + lines[k][b:]
        text = "\n".join(lines)
    return text


def assert_scalar_values(sf):
    """Every coefficient, J entry and basis-change entry is a Scalar."""
    forms = [*sf.algebra.differentials, *sf.forms.values()]
    if sf.family is not None:
        forms += sf.family.forms.values()
    if sf.basis_change is not None:
        forms += sf.basis_change.target.differentials
        assert all(isinstance(c, Scalar) for row in sf.basis_change.matrix for c in row)
    assert all(isinstance(c, Scalar) for f in forms for c in f.coeffs.values())
    if sf.coframe_map is not None:
        assert all(isinstance(c, Scalar) for row in sf.coframe_map.matrix for c in row)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(mutated_payloads())
def test_parse_equations_raises_only_parse_error(text):
    try:
        sf = parse_equations(text)
    except ParseError:
        return
    assert_scalar_values(sf)


POSITIONED = re.compile(r"error: line \d+, column \d+: \S")


def assert_exit_code_contract(folder, text):
    """Every file command exits 0, 1 or 2 with no traceback, an exit 2 ends
    with an error: line, and a parse error is printed as error: line L,
    column C: ..."""
    path = folder / "mutant.txt"
    path.write_text(text, encoding="utf-8")
    try:
        parse_equations(text)
        parse_error = None
    except ParseError as exc:
        parse_error = f"error: {exc}"
    for command in (["validate"], ["check"], ["cohomology"], ["check", "--balanced"],
                    ["check", "--hypo"], ["evolve-verify"],
                    ["suspend", "-o", str(folder / "suspended.txt")], ["bismut"], ["holonomy"]):
        out = io.StringIO()
        with redirect_stdout(out):
            code = main([*command, str(path)])
        lines = out.getvalue().splitlines()
        assert code in (0, 1, 2), (command, code)
        assert code != 2 or lines[-1].startswith("error: "), (command, lines[-1:])
        assert all(POSITIONED.match(line) for line in lines if line.startswith("error: line"))
        if parse_error is not None:
            assert code == 2 and parse_error in lines, (command, lines)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(mutated_payloads())
def test_cli_keeps_the_exit_code_contract_on_mutated_files(tmp_path_factory, text):
    assert_exit_code_contract(tmp_path_factory.mktemp("mutant"), text)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(grammar_keeping_payloads())
def test_cli_keeps_the_exit_code_contract_on_files_that_still_parse(tmp_path_factory, text):
    # these mostly parse, so the commands' semantic checks run on them
    assert_exit_code_contract(tmp_path_factory.mktemp("edited"), text)


def test_parsed_values_are_scalars():
    assert len(PAYLOADS) == 22
    texts = [*PAYLOADS]
    texts += [rotated_file(lieforms, e, random.Random(seed))
              for seed in (1, 7) for e in sun_entries(lieforms)]
    texts += [shift_payload(get_entry(name).payload, s)
              for name in FAMILY_ENTRIES for s in (F(1, 3), F(-5, 2))]
    for text in texts:
        assert_scalar_values(parse_equations(text))
    for expr in ("3/5", "0", "-2", "2^-1", "(3/5)^2", "4^(1/2)", "1/2 - 1/2", "t - t"):
        assert isinstance(parse_scalar_expr(expr), Scalar), expr
    assert parse_scalar_expr("(3/5)^2 - 2/7") == Scalar.rational(F(3, 5) ** 2 - F(2, 7))
    assert parse_form_expr("-3/5 e12 + 1/2*e34", 4) == form(4, ("12", F(-3, 5)), ("34", F(1, 2)))


@pytest.mark.parametrize("expr, column, message", [
    ("1/0", 2, "scalar division by zero"),
    ("3/0*e1", 2, "scalar division by zero"),
    ("e1/0", 3, "scalar division by zero"),
    ("0^(1/2)", 2, "0 raised to a non-integer power"),
    ("(-1)^(1/2)", 5, "(-1)^(1/2) is not real-valued in the supported class"),
    ("0^(-1)", 2, "scalar division by zero"),
])
def test_arithmetic_errors_keep_their_text_and_column(expr, column, message):
    with pytest.raises(ParseError) as err:
        parse_form_expr(expr, 6)
    assert (err.value.line, err.value.column, err.value.message) == (1, column, message)
    with pytest.raises(ParseError) as err:
        parse_equations(f"[algebra]\ndim = 6\n[structure]\nF = e12 + {expr}\n")
    assert str(err.value) == f"line 4, column {column + 10}: {message}"


def test_rational_constants_are_folded_without_scalar_division(monkeypatch):
    def refuse(*args):
        raise AssertionError("a rational constant went through Scalar division")

    monkeypatch.setattr(scalars, "factor_poly_linear", refuse)
    monkeypatch.setattr(Scalar, "inverse", refuse)
    sf = parse_equations(rotated_file(lieforms, sun_entries(lieforms)[0], random.Random(1)))
    assert any(c.as_fraction().denominator > 1
               for d in sf.algebra.differentials for c in d.coeffs.values())
    assert parse_form_expr("(1/3)^(-2)*e1/(2/7) - 2^3 e2", 2) == form(2, ("1", F(63, 2)),
                                                                      ("2", -8))


def test_parsed_forms_are_summed_without_intermediate_forms(monkeypatch):
    """A parsed form is one sum of rational coefficients: no Form per term and
    one Scalar per nonzero coefficient, made when the value leaves the parser."""
    text = rotated_file(lieforms, get_entry("ex4.5"), random.Random(1))
    calls = Counter()
    for owner, name in ((Scalar, "rational"), (Form, "from_terms")):
        def counting(*args, fn=getattr(owner, name), name=name):
            calls[name] += 1
            return fn(*args)
        monkeypatch.setattr(owner, name, staticmethod(counting))
    sf = parse_equations(text)
    assert sf.algebra.dimension == 8
    coefficients = sum(len(f.coeffs) for f in (*sf.algebra.differentials, *sf.forms.values()))
    j_entries = sum(1 for row in sf.coframe_map.matrix for c in row if c)
    assert calls["from_terms"] == 0
    assert 0 < calls["rational"] <= coefficients + j_entries


def spy_on_cached_property(monkeypatch, cls, name):
    """Replace ``cls.name`` by a cached property that records each instance it is
    computed for; return that list."""
    computed = []

    def spy(self, _fn=getattr(cls, name).func):
        computed.append(self)
        return _fn(self)

    prop = functools.cached_property(spy)
    prop.__set_name__(cls, name)
    monkeypatch.setattr(cls, name, prop)
    return computed


def test_structure_table_is_built_once_per_algebra(monkeypatch):
    built = spy_on_cached_property(monkeypatch, LieAlgebra, "structure_table")
    bad = parse_compact("(0,0,0,12,34)")
    assert dict(check_jacobi(bad).residuals) == {"d^2 e5": Form.from_terms(5, 3, [((1, 2, 3), -1)])}
    sf = parse_equations(get_entry("ex4.3").payload)
    alg, kf = sf.algebra, sf.forms["F"]
    assert alg.d(kf) == exterior_derivative(alg, kf) and not alg.d(kf).is_zero()
    assert check_jacobi(alg).passed
    assert ce_cohomology(alg).betti[:2] == (1, 4)
    sheet = bismut_connection(MetricFrame(alg, sf.coframe_map), kf)  # Koszul and Cartan
    assert all(r.is_zero() for r in sheet.cartan_residuals())
    assert curvature(sheet).matrices
    # a parametric table keeps Scalar numerators, which the connection layer refuses
    parametric = parse_equations("dim = 4\nd e2 = t*e34\nd e4 = e12\n").algebra
    assert not parametric.is_rational()
    with pytest.raises(UnsupportedScalarError, match="structure constants must be rational"):
        parametric.structure_constants()
    assert [id(a) for a in built] == [id(bad), id(alg), id(parametric)]


def test_catalog_entry_computes_its_jacobi_residuals_once(monkeypatch):
    computed = spy_on_cached_property(monkeypatch, LieAlgebra, "jacobi")
    calls = []
    monkeypatch.setattr(lieforms.catalog, "check_jacobi",
                        lambda alg, _fn=check_jacobi: calls.append(alg) or _fn(alg))
    assert run_entry(get_entry("ex4.3")).passed
    # run_entry asks for the report and MetricFrame asks again: one computation serves both
    assert len(computed) == 1 and len(calls) == 1


def test_lie_algebras_are_frozen():
    alg = parse_compact("(0,0,12)")
    for name, value in (("dimension", 4), ("differentials", ()), ("name", "h3")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(alg, name, value)
    assert (alg.dimension, len(alg.differentials), alg.name) == (3, 3, "(0,0,12)")


@pytest.mark.parametrize("name, calls", [("ex4.3", 351), ("ex4.4-c1", 375)])
def test_cohomology_eliminates_on_integers_once_per_row(monkeypatch, name, calls):
    alg = parse_equations(get_entry(name).payload).algebra
    n = alg.dimension
    ranks = []
    for columns in _d_columns(alg, n):
        echelon, pivots = [], []
        ranks.append(sum(insert_echelon_row(echelon, pivots, col) for col in columns))
    rows = []

    def counting(echelon, pivots, row, _fn=insert_echelon_row):
        rows.append(row)
        return _fn(echelon, pivots, row)

    monkeypatch.setattr(lieforms._linalg, "insert_echelon_row", counting)
    monkeypatch.setattr(algebras, "_insert_row", counting)
    rep = ce_cohomology(alg)
    # the C(n, k+1) rows of each d_k in its kernel, then one coboundary per rank of d_{k-1}
    assert len(rows) == calls == sum(math.comb(n, k + 1) for k in range(n + 1)) + sum(ranks)
    assert all(type(v) is int for row in rows for v in row.values())
    assert rep.betti == tuple(math.comb(n, k) - ranks[k] - (ranks[k - 1] if k else 0)
                              for k in range(n + 1))


def test_cohomology_reads_d_squared_from_its_tables(monkeypatch):
    def refuse(*args):
        raise AssertionError("ce_cohomology ran a second Jacobi pass")

    monkeypatch.setattr(algebras, "check_jacobi", refuse)
    monkeypatch.setattr(algebras, "exterior_derivative", refuse)
    assert ce_cohomology(SOLVABLE).betti == (1, 2, 1, 1, 2, 1)
    bad = parse_equations("dim = 5\nd e4 = e12\nd e5 = 1/2 e34 + e13\n").algebra
    for top in (None, 0, 1):
        with pytest.raises(ValueError, match=r"algebra fails the Jacobi identity; d\^2 != 0"):
            ce_cohomology(bad, top)
    parametric = parse_equations("dim = 4\nd e2 = t*e34\nd e4 = e12\n").algebra
    with pytest.raises(UnsupportedScalarError, match="rational structure constants"):
        ce_cohomology(parametric)
