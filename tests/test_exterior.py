import itertools
import random
import re
from fractions import Fraction

import pytest

import lieforms
from lieforms.algebras import (
    LieAlgebra,
    ce_cohomology,
    check_jacobi,
    extend_by_line,
    parse_equations,
    parse_form_expr,
)
from lieforms.catalog import catalog_manifest, get_entry
from lieforms.connection import MetricFrame, bismut_connection, curvature, nabla_matrices
from lieforms.exterior import (
    CoframeMap,
    Form,
    apply_coframe_map,
    contract,
    exterior_derivative,
    partial_t,
    sort_index,
    span_rank,
    wedge,
    wedge_power,
)
from lieforms.scalars import Scalar, UnsupportedScalarError
from perfbench.workloads import FAMILY_ENTRIES, rotated_file, shift_payload, sun_entries
from sign_reference import insertion_sort_index

F = Fraction


def form(dim, *terms):
    """terms are (indices-string, coeff) pairs, e.g. ("12", 1)."""
    return Form.from_terms(
        dim, len(terms[0][0]),
        [([int(c) for c in idx], coeff) for idx, coeff in terms],
    )


def algebra_stub(dim, diffs):
    """diffs maps generator index -> degree-2 Form."""
    return LieAlgebra(dim, tuple(diffs.get(i, Form.zero(dim, 2)) for i in range(1, dim + 1)))


IWASAWA = algebra_stub(6, {
    5: form(6, ("13", 1), ("24", -1)),
    6: form(6, ("14", 1), ("23", 1)),
})


def test_wedge_basics():
    e1 = Form.generator(4, 1)
    e2 = Form.generator(4, 2)
    assert wedge(e1, e2) == form(4, ("12", 1))
    a = form(4, ("12", 1), ("34", -1))
    b = form(4, ("12", 1), ("34", 1))
    assert wedge(a, b).is_zero()


def test_wedge_descending_indices_normalize():
    assert form(5, ("53", 1)) == form(5, ("35", -1))


def test_wedge_cube_of_standard_kaehler_form():
    f = form(6, ("12", 1), ("34", 1), ("56", 1))
    assert wedge_power(f, 3) == form(6, ("123456", 6))


def test_contract_examples():
    e_1 = [1, 0, 0, 0, 0, 0]
    assert contract(e_1, form(6, ("12", 1))) == Form.generator(6, 2)
    assert contract(e_1, form(6, ("23", 1))).is_zero()
    e_6 = [0, 0, 0, 0, 0, 1]
    got = contract(e_6, form(6, ("14", 1), ("23", 1), ("56", 1)))
    assert got == form(6, ("5", -1))


def test_contract_degree_zero_rejected():
    with pytest.raises(ValueError):
        contract([1, 0], Form(2, 0, {(): Scalar.one()}))


STANDARD_J6 = CoframeMap.from_rows([
    [0, -1, 0, 0, 0, 0],
    [1, 0, 0, 0, 0, 0],
    [0, 0, 0, -1, 0, 0],
    [0, 0, 1, 0, 0, 0],
    [0, 0, 0, 0, 0, -1],
    [0, 0, 0, 0, 1, 0],
])


def test_coframe_map_reproduces_torsion_rotation():
    df = form(6, ("136", 1), ("145", -1), ("235", -1), ("246", -1))
    want = form(6, ("135", -1), ("146", -1), ("236", -1), ("245", 1))
    assert apply_coframe_map(STANDARD_J6, df) == want


def test_coframe_map_fixes_11_forms():
    f = form(6, ("12", 1), ("34", 1), ("56", 1))
    assert apply_coframe_map(STANDARD_J6, f) == f


def test_coframe_map_rotates_complex_volume_form():
    psi_plus = form(6, ("135", 1), ("146", -1), ("236", -1), ("245", -1))
    psi_minus = form(6, ("136", 1), ("145", 1), ("235", 1), ("246", -1))
    assert apply_coframe_map(STANDARD_J6, psi_plus) == psi_minus
    assert apply_coframe_map(STANDARD_J6, psi_minus) == -psi_plus


def test_exterior_derivative_iwasawa():
    f = form(6, ("12", 1), ("34", 1), ("56", 1))
    want = form(6, ("136", 1), ("145", -1), ("235", -1), ("246", -1))
    assert exterior_derivative(IWASAWA, f) == want


def test_exterior_derivative_degree_two_example():
    alg = algebra_stub(5, {
        3: form(5, ("12", 1)),
        4: form(5, ("13", 1)),
        5: form(5, ("23", 1)),
    })
    assert exterior_derivative(alg, form(5, ("23", 1))).is_zero()


def test_exterior_derivative_abelian_is_zero():
    alg = algebra_stub(4, {})
    a = form(4, ("1", 1), ("3", -2))
    assert exterior_derivative(alg, a).is_zero()


def test_partial_t():
    t = Scalar.t()
    e15 = form(5, ("15", 1))
    a = form(5, ("14", 1)) + e15.scale(-t)
    assert partial_t(a) == -e15
    assert partial_t(form(5, ("12", 3))).is_zero()
    u = Scalar.linear(1, F(-3, 2)).rational_power(F(1, 3))
    got = partial_t(Form.generator(5, 1).scale(u))
    want = Form.generator(5, 1).scale(u.diff())
    assert got == want


def test_span_rank_examples():
    items = [form(4, ("12", 1)), form(4, ("34", 1)), form(4, ("12", 1), ("34", 1))]
    rep = span_rank(items)
    assert rep.rank == 2 and rep.basis_indices == (0, 1)
    curvatures = [
        form(6, ("34", 2)),
        form(6, ("13", -1), ("24", -1)),
        form(6, ("14", 1), ("23", -1)),
        form(6, ("12", 2)),
    ]
    assert span_rank(curvatures).rank == 4
    assert span_rank([]).rank == 0


def test_span_rank_rejects_mixed_and_parametric_forms():
    with pytest.raises(ValueError):
        span_rank([form(4, ("12", 1)), form(4, ("123", 1))])
    with pytest.raises(ValueError):
        span_rank([form(4, ("12", 1)), form(5, ("12", 1))])
    with pytest.raises(UnsupportedScalarError):
        span_rank([Form.generator(3, 1).scale(Scalar.t()), Form.generator(3, 2)])


def random_form(rng, dim, degree, density=0.5):
    coeffs = {}
    for idx in itertools.combinations(range(1, dim + 1), degree):
        if rng.random() < density:
            coeffs[idx] = Scalar.rational(F(rng.randint(-4, 4), rng.randint(1, 3)))
    return Form(dim, degree, {k: v for k, v in coeffs.items() if not v.is_zero()})


def test_wedge_graded_anticommutativity_and_associativity():
    rng = random.Random(7)
    for _ in range(25):
        p = rng.randint(1, 3)
        q = rng.randint(1, 3)
        a = random_form(rng, 6, p)
        b = random_form(rng, 6, q)
        sign = (-1) ** (p * q)
        assert wedge(a, b) == wedge(b, a).scale(sign)
        c = random_form(rng, 6, 1)
        assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))


def test_contract_is_antiderivation():
    rng = random.Random(11)
    for _ in range(20):
        p = rng.randint(1, 2)
        a = random_form(rng, 5, p)
        b = random_form(rng, 5, 2)
        x = [F(rng.randint(-3, 3)) for _ in range(5)]
        lhs = contract(x, wedge(a, b))
        rhs = wedge(contract(x, a), b) + wedge(a, contract(x, b)).scale((-1) ** p)
        assert lhs == rhs


def test_coframe_map_commutes_with_wedge_and_squares():
    rng = random.Random(13)
    for _ in range(15):
        a = random_form(rng, 6, 2)
        b = random_form(rng, 6, 1)
        ja = apply_coframe_map(STANDARD_J6, a)
        jb = apply_coframe_map(STANDARD_J6, b)
        assert apply_coframe_map(STANDARD_J6, wedge(a, b)) == wedge(ja, jb)
        jja = apply_coframe_map(STANDARD_J6, ja)
        assert jja == a  # degree 2: (-1)^2
        jjb = apply_coframe_map(STANDARD_J6, jb)
        assert jjb == -b  # degree 1


def test_d_squared_zero_on_jacobi_algebra():
    rng = random.Random(17)
    for _ in range(15):
        a = random_form(rng, 6, rng.randint(1, 3))
        da = exterior_derivative(IWASAWA, a)
        assert exterior_derivative(IWASAWA, da).is_zero()


def test_span_rank_permutation_invariant():
    rng = random.Random(19)
    items = [random_form(rng, 5, 2) for _ in range(6)]
    base = span_rank(items).rank
    for _ in range(5):
        shuffled = items[:]
        rng.shuffle(shuffled)
        assert span_rank(shuffled).rank == base


def test_form_render():
    f = form(6, ("12", 1), ("34", 1), ("56", 1))
    assert f.render() == "e12 + e34 + e56"
    g = form(6, ("13", -1), ("24", -1))
    assert g.render() == "-e13 - e24"
    t = Scalar.t()
    h = Form.generator(5, 1).scale(-t) + form(5, ("2", F(1, 2)))
    assert h.render() == "-t*e1 + 1/2*e2"


# ---------------------------------------------------------------------------
# Oracles: the forms layer in Scalar arithmetic throughout.  d is the Leibniz
# sum of wedges, the coframe map wedges the images of the generators pairwise,
# and every sum goes through a Scalar addition of forms.  Signs come from an
# insertion sort, not from the engine's sort_index.
# ---------------------------------------------------------------------------


def add_oracle(a, b):
    """a + b in Scalar arithmetic; an index whose sum is 0 leaves at once."""
    assert (a.dimension, a.degree) == (b.dimension, b.degree)
    coeffs = dict(a.coeffs)
    for idx, val in b.coeffs.items():
        acc = coeffs.get(idx, Scalar.zero()) + val
        if acc.is_zero():
            coeffs.pop(idx, None)
        else:
            coeffs[idx] = acc
    return Form(a.dimension, a.degree, coeffs)


def wedge_oracle(a, b):
    out = {}
    for ia, ca in a.coeffs.items():
        for ib, cb in b.coeffs.items():
            sign, idx = insertion_sort_index(ia + ib)
            if sign == 0:
                continue
            term = ca * cb if sign > 0 else -(ca * cb)
            acc = out.get(idx, Scalar.zero()) + term
            if acc.is_zero():
                out.pop(idx, None)
            else:
                out[idx] = acc
    return Form(a.dimension, a.degree + b.degree, out)


def d_oracle(algebra, a):
    out = Form.zero(a.dimension, a.degree + 1)
    for idx, coeff in a.coeffs.items():
        for pos, i in enumerate(idx):
            rest = Form(a.dimension, a.degree - 1, {idx[:pos] + idx[pos + 1:]: Scalar.one()})
            term = wedge_oracle(algebra.differentials[i - 1], rest).scale(coeff)
            out = add_oracle(out, -term if pos % 2 else term)
    return out


def apply_coframe_map_oracle(cmap, a):
    if a.degree == 0:
        return a
    n = a.dimension
    images = [Form(n, 1, {(j,): c for j, c in enumerate(row, start=1) if not c.is_zero()})
              for row in cmap.matrix]
    out = Form.zero(n, a.degree)
    for idx, coeff in a.coeffs.items():
        piece = images[idx[0] - 1]
        for i in idx[1:]:
            piece = wedge_oracle(piece, images[i - 1])
        out = add_oracle(out, piece.scale(coeff))
    return out


def contract_oracle(vector, a):
    comps = [v if isinstance(v, Scalar) else Scalar.rational(v) for v in vector]
    out = Form.zero(a.dimension, a.degree - 1)
    for idx, coeff in a.coeffs.items():
        for pos, i in enumerate(idx):
            if comps[i - 1].is_zero():
                continue
            term = coeff * comps[i - 1]
            out = add_oracle(out, Form(a.dimension, a.degree - 1,
                                       {idx[:pos] + idx[pos + 1:]: -term if pos % 2 else term}))
    return out


def assert_forms_layer_matches_oracles(algebra, forms, cmaps, vectors, label):
    """d, wedge, contract and every coframe map against the oracles."""
    for name, a in forms.items():
        assert exterior_derivative(algebra, a) == d_oracle(algebra, a), (label, name)
        for other, b in forms.items():
            if a.degree + b.degree <= a.dimension:
                assert wedge(a, b) == wedge_oracle(a, b), (label, name, other)
        for x in vectors:
            if a.degree:
                assert contract(x, a) == contract_oracle(x, a), (label, name, x)
        for cmap in cmaps:
            assert apply_coframe_map(cmap, a) == apply_coframe_map_oracle(cmap, a), (label, name)


def structure_forms(sf, algebra, forms):
    out = {f"d e{i}": d for i, d in enumerate(algebra.differentials, start=1) if not d.is_zero()}
    out.update(forms)
    return out


def probe_vectors(n, rng, parametric=False):
    vectors = [[int(i == k) for i in range(n)] for k in range(n)]
    vectors.append([F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)])
    if parametric:
        vectors.append([Scalar.t() + F(1, 3)] + [F(k, 2) for k in range(1, n)])
    return vectors


def parametric_coframe_map(n):
    """A dense map with radicals, entries a + b*t and rationals, for the Scalar path."""
    root = Scalar.linear(2, 1).rational_power(F(1, 2))

    def entry(i, j):
        if i == j:
            return root * (i + 1)
        return Scalar.linear(i, j - i) if (i + j) % 3 else F(i - j, 3)

    return CoframeMap.from_rows([[entry(i, j) for j in range(n)] for i in range(n)])


@pytest.mark.parametrize("entry", [e.name for e in catalog_manifest()])
def test_forms_layer_matches_oracles_on_catalog_entries(entry):
    rng = random.Random(entry)
    sf = parse_equations(get_entry(entry).payload, name=entry)
    n = sf.algebra.dimension
    cmaps = [sf.coframe_map] if sf.coframe_map is not None else []
    if sf.basis_change is not None:
        cmaps.append(CoframeMap(sf.basis_change.matrix))
    assert_forms_layer_matches_oracles(sf.algebra, structure_forms(sf, sf.algebra, sf.forms),
                                       cmaps, probe_vectors(n, rng), entry)
    if sf.family is not None:
        ambient = extend_by_line(sf.algebra)
        assert_forms_layer_matches_oracles(
            ambient, structure_forms(sf, ambient, sf.family.forms),
            [parametric_coframe_map(n + 1)], probe_vectors(n + 1, rng, parametric=True), entry)


@pytest.mark.parametrize("seed", [1, 7])
def test_forms_layer_matches_oracles_on_rotated_frames(seed):
    entries = sun_entries(lieforms)
    assert len(entries) == 12
    for entry in entries:
        rng = random.Random(seed)
        sf = parse_equations(rotated_file(lieforms, entry, rng))
        forms = structure_forms(sf, sf.algebra, sf.forms)
        vectors = probe_vectors(sf.algebra.dimension, rng)[-2:]
        assert_forms_layer_matches_oracles(sf.algebra, forms, [sf.coframe_map], vectors,
                                           f"{entry.name} at seed {seed}")


@pytest.mark.parametrize("family", FAMILY_ENTRIES)
def test_forms_layer_matches_oracles_on_shifted_families(family):
    text = shift_payload(get_entry(family).payload, F(1, 3))
    sf = parse_equations(text)
    ambient = extend_by_line(sf.algebra)
    rng = random.Random(family)
    forms = structure_forms(sf, ambient, sf.family.forms)
    assert any(not c.is_rational() for f in forms.values() for c in f.coeffs.values())
    assert_forms_layer_matches_oracles(ambient, forms, [parametric_coframe_map(6)],
                                       probe_vectors(6, rng, parametric=True), family)


def test_forms_layer_matches_oracles_on_a_parametric_differential():
    t = Scalar.t()
    alg = algebra_stub(4, {3: form(4, ("12", 1)).scale(t), 4: form(4, ("13", 1))})
    rng = random.Random(3)
    forms = {"de3": alg.differentials[2], "de4": alg.differentials[3]}
    for k in range(1, 4):
        for i in range(4):
            forms[f"random {k}.{i}"] = random_form(rng, 4, k, density=0.7)
    forms["mixed"] = form(4, ("34", 1)).scale(t) + form(4, ("23", F(2, 3)))
    assert exterior_derivative(alg, form(4, ("3", 1))) == form(4, ("12", 1)).scale(t)
    assert_forms_layer_matches_oracles(alg, forms, [parametric_coframe_map(4)],
                                       probe_vectors(4, rng, parametric=True), "d e3 = t*e12")


def test_forms_layer_matches_oracles_on_the_iwasawa_stub():
    rng = random.Random(23)
    forms = {f"random {k}.{i}": random_form(rng, 6, k) for k in range(1, 5) for i in range(3)}
    assert_forms_layer_matches_oracles(IWASAWA, forms, [STANDARD_J6],
                                       probe_vectors(6, rng), "iwasawa stub")


def test_d_squared_residual_of_a_non_jacobi_algebra():
    # d e2 = e34 and d e4 = e12 give d(d e2) = -e3 ^ e12 and d(d e4) = -e1 ^ e34
    alg = parse_equations("dim = 4\nd e2 = e34\nd e4 = e12\n").algebra
    for i, want in ((2, form(4, ("123", -1))), (4, form(4, ("134", -1)))):
        diff = alg.differentials[i - 1]
        assert exterior_derivative(alg, diff) == want == d_oracle(alg, diff)
    report = check_jacobi(alg)
    assert [(label, r.render()) for label, r in report.residuals] == [
        ("d^2 e2", "-e123"), ("d^2 e4", "-e134")]
    with pytest.raises(ValueError, match=r"algebra fails the Jacobi identity; d\^2 != 0"):
        ce_cohomology(alg)


def test_products_of_rationals_are_summed_as_fractions(monkeypatch):
    """Rational inputs make no Scalar product or sum and construct no Fraction
    (counted at Fraction.__new__): they are summed as ints over one
    denominator, and the result is exact.  So are the curvature and its
    covariant derivatives of a rotated sheet."""
    sf = parse_equations(rotated_file(lieforms, sun_entries(lieforms)[0], random.Random(1)))
    a, b = sf.forms["F"], sf.forms["psi_plus"]
    sheet = bismut_connection(MetricFrame(sf.algebra, sf.coframe_map), a)
    n = sf.algebra.dimension

    def refuse(*args):
        raise AssertionError("Scalar arithmetic on rational coefficients")

    fractions = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        fractions.append(args)
        return new(cls, *args, **kwargs)

    want = (wedge_oracle(a, b), d_oracle(sf.algebra, b),
            apply_coframe_map_oracle(sf.coframe_map, b), contract_oracle([1] * 8, b))
    want_curv = curvature(sheet)
    want_nabla = [nabla_matrices(sheet, want_curv, m) for m in range(1, n + 1)]
    for op in ("__add__", "__radd__", "__mul__", "__rmul__", "__neg__", "__sub__"):
        monkeypatch.setattr(Scalar, op, refuse)
    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    got = (wedge(a, b), exterior_derivative(sf.algebra, b),
           apply_coframe_map(sf.coframe_map, b), contract([1] * 8, b))
    curv = curvature(sheet)
    nabla = [nabla_matrices(sheet, curv, m) for m in range(1, n + 1)]
    monkeypatch.undo()
    assert got == want
    assert curv == want_curv and nabla == want_nabla
    assert fractions == []


def test_wedge_power_past_the_dimension_is_zero_at_once(monkeypatch):
    import lieforms.exterior as exterior

    calls = []
    real = exterior.wedge
    monkeypatch.setattr(exterior, "wedge", lambda a, b: calls.append(1) or real(a, b))
    big = parse_form_expr("e12^1000000000", 4)
    assert big == Form.zero(4, 2_000_000_000) and len(calls) <= 1
    calls.clear()
    assert parse_form_expr("e12^2", 4) == Form.zero(4, 4) and len(calls) == 1
    assert parse_form_expr("(e12 + e34)^2", 4) == form(4, ("1234", 2))
    assert parse_form_expr("e12^0", 4) == Form(4, 0, {(): Scalar.one()})


def test_sort_index_matches_the_insertion_sort_reference():
    """Every tuple of length <= 5 over 0..8, repeats, index 0 and () included."""
    tuples = [t for k in range(6) for t in itertools.product(range(9), repeat=k)]
    assert len(tuples) == 66_430
    assert [sort_index(t) for t in tuples] == [insertion_sort_index(t) for t in tuples]
    assert sort_index([3, 1, 2]) == (1, (1, 2, 3))


def test_form_sums_keep_their_checks_and_order():
    a, b = form(4, ("12", 1), ("34", 2)), form(4, ("12", -1), ("13", F(1, 2)))
    t = Scalar.t()
    for x, y in ((a, b), (b, a), (a.scale(t), b), (a, -a), (a.scale(t), a.scale(-t))):
        total = x + y
        assert total == add_oracle(x, y) and list(total.coeffs) == list(add_oracle(x, y).coeffs)
    # a sum of 0 leaves at once, so the index re-enters at the end
    assert list(Form.from_terms(4, 2, [((1, 2), 1), ((3, 4), 1), ((2, 1), 1), ((1, 2), 2)])
                .coeffs) == [(3, 4), (1, 2)]
    assert Form.from_terms(4, 2, [((2, 1), t), ((1, 1), 5), ((1, 2), F(1, 2))]) == \
        Form(4, 2, {(1, 2): Scalar.rational(F(1, 2)) - t})
    for terms, message in (([((1, 2, 3), 1)], "index (1, 2, 3) has wrong length for degree 2"),
                           ([((1, 5), 1)], "index 5 out of range 1..4"),
                           ([((0, 1), 1)], "index 0 out of range 1..4")):
        with pytest.raises(ValueError, match=re.escape(message)):
            Form.from_terms(4, 2, terms)
    for other, message in ((form(5, ("12", 1)), "forms live over different coframe dimensions"),
                           (form(4, ("123", 1)), "forms have different degrees")):
        with pytest.raises(ValueError, match=message):
            a + other
