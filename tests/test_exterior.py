import itertools
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from lieforms.exterior import (
    CoframeMap,
    Form,
    apply_coframe_map,
    contract,
    exterior_derivative,
    partial_t,
    span_rank,
    wedge,
    wedge_power,
)
from lieforms.scalars import Scalar, UnsupportedScalarError, var_t

F = Fraction


def form(dim, *terms):
    """terms are (indices-string, coeff) pairs, e.g. ("12", 1)."""
    return Form.from_terms(
        dim, len(terms[0][0]),
        [([int(c) for c in idx], coeff) for idx, coeff in terms],
    )


def algebra_stub(dim, diffs):
    """diffs maps generator index -> degree-2 Form."""
    fulls = [diffs.get(i, Form.zero(dim, 2)) for i in range(1, dim + 1)]
    return SimpleNamespace(dimension=dim, differentials=fulls)


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
    t = var_t()
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
        span_rank([Form.generator(3, 1).scale(var_t()), Form.generator(3, 2)])


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
    t = var_t()
    h = Form.generator(5, 1).scale(-t) + form(5, ("2", F(1, 2)))
    assert h.render() == "-t*e1 + 1/2*e2"
