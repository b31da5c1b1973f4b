from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lieforms.scalars import (
    Scalar,
    ScalarDomainError,
    UnsupportedScalarError,
    var_t,
)

F = Fraction


def cube_root_base(r=F(1, 3)):
    # ((2 - 3t)/2)^r
    return Scalar.linear(F(1), F(-3, 2)).rational_power(r)


def test_rational_addition():
    assert Scalar.rational(F(1, 2)) + Scalar.rational(F(1, 2)) == Scalar.one()


def test_radical_exponents_cancel():
    u = cube_root_base(F(1, 3))
    v = cube_root_base(F(-1, 3))
    assert u * v == Scalar.one()


def test_polynomial_expansion_is_canonical():
    t = var_t()
    lhs = t * Scalar.linear(2, -1) * Scalar.linear(-4, 1) / 4
    # t*(2-t)*(t-4)/4 expanded by hand: (-t^3 + 6t^2 - 8t)/4
    rhs = (-(t**3) + 6 * t**2 - 8 * t) / 4
    assert lhs == rhs
    assert t * Scalar.linear(2, -1) == 2 * t - t**2


def test_diff_power_rule():
    t = var_t()
    assert (t**2).diff() == 2 * t
    assert Scalar.rational(7).diff().is_zero()


def test_diff_cube_root_chain_rule():
    u = cube_root_base(F(1, 3))
    expected = Scalar.rational(F(-1, 2)) * cube_root_base(F(-2, 3))
    assert u.diff() == expected
    # numeric cross-check by central difference at t = 0
    h = F(1, 10**6)
    numeric = (u.evaluate_float(h) - u.evaluate_float(-h)) / (2 * float(h))
    exact = u.diff().evaluate_float(0)
    assert abs(numeric - exact) <= 1e-6 * (1 + abs(exact))


def test_is_zero_by_cancellation():
    u = cube_root_base(F(1, 3))
    t = var_t()
    assert (u - u).is_zero()
    assert (t**2 - t * t).is_zero()
    assert not (t - Scalar.linear(2, -1)).is_zero()


def test_mixed_content_radicals_cancel_to_rational():
    # ((2-3t)/4)^(1/2) * (2-3t)^(-1/2) = 1/2 exactly
    a = Scalar.linear(F(1, 2), F(-3, 4)).rational_power(F(1, 2))
    b = Scalar.linear(2, -3).rational_power(F(-1, 2))
    assert a * b == Scalar.rational(F(1, 2))


def test_integer_power_of_base_expands_into_polynomial():
    u = Scalar.linear(F(1), F(-3, 2))
    prod = u.rational_power(F(4, 3)) * u.rational_power(F(-1, 3))
    assert prod == u
    assert prod.is_rational() is False
    assert prod.depends_on_t()


def test_eval_examples():
    t = var_t()
    assert (t**2).evaluate_float(3) == pytest.approx(9.0)
    assert cube_root_base().evaluate_float(0) == pytest.approx(1.0)
    assert (2 * cube_root_base()).evaluate_float(F(2, 3)) == pytest.approx(0.0)


def test_eval_domain_error_for_even_roots_of_negative():
    sq = Scalar.linear(2, -3).rational_power(F(1, 2))
    with pytest.raises(ScalarDomainError):
        sq.evaluate_float(1)  # 2 - 3t < 0 there
    # odd denominators take the real root instead
    cb = Scalar.linear(2, -3).rational_power(F(1, 3))
    assert cb.evaluate_float(1) == pytest.approx(-1.0)


def test_division_by_polynomial_scalar():
    t = var_t()
    q = Scalar.linear(2, -1) ** 2 / 4
    assert (q / q) == Scalar.one()
    expr = Scalar.linear(2, -1) * t
    assert expr / Scalar.linear(2, -1) == t


def test_division_by_multi_term_scalar_unsupported():
    t = var_t()
    sqrt3 = Scalar.rational(3).rational_power(F(1, 2))
    with pytest.raises(UnsupportedScalarError):
        (t / (Scalar.one() + sqrt3))


def test_sqrt_of_sum_unsupported():
    t = var_t()
    with pytest.raises(UnsupportedScalarError):
        (Scalar.one() + t**2).rational_power(F(1, 2))


def test_even_root_of_negative_oriented_base_unsupported():
    with pytest.raises(UnsupportedScalarError):
        Scalar.linear(-2, 3).rational_power(F(1, 2))
    # odd roots absorb the sign instead
    odd = Scalar.linear(-2, 3).rational_power(F(1, 3))
    assert odd == -Scalar.linear(2, -3).rational_power(F(1, 3))


def test_division_by_zero_scalar():
    with pytest.raises(ZeroDivisionError):
        Scalar.one() / Scalar.zero()
    with pytest.raises(ZeroDivisionError):
        var_t() / 0


def test_constant_radical_arithmetic():
    sqrt3 = Scalar.rational(3).rational_power(F(1, 2))
    assert sqrt3 * sqrt3 == Scalar.rational(3)
    third = Scalar.rational(F(1, 2)).rational_power(F(1, 3))
    assert third**3 == Scalar.rational(F(1, 2))


def test_render_deterministic():
    u = cube_root_base()
    t = var_t()
    s = u * t - Scalar.rational(F(1, 2))
    assert s.render() == "-1/2 + 1/2*t*(2-3*t)^(1/3)*2^(2/3)"
    assert Scalar.zero().render() == "0"


def test_render_round_trip_stability():
    a = Scalar.linear(2, -1).rational_power(F(-1, 1))
    assert a.render() == "(2-t)^(-1)"


def test_central_difference_at_twenty_sample_points():
    t = var_t()
    a = cube_root_base() * (t**2 - 3) + Scalar.linear(2, -1).rational_power(F(-1))
    da = a.diff()
    h = F(1, 10**6)
    for k in range(20):
        t0 = F(-3, 7) + F(k, 23)  # inside the domain of both radicals
        numeric = (a.evaluate_float(t0 + h) - a.evaluate_float(t0 - h)) / (2 * float(h))
        exact = da.evaluate_float(t0)
        assert abs(numeric - exact) <= 1e-6 * (1 + abs(a.evaluate_float(t0)))


# -- randomized algebraic laws ------------------------------------------------

rationals = st.builds(
    F,
    st.integers(min_value=-12, max_value=12),
    st.integers(min_value=1, max_value=6),
)


@st.composite
def scalars(draw):
    t = var_t()
    kind = draw(st.integers(min_value=0, max_value=3))
    q = draw(rationals)
    base = Scalar.rational(q)
    if kind == 0:
        return base
    if kind == 1:
        return base + draw(rationals) * t + draw(rationals) * t**2
    if kind == 2:
        r = draw(st.sampled_from([F(1, 3), F(2, 3), F(-1, 3), F(1, 2)]))
        return base * Scalar.linear(1, F(-3, 2)).rational_power(r)
    return base * Scalar.linear(2, -1).rational_power(F(-1)) + draw(rationals)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(scalars(), scalars())
def test_leibniz_rule(a, b):
    assert (a * b).diff() == a.diff() * b + a * b.diff()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(scalars(), scalars(), scalars())
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert (a + b) - b == a


@settings(max_examples=40, deadline=None, derandomize=True)
@given(scalars(), rationals)
def test_round_trip_multiplicative(a, q):
    if q == 0:
        q = F(1)
    b = Scalar.rational(q) * Scalar.linear(1, F(-3, 2)).rational_power(F(1, 3))
    assert (a * b) / b == a


@settings(max_examples=40, deadline=None, derandomize=True)
@given(scalars())
def test_diff_matches_central_difference(a):
    t0 = F(1, 7)  # inside the domain of every generated radical
    h = F(1, 10**6)
    try:
        numeric = (a.evaluate_float(t0 + h) - a.evaluate_float(t0 - h)) / (2 * float(h))
        exact = a.diff().evaluate_float(t0)
    except ScalarDomainError:
        return
    scale = 1 + abs(a.evaluate_float(t0))
    assert abs(numeric - exact) <= 1e-5 * scale


@settings(max_examples=40, deadline=None, derandomize=True)
@given(scalars())
def test_zero_scalar_evaluates_to_zero(a):
    z = a - a
    assert z.is_zero()
    for t0 in (F(0), F(1, 3), F(-2)):
        assert z.evaluate_float(t0) == 0.0
