"""Differential oracle for the scalar layer: sympy evaluates the same trees.

The trees are sums, products, inverses and rational powers of linear bases
a + b*t that are positive at every point of POINTS.  Every subexpression is
then positive there, so sympy's principal roots are real and equal to the
real roots Scalar.evaluate_float takes.  A Scalar is evaluated at the points
where each linear base of its signatures is positive too: a base split off a
positive product can be negative there, and an even root of it is outside the
supported class.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lieforms.scalars import Scalar, UnsupportedScalarError

sp = pytest.importorskip("sympy")

F = Fraction
T = sp.Symbol("t")
POINTS = (F(1, 7), F(2, 11), F(3, 13), F(4, 17))
FRACTIONAL = (F(1, 2), F(-1, 2), F(1, 3), F(2, 3), F(-2, 3), F(3, 2), F(5, 3))
POWERS = (*FRACTIONAL, F(2), F(-1), F(-2))

coefficients = st.builds(F, st.integers(-2, 6), st.integers(1, 3))
linear = st.tuples(st.just("lin"), coefficients, coefficients).filter(
    lambda leaf: all(leaf[1] + leaf[2] * p > 0 for p in POINTS))
trees = st.recursive(
    st.one_of(linear, st.tuples(st.just("pow"), linear, st.sampled_from(FRACTIONAL))),
    lambda kids: st.one_of(
        st.tuples(st.sampled_from(("add", "mul")), kids, kids),
        st.tuples(st.just("inv"), kids),
        st.tuples(st.just("pow"), kids, st.sampled_from(POWERS)),
    ),
    max_leaves=5,
)


def rational(q):
    return sp.Rational(q.numerator, q.denominator)


def build(tree):
    """The tree as a Scalar and as a sympy expression."""
    op = tree[0]
    if op == "lin":
        return Scalar.linear(tree[1], tree[2]), rational(tree[1]) + rational(tree[2]) * T
    if op == "inv":
        x, ex = build(tree[1])
        return x.inverse(), 1 / ex
    if op == "pow":
        x, ex = build(tree[1])
        return x.rational_power(tree[2]), ex ** rational(tree[2])
    (x, ex), (y, ey) = build(tree[1]), build(tree[2])
    return (x + y, ex + ey) if op == "add" else (x * y, ex * ey)


def rewrite(tree):
    """An equal tree whose radical exponents are carried another way: operands
    swapped, 1/x as x/x^2, and x^r as x^(r-1)*x or, for a fractional r, as
    x^(r+1)/x."""
    op = tree[0]
    if op == "lin":
        return tree
    x = rewrite(tree[1])
    if op == "inv":
        return ("mul", ("inv", ("mul", x, x)), x)
    if op == "pow":
        r = tree[2]
        if r.denominator == 1:
            return ("mul", ("pow", x, r - 1), x)
        return ("mul", ("pow", x, r + 1), ("inv", x))
    return (op, rewrite(tree[2]), x)


def value(expr, t0):
    return float(expr.evalf(20, subs={T: rational(t0)}))


def points(s):
    return [p for p in POINTS
            if all(a + b * p > 0 for sig, _ in s.terms() for (kind, a, b), _ in sig
                   if kind == "lin")]


def close(got, want):
    assert got == pytest.approx(want, rel=1e-9, abs=1e-12)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(trees)
def test_scalar_operations_match_sympy(tree):
    try:
        s, expr = build(tree)
    except UnsupportedScalarError:
        return  # a power or an inverse of a sum of signatures
    ds, dexpr = s.diff(), sp.diff(expr, T)
    for t0 in points(s):
        close(s.evaluate_float(t0), value(expr, t0))
        close(ds.evaluate_float(t0), value(dexpr, t0))


@st.composite
def tree_pairs(draw):
    x = draw(trees)
    return x, draw(st.one_of(trees, st.just(rewrite(x))))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(tree_pairs())
def test_is_zero_matches_sympy(pair):
    try:
        (x, ex), (y, ey) = build(pair[0]), build(pair[1])
    except UnsupportedScalarError:
        return
    z = x - y
    gaps = []
    for t0 in POINTS:
        vx, vy = value(ex, t0), value(ey, t0)
        gaps.append(abs(vx - vy) > 1e-9 * (1 + abs(vx) + abs(vy)))
    assert z.is_zero() == (not any(gaps))
    for t0 in points(z):
        close(z.evaluate_float(t0), value(ex - ey, t0))
