import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lieforms import scalars as sc
from lieforms.algebras import ParseError, parse_equations, parse_scalar_expr
from lieforms.catalog import get_entry
from lieforms.scalars import Scalar, ScalarDomainError, UnsupportedScalarError
from perfbench.workloads import FAMILY_ENTRIES, shift_payload

F = Fraction


def cube_root_base(r=F(1, 3)):
    # ((2 - 3t)/2)^r
    return Scalar.linear(F(1), F(-3, 2)).rational_power(r)


def test_rational_addition():
    assert Scalar.rational(F(1, 2)) + Scalar.rational(F(1, 2)) == Scalar.one()


def test_rational_pair_takes_a_positive_denominator():
    for q, d in ((1, -2), (-1, 2), (3, -6), (-4, -8)):
        s = Scalar.rational(q, d)
        assert_canonical(s)
        assert s == Scalar.rational(F(q, d)), (q, d)


def test_rational_pair_rejects_a_zero_denominator():
    for q in (1, 0):
        with pytest.raises(ZeroDivisionError):
            Scalar.rational(q, 0)


def test_radical_exponents_cancel():
    u = cube_root_base(F(1, 3))
    v = cube_root_base(F(-1, 3))
    assert u * v == Scalar.one()


def test_polynomial_expansion_is_canonical():
    t = Scalar.t()
    lhs = t * Scalar.linear(2, -1) * Scalar.linear(-4, 1) / 4
    # t*(2-t)*(t-4)/4 expanded by hand: (-t^3 + 6t^2 - 8t)/4
    rhs = (-(t**3) + 6 * t**2 - 8 * t) / 4
    assert lhs == rhs
    assert t * Scalar.linear(2, -1) == 2 * t - t**2


def test_diff_power_rule():
    t = Scalar.t()
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
    t = Scalar.t()
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
    assert not prod.diff().is_zero()


def test_rational_value_is_the_one_rational_test():
    root2 = Scalar.rational(2).rational_power(F(1, 2))
    cases = [(Scalar.zero(), F(0)), (Scalar.rational(F(-3, 4)), F(-3, 4)),
             (root2 * root2, F(2)), (Scalar.t(), None), (1 / Scalar.t(), None),
             (root2, None), (1 + root2, None)]
    for x, want in cases:
        assert x.rational_value() == want and type(x.rational_value()) is type(want)
        assert x.is_rational() is (want is not None)
        if want is None:
            with pytest.raises(UnsupportedScalarError, match="not a rational constant"):
                x.as_fraction()
        else:
            assert x.as_fraction() == want


def test_eval_examples():
    t = Scalar.t()
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
    # so is a point where a value leaves the float range: t^2 overflows as a
    # quotient, t * 2^(1/2) as a product
    for x in (Scalar.t() ** 2, Scalar.t() * Scalar.rational(2).rational_power(F(1, 2))):
        with pytest.raises(ScalarDomainError, match="outside the float range at t = 15000"):
            x.evaluate_float(15 * 10**307)


def test_division_by_polynomial_scalar():
    t = Scalar.t()
    q = Scalar.linear(2, -1) ** 2 / 4
    assert (q / q) == Scalar.one()
    expr = Scalar.linear(2, -1) * t
    assert expr / Scalar.linear(2, -1) == t


def test_division_by_multi_term_scalar_unsupported():
    t = Scalar.t()
    sqrt3 = Scalar.rational(3).rational_power(F(1, 2))
    with pytest.raises(UnsupportedScalarError):
        (t / (Scalar.one() + sqrt3))


def test_sqrt_of_sum_unsupported():
    t = Scalar.t()
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
        Scalar.t() / 0


def test_constant_radical_arithmetic():
    sqrt3 = Scalar.rational(3).rational_power(F(1, 2))
    assert sqrt3 * sqrt3 == Scalar.rational(3)
    third = Scalar.rational(F(1, 2)).rational_power(F(1, 3))
    assert third**3 == Scalar.rational(F(1, 2))


def test_render_deterministic():
    u = cube_root_base()
    t = Scalar.t()
    s = u * t - Scalar.rational(F(1, 2))
    assert s.render() == "-1/2 + 1/2*t*(2-3*t)^(1/3)*2^(2/3)"
    assert Scalar.zero().render() == "0"


def test_render_round_trip_stability():
    a = Scalar.linear(2, -1).rational_power(F(-1, 1))
    assert a.render() == "(2-t)^(-1)"


def test_central_difference_at_twenty_sample_points():
    t = Scalar.t()
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
    t = Scalar.t()
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


# -- pow and the int polynomial layer -----------------------------------------

def test_power_by_repeated_squaring(monkeypatch):
    t = Scalar.t()
    assert t**2000 == t**1000 * t**1000
    assert Scalar.linear(2, -1) ** 5 == Scalar.linear(2, -1) ** 2 * Scalar.linear(2, -1) ** 3
    assert t**0 == Scalar.one() and t**-3 * t**3 == Scalar.one()
    calls = []
    mul = Scalar.__mul__

    def counting(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(Scalar, "__mul__", counting)
    x = Scalar.linear(1, F(-3, 2))
    for k in (1, 2, 3, 7, 8, 100, 255, 256, 1000):
        calls.clear()
        x.__pow__(k)
        assert len(calls) <= 2 * math.ceil(math.log2(k)) + 1, k


def test_base_powers_by_repeated_squaring(monkeypatch):
    x = Scalar.linear(1, 1)
    x1000 = x**1000
    assert x.rational_power(F(3001, 3)) == x1000 * x.rational_power(F(1, 3))
    assert (x**-1000).inverse() == x1000
    y = Scalar.linear(2, -1)
    assert y**-3 + y**-5 == (y**2 + 1) / y**5
    calls = []
    mul = sc.poly_mul
    monkeypatch.setattr(sc, "poly_mul", lambda p, q: calls.append(1) or mul(p, q))
    for k in (1, 2, 3, 7, 8, 100, 255, 256):
        bound = 2 * math.ceil(math.log2(k)) + 2
        calls.clear()
        x.rational_power(F(3 * k + 1, 3))  # rf_mul_base by (1 + t)^k
        assert len(calls) <= bound, k
        inv = x**-k
        calls.clear()
        inv.inverse()  # rf_inverse expands the denominator (1 + t)^k
        assert len(calls) <= bound, k


def test_linear_polynomials_are_factored_without_candidates(monkeypatch):
    calls = []
    hom = sc.poly_eval_hom
    monkeypatch.setattr(sc, "poly_eval_hom", lambda *a: calls.append(a) or hom(*a))
    assert sc.factor_poly_linear((6, -4)) == (2, {(3, -2): 1}) and not calls
    assert sc.factor_poly_linear((0, 5)) == (5, {(0, 1): 1}) and not calls
    assert sc.factor_poly_linear((-6, 1, 1)) == (-1, {(3, 1): 1, (2, -1): 1})
    assert calls
    with pytest.raises(UnsupportedScalarError):
        sc.factor_poly_linear((1, 0, 1))


def test_ring_operations_construct_no_fraction(monkeypatch):
    """+, -, *, d/dt, powers and inverses of the families' scalars run on int
    pairs: no Fraction is constructed (counted at Fraction.__new__)."""
    family_scalars = [parse_scalar_expr(e) for e in (
        "((2-3*t)/2)^(1/3)", "(2/(2-t))", "(t*(2-t)*(t-4)/4)", "3/7", "2^(1/3)", "t")]
    calls = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        calls.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    for x in family_scalars:
        x.diff(), x**3, x.inverse(), -x, 2 * x, x + 1
        for y in family_scalars:
            x * y, x + y, x - y, (x + y) * (x - y)
    assert calls == []


# -- rf_oracle: the Fraction-coefficient Poly/RF layer that the int layer
# replaced, with the Scalar operations built on it -----------------------------

def o_norm(coeffs):
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def o_add(p, q):
    if len(p) < len(q):
        p, q = q, p
    out = list(p)
    for i, c in enumerate(q):
        out[i] += c
    return o_norm(out)


def o_scale(p, c):
    return () if c == 0 else tuple(x * c for x in p)


def o_mul(p, q):
    if not p or not q:
        return ()
    out = [F(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return o_norm(out)


def o_divmod(p, q):
    rem = list(p)
    quo = [F(0)] * max(0, len(p) - len(q) + 1)
    for k in range(len(rem) - len(q), -1, -1):
        c = rem[k + len(q) - 1] / q[-1]
        if c:
            quo[k] = c
            for j, b in enumerate(q):
                rem[k + j] -= c * b
    return o_norm(quo), o_norm(rem)


def o_eval(p, x):
    acc = F(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def o_content(p):
    num, den = 0, 1
    for c in p:
        num, den = math.gcd(num, abs(c.numerator)), math.lcm(den, c.denominator)
    return F(num, den)


def o_base(base):
    return o_norm((F(base[0]), F(base[1])))


def o_normalize_linear(a, b):
    content = o_content(o_norm((a, b)))
    a0, b0 = int(a / content), int(b / content)
    if (a0 if a0 else b0) < 0:
        return (-a0, -b0), content, -1
    return (a0, b0), content, 1


def o_rational_root(p):
    if p[0] == 0:
        return F(0)
    for s in sc._divisors(abs(int(p[-1]))):
        for r in sc._divisors(abs(int(p[0]))):
            for cand in (F(r, s), F(-r, s)):
                if o_eval(p, cand) == 0:
                    return cand
    return None


def o_factor(p):
    content = o_content(p)
    work = o_scale(p, 1 / content)
    if work[-1] < 0:
        work, content = o_scale(work, F(-1)), -content
    factors = {}
    while len(work) > 1:
        root = o_rational_root(work)
        if root is None:
            raise UnsupportedScalarError("irreducible non-linear factor")
        base, c, sign = o_normalize_linear(-root, F(1))
        work, rem = o_divmod(work, o_scale(o_base(base), sign * c))
        assert not rem
        factors[base] = factors.get(base, 0) + 1
        content *= sign * c
    return content * work[0], factors


def o_rf(num, den):
    """num / prod(base^m) reduced: (Fraction poly, sorted den) or None for 0."""
    if not num:
        return None
    den = dict(den)
    for base in sorted(den):
        while den[base] > 0:
            quo, rem = o_divmod(num, o_base(base))
            if rem:
                break
            num, den[base] = quo, den[base] - 1
    return num, tuple(sorted((b, m) for b, m in den.items() if m))


def o_rf_add(x, y):
    if x is None or y is None:
        return y if x is None else x
    dx, dy = dict(x[1]), dict(y[1])
    union = {b: max(dx.get(b, 0), dy.get(b, 0)) for b in {*dx, *dy}}
    nx, ny = x[0], y[0]
    for b, m in union.items():
        for _ in range(m - dx.get(b, 0)):
            nx = o_mul(nx, o_base(b))
        for _ in range(m - dy.get(b, 0)):
            ny = o_mul(ny, o_base(b))
    return o_rf(o_add(nx, ny), union)


def o_rf_mul(x, y):
    den = dict(x[1])
    for b, m in y[1]:
        den[b] = den.get(b, 0) + m
    return o_rf(o_mul(x[0], y[0]), den)


def o_rf_mul_base(x, base, power):
    den, num = dict(x[1]), x[0]
    if power > 0:
        for _ in range(power):
            num = o_mul(num, o_base(base))
    else:
        den[base] = den.get(base, 0) - power
    return o_rf(num, den)


def o_rf_eval(x, t0):
    val = o_eval(x[0], t0)
    for base, m in x[1]:
        bval = o_eval(o_base(base), t0)
        if bval == 0:
            raise ScalarDomainError(f"pole at t = {t0}")
        val /= bval**m
    return val


def o_primes(n):
    out, d = {}, 2
    while d * d <= n:
        while n % d == 0:
            out[d], n = out.get(d, 0) + 1, n // d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def o_content_power(content, r):
    """content ** r as a rational coefficient times prime radicals in (0, 1)."""
    sign = 1
    if content < 0:
        if r.denominator % 2 == 0:
            raise UnsupportedScalarError("even root of a negative constant")
        sign, content = (-1 if r.numerator % 2 else 1), -content
    primes = {}
    for n, e in ((content.numerator, r), (content.denominator, -r)):
        for p, m in o_primes(n).items():
            primes[p] = primes.get(p, F(0)) + m * e
    coeff, rad = F(sign), {}
    for p, exp in primes.items():
        whole = math.floor(exp)
        coeff *= F(p) ** whole
        if exp - whole:
            rad[("prime", p, 0)] = exp - whole
    return coeff, rad


class OracleScalar:
    """A Scalar's terms as {signature: (Fraction poly, den)}."""

    def __init__(self, terms):
        self.terms = {sig: rf for sig, rf in terms.items() if rf is not None}

    def __add__(self, other):
        out = dict(self.terms)
        for sig, rf in other.terms.items():
            out[sig] = o_rf_add(out.get(sig), rf)
        return OracleScalar(out)

    def __mul__(self, other):
        out = {}
        for sig1, rf1 in self.terms.items():
            for sig2, rf2 in other.terms.items():
                rf = o_rf_mul(rf1, rf2)
                exps = dict(sig1)
                for key, exp in sig2:
                    exps[key] = exps.get(key, F(0)) + exp
                sig = {}
                for (kind, a, b), exp in exps.items():
                    if exp >= 1:
                        rf = (o_rf_mul_base(rf, (a, b), 1) if kind == "lin"
                              else (o_scale(rf[0], F(a)), rf[1]))
                        exp -= 1
                    if exp:
                        sig[(kind, a, b)] = exp
                key = tuple(sorted(sig.items()))
                out[key] = o_rf_add(out.get(key), rf)
        return OracleScalar(out)

    def single(self):
        if not self.terms:
            raise ZeroDivisionError("scalar division by zero")
        if len(self.terms) != 1:
            raise UnsupportedScalarError("more than one radical signature")
        return next(iter(self.terms.items()))

    def inverse(self):
        sig, (num, den) = self.single()
        content, factors = o_factor(num)
        inv = (tuple([1 / content]), ())
        for b, m in den:
            inv = o_rf_mul_base(inv, b, m)
        for b, m in factors.items():
            inv = o_rf_mul_base(inv, b, -m)
        out_sig = {}
        for (kind, a, b), exp in sig:
            inv = (o_rf_mul_base(inv, (a, b), -1) if kind == "lin"
                   else (o_scale(inv[0], F(1, a)), inv[1]))
            out_sig[(kind, a, b)] = 1 - exp
        return OracleScalar({tuple(sorted(out_sig.items())): inv})

    def rational_power(self, r):
        if r.denominator == 1:
            out = OracleScalar({(): ((F(1),), ())})
            base = self if r > 0 else self.inverse()
            for _ in range(abs(int(r))):
                out = out * base
            return out
        sig, (num, den) = self.single()
        exps = {key: exp * r for key, exp in sig}
        content, factors = o_factor(num)
        for base, m in den:
            factors[base] = factors.get(base, 0) - m
        for (a, b), m in factors.items():
            exps[("lin", a, b)] = exps.get(("lin", a, b), F(0)) + m * r
        coeff, rad = o_content_power(content, r)
        for key, exp in rad.items():
            exps[key] = exps.get(key, F(0)) + exp
        rf, out_sig = ((coeff,), ()), {}
        for (kind, a, b), exp in exps.items():
            whole = math.floor(exp)
            rf = (o_rf_mul_base(rf, (a, b), whole) if kind == "lin"
                  else (o_scale(rf[0], F(a) ** whole), rf[1]))
            if exp - whole:
                out_sig[(kind, a, b)] = exp - whole
        return OracleScalar({tuple(sorted(out_sig.items())): rf})

    def render(self):
        monomials = []
        for sig, (num, den) in self.terms.items():
            factors = [(kind, a, b, exp) for (kind, a, b), exp in sig]
            factors += [("lin", a, b, F(-m)) for (a, b), m in den]
            monomials += [(k, tuple(sorted(factors)), c) for k, c in enumerate(num) if c]
        parts = []
        for k, factors, coeff in sorted(monomials, key=lambda m: m[:2]):
            body = ["t"] if k == 1 else [f"t^{k}"] if k > 1 else []
            for kind, a, b, exp in factors:
                base = str(a) if kind == "prime" else sc._render_linear(a, b)
                body.append(f"{base}^({exp})")
            if abs(coeff) != 1 or not body:
                body.insert(0, str(abs(coeff)))
            text = "*".join(body)
            sign = "" if coeff > 0 else "-"
            parts.append(f"{sign}{text}" if not parts else f"{'+' if coeff > 0 else '-'} {text}")
        return " ".join(parts) or "0"

    def evaluate_float(self, t0):
        total = 0.0
        for sig, rf in self.terms.items():
            val = float(o_rf_eval(rf, t0))
            for (kind, a, b), exp in sig:
                bval = F(a) if kind == "prime" else o_eval(o_base((a, b)), t0)
                if bval < 0 and exp.denominator % 2 == 0:
                    raise ScalarDomainError("negative base under an even root")
                sign = -1.0 if bval < 0 and exp.numerator % 2 else 1.0
                val *= sign * float(abs(bval)) ** float(exp)
            total += val
        return total


def rf_oracle(tree):
    """Evaluate an expression tree on the Fraction-coefficient layer."""
    op = tree[0]
    if op == "lin":
        return OracleScalar({(): o_rf(o_norm((tree[1], tree[2])), {})})
    if op == "inv":
        return rf_oracle(tree[1]).inverse()
    if op == "pow":
        return rf_oracle(tree[1]).rational_power(tree[2])
    if op == "scale":
        return rf_oracle(("mul", tree[1], ("lin", F(tree[2]), F(0))))
    x, y = rf_oracle(tree[1]), rf_oracle(tree[2])
    return x + y if op == "add" else x * y


def rf_oracle_from(s):
    """A Scalar re-reduced on the Fraction-coefficient layer, term by term."""
    out = {}
    for sig, rf in s.terms():
        out[sig] = o_rf(tuple(Fraction(rf.n, rf.d) * k for k in rf.num), dict(rf.den))
    return OracleScalar(out)


def evaluate(tree):
    op = tree[0]
    if op == "lin":
        return Scalar.linear(tree[1], tree[2])
    if op == "inv":
        return evaluate(tree[1]).inverse()
    if op == "pow":
        return evaluate(tree[1]).rational_power(tree[2])
    if op == "scale":  # by a Python int
        return evaluate(tree[1]) * tree[2]
    x, y = evaluate(tree[1]), evaluate(tree[2])
    return x + y if op == "add" else x * y


def outcome(build, tree):
    try:
        return build(tree)
    except (ZeroDivisionError, UnsupportedScalarError) as exc:
        return type(exc)


def assert_canonical(s):
    for sig, rf in s._terms.items():
        # contents and exponents are reduced int pairs: n/d with d > 0, p/q in (0, 1)
        assert type(rf.n) is int and type(rf.d) is int and rf.d > 0 and math.gcd(rf.n, rf.d) == 1
        for _, (p, q) in sig:
            assert type(p) is int and type(q) is int and 0 < p < q and math.gcd(p, q) == 1
    for sig, rf in s.terms():
        keys = [key for key, _ in sig]
        assert keys == sorted(set(keys))
        assert all(0 < exp < 1 for _, exp in sig)
        assert Fraction(rf.n, rf.d) and rf.num[-1] > 0 and math.gcd(*rf.num) == 1
        assert all(isinstance(k, int) for k in rf.num)
        assert all(sc.poly_div_base(rf.num, b) is None for b, _ in rf.den)


POINTS = (F(-7, 3), F(-1, 5), F(1, 9), F(2, 7), F(4, 3), F(11, 2))


def assert_matches_oracle(s, oracle):
    assert_canonical(s)
    assert s.render() == oracle.render()
    evaluated = 0
    for t0 in POINTS:
        try:
            want = oracle.evaluate_float(t0)
        except ScalarDomainError:
            with pytest.raises(ScalarDomainError):
                s.evaluate_float(t0)
            continue
        assert s.evaluate_float(t0) == pytest.approx(want, rel=1e-9, abs=1e-12)
        evaluated += 1
    return evaluated


linear_bases = st.tuples(st.just("lin"), rationals, rationals).filter(lambda x: x[1] or x[2])
rf_trees = st.recursive(
    linear_bases,
    lambda kids: st.one_of(
        st.tuples(st.sampled_from(("add", "mul")), kids, kids),
        st.tuples(st.just("inv"), kids),
        st.tuples(st.just("pow"), kids,
                  st.sampled_from([F(2), F(-1), F(3), F(1, 3), F(-2, 3), F(1, 2), F(5, 2)])),
        st.tuples(st.just("scale"), kids, st.sampled_from([1, -1, 2, -3, 12])),
    ),
    max_leaves=6,
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(rf_trees)
def test_int_layer_matches_rf_oracle(tree):
    got, want = outcome(evaluate, tree), outcome(rf_oracle, tree)
    if isinstance(want, type):
        assert got is want
        return
    assert_matches_oracle(got, want)


def test_shifted_family_coefficients_match_rf_oracle():
    evaluated = 0
    for name in FAMILY_ENTRIES:
        for s in (F(1, 3), F(-5, 2), F(5, 7)):
            sf = parse_equations(shift_payload(get_entry(name).payload, s))
            forms = [*sf.algebra.differentials, *sf.family.forms.values()]
            for c in (c for f in forms for c in f.coeffs.values()):
                evaluated += assert_matches_oracle(c, rf_oracle_from(c))
    assert evaluated > 500


# inverses of powers of linear bases whose constant terms have many divisors;
# trial division up to the square root of 3^36 took more than a minute
HIGH_POWERS = {
    "1/(t-3)^30": ("inv", ("pow", ("lin", F(-3), F(1)), F(30))),
    "1/(t-3)^36": ("inv", ("pow", ("lin", F(-3), F(1)), F(36))),
    "1/((t+1)^40*(2*t-3)^40)": ("inv", ("mul", ("pow", ("lin", F(1), F(1)), F(40)),
                                        ("pow", ("lin", F(-3), F(2)), F(40)))),
}


def test_rational_roots_of_high_powers_are_found_from_prime_powers():
    assert sc._divisors(1) == [1]
    assert sc._divisors(360) == [d for d in range(1, 361) if 360 % d == 0]
    start = time.perf_counter()
    parsed = {expr: parse_scalar_expr(expr) for expr in HIGH_POWERS}
    assert time.perf_counter() - start < 1.0
    for expr, tree in HIGH_POWERS.items():
        assert assert_matches_oracle(parsed[expr], rf_oracle(tree)) > 0, expr


def test_one_root_search_per_distinct_root(monkeypatch):
    calls = []
    search = sc._root_base
    monkeypatch.setattr(sc, "_root_base", lambda p: calls.append(p) or search(p))
    for expr, roots in zip([*HIGH_POWERS, "1/((t+1)^3*(t-2)^2*(3*t+5)^4)"], (1, 1, 2, 3)):
        calls.clear()
        parse_scalar_expr(expr)
        assert len(calls) == roots, expr


def test_trial_division_stops_at_its_bound():
    """A constant with a large prime factor is a parse error at its operator in
    a fraction of a second; trial division to its square root took 0.8 s."""
    assert sc.MAX_TRIAL_DIVISOR == 10**6
    for expr, col in (("1/((t-99999999999973)*(t-2))", 2), ("(99999999999973)^(1/2)", 17)):
        start = time.perf_counter()
        with pytest.raises(ParseError, match=f"line 1, column {col}: cannot factor"):
            parse_scalar_expr(expr)
        assert time.perf_counter() - start < 0.5, expr
    assert sc.factor_int(999983 * 999979) == {999979: 1, 999983: 1}
    half = F(1, 2)
    assert parse_scalar_expr("(999983*999979)^(1/2)") == (
        Scalar.rational(999983).rational_power(half) * Scalar.rational(999979).rational_power(half))


def test_domain_error_renders_the_base_as_the_scalar_does():
    with pytest.raises(ScalarDomainError) as exc:
        parse_scalar_expr("(1-t)^(1/2)").evaluate_float(3)
    assert str(exc.value) == ("negative base (1-t) at t = 3 under an even-denominator "
                              "exponent 1/2")
