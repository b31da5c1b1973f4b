"""Exact coefficient arithmetic: rationals plus radical expressions in one parameter t.

A Scalar is a finite sum of terms

    n/d * num(t) / prod_j L_j(t) ** m_j  *  prod_i B_i ** (p_i/q_i)

The rational function in front is one RF(n, d, num, den): n/d a nonzero
reduced int pair with d > 0, num a primitive integer polynomial with positive
leading coefficient, and den the canonical linear bases L_j (primitive integer
a + b*t, first nonzero entry positive) with their multiplicities, none of
which divides num.  So every operation runs on ints: contents by Henrici's
cross gcds (Knuth, TAOCP vol. 2, 4.5.1), and polynomial products, exact
division by a linear base (integral by Gauss's lemma) and the rational-root
search, by homogeneous Horner.  Fraction appears only at the boundary
(rational_value, render, messages).  Each radical factor pairs a canonical
base B (a linear base or a prime integer) with an exponent p/q, a reduced int
pair with 0 < p < q; _carry is the one place that rule lives, and every
product of radicals, inverse and rational power ends in it.  Terms are merged
by radical signature (_merge), so equality and zero-testing are exact:
distinct signatures are linearly independent over the rational functions,
hence a Scalar is zero if and only if it has no terms.

The class is closed under +, -, *, d/dt and integer powers, and under
division by any Scalar with a single radical signature.  Expressions that
would leave the class (square roots of sums, non-linear irreducible
denominators, even roots of negative factors) raise UnsupportedScalarError
instead of being approximated.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator, NamedTuple


class UnsupportedScalarError(ValueError):
    """The requested operation leaves the supported expression class."""


class ScalarDomainError(ValueError):
    """Evaluation at a point outside the real domain of an expression."""


# ---------------------------------------------------------------------------
# Dense univariate polynomials over int: tuple of coefficients by ascending
# power, with no trailing zeros.  () is the zero polynomial.
# ---------------------------------------------------------------------------

Poly = tuple[int, ...]

POLY_ONE: Poly = (1,)


def poly_mul(p: Poly, q: Poly) -> Poly:
    if len(p) == 1:
        return q if p[0] == 1 else tuple(p[0] * x for x in q)
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return tuple(out)


def poly_mul_pow(q: Poly, p: Poly, k: int) -> Poly:
    """q * p**k for k >= 0, multiplying q by the squares p**(2**i) of k's bits."""
    while k:
        if k & 1:
            q = poly_mul(p, q)
        k >>= 1
        if k:
            p = poly_mul(p, p)
    return q


def poly_eval_hom(p: Poly, r: int, s: int) -> int:
    """s**deg(p) * p(r/s), by Horner's rule in integers."""
    acc, spow = 0, 1
    for c in reversed(p):
        acc = acc * r + c * spow
        spow *= s
    return acc


# A canonical linear base is a primitive integer pair (a, b) with b != 0,
# meaning a + b*t, with the first nonzero entry positive.  It is also its own
# Poly, so it multiplies and divides polynomials as it stands.
LinBase = tuple[int, int]


def linear_base(a: int, b: int) -> tuple[LinBase, int]:
    """Write a + b*t = k * (a0 + b0*t) with (a0, b0) canonical and k an int."""
    k = math.gcd(a, b)
    if (a or b) < 0:
        k = -k
    return (a // k, b // k), k


def poly_div_base(p: Poly, base: LinBase) -> Poly | None:
    """p / (a + b*t) when the base divides p, else None.

    Synthetic division from the top.  By Gauss's lemma the quotient of an
    integer polynomial by a primitive one is integral, so an inexact integer
    step means the base does not divide p.
    """
    a, b = base
    quo = [0] * (len(p) - 1)
    carry = 0
    for k in range(len(p) - 1, 0, -1):
        carry, rem = divmod(p[k] - a * carry, b)
        if rem:
            return None
        quo[k - 1] = carry
    return tuple(quo) if p[0] == a * carry else None


# Trial division runs until the divisor's square passes what is left of n, so
# a large prime factor costs time in its square root: tenfold for every two
# digits (a 14-digit prime constant took most of a second).  Past this divisor
# the search is an input error rather than a stall.
MAX_TRIAL_DIVISOR = 10**6


def factor_int(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 by trial division up to MAX_TRIAL_DIVISOR."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        if d > MAX_TRIAL_DIVISOR:
            raise UnsupportedScalarError(
                f"cannot factor an integer constant: it has a factor above "
                f"{MAX_TRIAL_DIVISOR}^2 with no prime factor up to {MAX_TRIAL_DIVISOR}"
            )
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def factor_poly_linear(p: Poly) -> tuple[int, dict[LinBase, int]]:
    """Split p into an integer content times canonical linear factors.

    A linear p is read directly.  Higher degrees divide out each rational
    root r/s (r | p(0), s | lead) as often as it divides, one search each.  Raises
    UnsupportedScalarError when p has an irreducible factor of degree >= 2
    (such a denominator cannot stay inside the class).
    """
    if not p:
        raise ZeroDivisionError("cannot factor the zero polynomial")
    factors: dict[LinBase, int] = {}
    while len(p) > 2:
        base = _root_base(p)
        if base is None:
            raise UnsupportedScalarError(
                "polynomial with an irreducible non-linear factor is outside "
                "the supported scalar class"
            )
        while (quo := poly_div_base(p, base)) is not None:
            p, factors[base] = quo, factors.get(base, 0) + 1
    if len(p) == 1:
        return p[0], factors
    base, content = linear_base(*p)
    factors[base] = factors.get(base, 0) + 1
    return content, factors


def _root_base(p: Poly) -> LinBase | None:
    """The base s*t - r of a rational root r/s of p, or None."""
    if p[0] == 0:
        return (0, 1)
    for s in _divisors(abs(p[-1])):
        for r in _divisors(abs(p[0])):
            if math.gcd(r, s) == 1:
                for cand in (r, -r):
                    if poly_eval_hom(p, cand, s) == 0:
                        return linear_base(-cand, s)[0]
    return None


def _divisors(n: int) -> list[int]:
    out = [1]
    for prime, e in factor_int(n).items():
        out = [d * prime**k for d in out for k in range(e + 1)]
    return sorted(out)


# ---------------------------------------------------------------------------
# Rational functions with factored denominators.
# ---------------------------------------------------------------------------

Den = tuple[tuple[LinBase, int], ...]


class RF(NamedTuple):
    """n/d * num / prod(base^mult), canonical: n/d a nonzero reduced int pair
    with d > 0, num a primitive int polynomial with positive leading
    coefficient that no base of den divides.  The zero function is
    (0, 1, (), ())."""

    n: int
    d: int
    num: Poly
    den: Den


RF_ZERO = RF(0, 1, (), ())
RF_ONE = RF(1, 1, POLY_ONE, ())


def q_mul(n1: int, d1: int, n2: int, d2: int) -> tuple[int, int]:
    """n1/d1 * n2/d2 for reduced pairs, reduced by Henrici's cross gcds."""
    if d1 == 1 and d2 == 1:
        return n1 * n2, 1
    g1, g2 = math.gcd(n1, d2), math.gcd(n2, d1)
    return (n1 // g1) * (n2 // g2), (d1 // g2) * (d2 // g1)


def rf_make(n: int, d: int, num: Poly, den: dict[LinBase, int]) -> RF:
    """The canonical form of n/d * num / prod(base^mult) for a reduced n/d and
    a nonzero int num."""
    k = math.gcd(*num)
    if num[-1] < 0:
        k = -k
    if k != 1:
        num = tuple(x // k for x in num)
        n, d = q_mul(n, d, k, 1)
    if len(num) > 1:
        for base, m in den.items():
            while m:
                quo = poly_div_base(num, base)
                if quo is None:
                    break
                num, m = quo, m - 1
            den[base] = m
        if num[-1] < 0:
            num, n = tuple(-x for x in num), -n
    return RF(n, d, num, tuple(sorted((b, m) for b, m in den.items() if m)))


def rf_add(x: RF, y: RF) -> RF:
    if not x.num:
        return y
    if not y.num:
        return x
    if x.num == y.num and x.den == y.den:
        n, d = x.n * y.d + y.n * x.d, x.d * y.d
        if d != 1:
            g = math.gcd(n, d)
            n, d = n // g, d // g
        return RF(n, d, x.num, x.den) if n else RF_ZERO
    # one content g/lcm with g = gcd(numerators), lcm = lcm(denominators): it is
    # reduced, and x's and y's contents are int multiples of it
    g, lcm = math.gcd(x.n, y.n), math.lcm(x.d, y.d)
    dx, dy = dict(x.den), dict(y.den)
    union = {b: max(dx.get(b, 0), dy.get(b, 0)) for b in dx.keys() | dy.keys()}
    nx = poly_mul((x.n // g * (lcm // x.d),), x.num)
    ny = poly_mul((y.n // g * (lcm // y.d),), y.num)
    for b, m in union.items():
        nx = poly_mul_pow(nx, b, m - dx.get(b, 0))
        ny = poly_mul_pow(ny, b, m - dy.get(b, 0))
    if len(nx) < len(ny):
        nx, ny = ny, nx
    total = list(nx)
    for i, v in enumerate(ny):
        total[i] += v
    while total and not total[-1]:
        total.pop()
    return rf_make(g, lcm, tuple(total), union) if total else RF_ZERO


def rf_neg(x: RF) -> RF:
    return RF(-x.n, x.d, x.num, x.den)


def rf_mul(x: RF, y: RF) -> RF:
    if not x.num or not y.num:
        return RF_ZERO
    n, d = q_mul(x.n, x.d, y.n, y.d)
    if not x.den and not y.den:
        # Gauss's lemma: a product of primitive polynomials is primitive
        return RF(n, d, poly_mul(x.num, y.num), ())
    den = dict(x.den)
    for b, m in y.den:
        den[b] = den.get(b, 0) + m
    return rf_make(n, d, poly_mul(x.num, y.num), den)


def rf_scale(x: RF, n: int, d: int) -> RF:
    """x * n/d for a reduced pair n/d with d > 0."""
    if not n or not x.num:
        return RF_ZERO
    return RF(*q_mul(x.n, x.d, n, d), x.num, x.den)


def rf_mul_base(x: RF, base: LinBase, power: int) -> RF:
    """Multiply by base**power for integer power of either sign."""
    if not x.num or power == 0:
        return x
    den = dict(x.den)
    have = den.pop(base, 0)
    if have > power:
        den[base] = have - power
        return rf_make(x.n, x.d, x.num, den)
    return rf_make(x.n, x.d, poly_mul_pow(x.num, base, power - have), den)


def rf_inverse(x: RF) -> RF:
    if not x.num:
        raise ZeroDivisionError("scalar division by zero")
    content, factors = factor_poly_linear(x.num)
    num = POLY_ONE
    for b, m in x.den:
        num = poly_mul_pow(num, b, m)
    n, d = q_mul(x.n, x.d, content, 1)
    return rf_make(d, n, num, factors) if n > 0 else rf_make(-d, -n, num, factors)


def rf_diff(x: RF) -> RF:
    if not x.num:
        return RF_ZERO
    num, out = x.num, RF_ZERO
    if len(num) > 1:
        out = rf_make(x.n, x.d, tuple(k * num[k] for k in range(1, len(num))), dict(x.den))
    for base, m in x.den:
        den = dict(x.den)
        den[base] += 1
        out = rf_add(out, rf_make(*q_mul(x.n, x.d, -m * base[1], 1), num, den))
    return out


def rf_eval(x: RF, t0: Fraction | int) -> tuple[int, int]:
    """x(t0) as an int pair (top, bottom), not reduced."""
    r, s = t0.numerator, t0.denominator
    top, bottom, shift = poly_eval_hom(x.num, r, s), 1, 1 - len(x.num)
    for (a, b), m in x.den:
        bval = a * s + b * r
        if bval == 0:
            raise ScalarDomainError(f"pole at t = {t0}")
        bottom *= bval**m
        shift += m
    if shift >= 0:
        top *= s**shift
    else:
        bottom *= s**-shift
    return x.n * top, x.d * bottom


# ---------------------------------------------------------------------------
# Radical signatures and Scalar.
# ---------------------------------------------------------------------------

# ("lin", a, b) for a primitive linear base, ("prime", p, 0) for a prime.
BaseKey = tuple[str, int, int]
# Each exponent is a reduced int pair (p, q) with 0 < p < q.
Sig = tuple[tuple[BaseKey, tuple[int, int]], ...]

_EMPTY_SIG: Sig = ()


class Scalar:
    """Immutable exact scalar; see the module docstring for the term model."""

    __slots__ = ("_terms",)

    def __init__(self, terms: dict[Sig, RF] | None = None):
        """terms must be canonical: nonzero RFs keyed by carried signatures."""
        self._terms: dict[Sig, RF] = {} if terms is None else terms

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero() -> Scalar:
        return Scalar()

    @staticmethod
    def one() -> Scalar:
        return Scalar({_EMPTY_SIG: RF_ONE})

    @staticmethod
    def rational(q: Fraction | int, d: int = 1) -> Scalar:
        """The rational constant q, or q/d for an int q and a nonzero int d,
        reduced by one gcd to a positive denominator."""
        if d != 1:
            if not d:
                raise ZeroDivisionError(f"Scalar.rational({q}, 0)")
            g = math.gcd(q, d) if d > 0 else -math.gcd(q, d)
            q, d = q // g, d // g
        elif type(q) is not int:
            q, d = q.numerator, q.denominator
        if not q:
            return Scalar()
        return Scalar({_EMPTY_SIG: RF(q, d, POLY_ONE, ())})

    @staticmethod
    def t() -> Scalar:
        return Scalar({_EMPTY_SIG: RF(1, 1, (0, 1), ())})

    @staticmethod
    def linear(a: Fraction | int, b: Fraction | int) -> Scalar:
        """The polynomial a + b*t."""
        return Scalar.rational(a) + Scalar.rational(b) * Scalar.t()

    # -- helpers ------------------------------------------------------------

    @staticmethod
    def _coerce(value: Scalar | Fraction | int) -> Scalar:
        if isinstance(value, Scalar):
            return value
        if isinstance(value, (int, Fraction)):
            return Scalar.rational(value)
        return NotImplemented  # type: ignore[return-value]

    def terms(self) -> Iterator[tuple[tuple[tuple[BaseKey, Fraction], ...], RF]]:
        """The sorted terms with Fraction exponents, a read-only view for tests."""
        return iter(sorted((tuple((key, Fraction(p, q)) for key, (p, q) in sig), rf)
                           for sig, rf in self._terms.items()))

    def is_zero(self) -> bool:
        return not self._terms

    def is_rational(self) -> bool:
        return self.rational_pair() is not None

    def rational_pair(self) -> tuple[int, int] | None:
        """The value as a reduced int pair (n, d), d > 0, when it is a rational
        constant, else None: the RF content, read with no Fraction."""
        if not self._terms:
            return 0, 1
        rf = self._terms.get(_EMPTY_SIG)
        if rf is None or len(self._terms) > 1 or rf.den or len(rf.num) > 1:
            return None
        return rf.n, rf.d

    def rational_value(self) -> Fraction | None:
        """The value as a Fraction when it is a rational constant, else None."""
        q = self.rational_pair()
        return None if q is None else Fraction(*q)

    def as_fraction(self) -> Fraction:
        q = self.rational_value()
        if q is None:
            raise UnsupportedScalarError(f"not a rational constant: {self}")
        return q

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: Scalar | Fraction | int) -> Scalar:
        other = Scalar._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other._terms:
            return self
        if not self._terms:
            return other
        out = dict(self._terms)
        for sig, rf in other._terms.items():
            _merge(out, sig, rf)
        return Scalar(out)

    __radd__ = __add__

    def __neg__(self) -> Scalar:
        return Scalar({sig: rf_neg(rf) for sig, rf in self._terms.items()})

    def __sub__(self, other: Scalar | Fraction | int) -> Scalar:
        other = Scalar._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: Scalar | Fraction | int) -> Scalar:
        return Scalar._coerce(other) + (-self)

    def __mul__(self, other: Scalar | Fraction | int) -> Scalar:
        if type(other) is int:  # an int scales each term's content
            if other == 1:
                return self
            return Scalar({sig: rf_scale(rf, other, 1) for sig, rf in self._terms.items()}
                          if other else None)
        other = Scalar._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        acc: dict[Sig, RF] = {}
        for sig1, rf1 in self._terms.items():
            for sig2, rf2 in other._terms.items():
                if not sig1 or not sig2:
                    # a canonical signature is already carried
                    _merge(acc, sig1 or sig2, rf_mul(rf1, rf2))
                    continue
                exps = dict(sig1)
                for key, (p, q) in sig2:
                    if key in exps:
                        p0, q0 = exps[key]
                        p, q = p0 * q + p * q0, q0 * q
                    exps[key] = (p, q)
                _merge(acc, *_carry(exps, rf_mul(rf1, rf2)))
        return Scalar(acc)

    __rmul__ = __mul__

    def __truediv__(self, other: Scalar | Fraction | int) -> Scalar:
        other = Scalar._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other: Fraction | int) -> Scalar:
        return Scalar._coerce(other) * self.inverse()

    def inverse(self) -> Scalar:
        if self.is_zero():
            raise ZeroDivisionError("scalar division by zero")
        if len(self._terms) != 1:
            raise UnsupportedScalarError(
                "division is only supported by scalars with a single radical "
                "signature"
            )
        ((sig, rf),) = self._terms.items()
        inv_sig, inv_rf = _carry({key: (-p, q) for key, (p, q) in sig}, rf_inverse(rf))
        return Scalar({inv_sig: inv_rf})

    def __pow__(self, k: int) -> Scalar:
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inverse() ** (-k)
        out, square = Scalar.one(), self
        while k:
            if k & 1:
                out = out * square
            k >>= 1
            if k:
                square = square * square
        return out

    def rational_power(self, r: Fraction) -> Scalar:
        """self ** r for rational r; self must be a single-signature scalar."""
        r = Fraction(r)
        if r.denominator == 1:
            return self ** int(r)
        if self.is_zero():
            raise ZeroDivisionError("0 raised to a non-integer power")
        if len(self._terms) != 1:
            raise UnsupportedScalarError(
                "rational powers are only supported for scalars with a single "
                "radical signature"
            )
        ((sig, rf),) = self._terms.items()
        rp, rq = r.numerator, r.denominator
        exps = {key: (p * rp, q * rq) for key, (p, q) in sig}
        content, factors = factor_poly_linear(rf.num)
        n, d = q_mul(rf.n, rf.d, content, 1)
        sign = 1
        if n < 0:
            if rq % 2 == 0:
                raise UnsupportedScalarError(
                    f"({Fraction(n, d)})^({r}) is not real-valued in the supported class"
                )
            sign, n = (-1 if rp % 2 else 1), -n
        # integer multiplicities; no base of den divides num, and n/d is reduced
        mults = {("lin", *base): m for base, m in factors.items()}
        mults.update((("lin", *base), -m) for base, m in rf.den)
        mults.update((("prime", p, 0), e) for p, e in factor_int(n).items())
        mults.update((("prime", p, 0), -e) for p, e in factor_int(d).items())
        for key, m in mults.items():
            p, q = exps.get(key, (0, 1))
            exps[key] = (p * rq + m * rp * q, q * rq)
        out_sig, out_rf = _carry(exps, RF(sign, 1, POLY_ONE, ()))
        return Scalar({out_sig: out_rf})

    # -- calculus -----------------------------------------------------------

    def diff(self) -> Scalar:
        """Exact d/dt.  d/dt base^exp = exp * b * base^(exp - 1) is the term's own
        radical over one more power of base, so each term differentiates
        within its signature."""
        out: dict[Sig, RF] = {}
        for sig, rf in self._terms.items():
            total = rf_diff(rf)
            for (kind, a, b), (p, q) in sig:
                if kind == "lin" and b:
                    total = rf_add(total, rf_mul_base(rf_scale(rf, *q_mul(p, q, b, 1)), (a, b), -1))
            if total.num:
                out[sig] = total
        return Scalar(out)

    # -- evaluation ---------------------------------------------------------

    def evaluate_float(self, t0: Fraction | int) -> float:
        """The value at t0 as a float; ScalarDomainError at a pole, under an
        even root of a negative base, or when a value leaves the float range."""
        r, s = t0.numerator, t0.denominator
        total = 0.0
        try:
            for sig, rf in self._terms.items():
                top, bottom = rf_eval(rf, t0)
                val = top / bottom
                for (kind, a, b), (p, q) in sig:
                    if kind == "prime":
                        val *= float(a) ** (p / q)
                        continue
                    bval = a * s + b * r  # s * (a + b*t0), and s > 0
                    if bval == 0:
                        val = 0.0
                        break
                    if bval < 0 and q % 2 == 0:
                        raise ScalarDomainError(
                            f"negative base {_render_linear(a, b)} at t = {t0} under an "
                            f"even-denominator exponent {p}/{q}"
                        )
                    val *= (-1.0 if bval < 0 and p % 2 else 1.0) * (abs(bval) / s) ** (p / q)
                total += val
        except OverflowError:
            total = math.inf
        if not math.isfinite(total):
            raise ScalarDomainError(f"value outside the float range at t = {t0}")
        return total

    # -- comparisons / rendering -------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Scalar.rational(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return self._terms == other._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def render(self) -> str:
        if self.is_zero():
            return "0"
        monomials = []
        for sig, rf in self._terms.items():
            factors = [(kind, a, b, Fraction(p, q)) for (kind, a, b), (p, q) in sig]
            factors += [("lin", a, b, -m) for (a, b), m in rf.den]
            factors.sort()
            for k, coeff in enumerate(rf.num):
                if coeff:
                    monomials.append((k, tuple(factors), Fraction(rf.n * coeff, rf.d)))
        monomials.sort(key=lambda m: (m[0], m[1]))
        parts: list[str] = []
        for k, factors, coeff in monomials:
            body = []
            if k == 1:
                body.append("t")
            elif k > 1:
                body.append(f"t^{k}")
            for kind, a, b, exp in factors:
                base = str(a) if kind == "prime" else _render_linear(a, b)
                body.append(f"{base}^({exp})")
            mag = abs(coeff)
            if mag != 1 or not body:
                body.insert(0, str(mag))
            text = "*".join(body)
            if not parts:
                parts.append(text if coeff > 0 else f"-{text}")
            else:
                parts.append(f"+ {text}" if coeff > 0 else f"- {text}")
        return " ".join(parts)

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"Scalar({self.render()})"


def _render_linear(a: int, b: int) -> str:
    if b == 0:
        return f"({a})"
    bt = "t" if b == 1 else ("-t" if b == -1 else f"{b}*t")
    if a == 0:
        return f"({bt})"
    return f"({a}{'+' if b > 0 else '-'}{bt.lstrip('-')})"


def _merge(acc: dict[Sig, RF], sig: Sig, rf: RF) -> None:
    """acc[sig] += rf, dropping a sum that cancels, so a later term of that
    signature enters again at the end."""
    old = acc.get(sig)
    if old is None:
        acc[sig] = rf
        return
    merged = rf_add(old, rf)
    if merged.num:
        acc[sig] = merged
    else:
        del acc[sig]


def _carry(exps: dict[BaseKey, tuple[int, int]], rf: RF) -> tuple[Sig, RF]:
    """The canonical term rf * prod base^(p/q) for int pairs with q > 0: each
    floor p // q moves into rf, and only exponents in (0, 1) stay in the
    signature, reduced."""
    sig = []
    for key, (p, q) in exps.items():
        whole = p // q
        if whole:
            kind, a, b = key
            if kind == "lin":
                rf = rf_mul_base(rf, (a, b), whole)
            else:
                rf = rf_scale(rf, a**whole, 1) if whole > 0 else rf_scale(rf, 1, a**-whole)
            p -= whole * q
        if p:
            g = math.gcd(p, q)
            sig.append((key, (p // g, q // g)))
    sig.sort()
    return tuple(sig), rf
