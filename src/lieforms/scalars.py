"""Exact coefficient arithmetic: rationals plus radical expressions in one parameter t.

A Scalar is a finite sum of terms

    c * num(t) / prod_j L_j(t) ** m_j  *  prod_i B_i ** r_i

The rational function in front is one RF(c, num, den): c is a nonzero
Fraction, num a primitive integer polynomial with positive leading
coefficient, and den the canonical linear bases L_j (primitive integer
a + b*t, first nonzero entry positive) with their multiplicities, none of
which divides num.  So every polynomial operation runs on int coefficients:
products, exact division by a linear base (integral by Gauss's lemma), and
the rational-root search, by homogeneous Horner.  A rational constant is
RF(q, (1,), ()), so its arithmetic is one Fraction operation.  Each radical
factor pairs a canonical base B (a linear base or a prime integer) with a
fractional exponent 0 < r < 1; _carry is the one place that rule lives, and
every product, inverse and rational power ends in it.  Terms are merged by
radical signature (_merge), so equality and zero-testing are exact: distinct
signatures are linearly independent over the rational functions, hence a
Scalar is zero if and only if it has no terms.

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

Rational = Fraction

__all__ = [
    "Rational",
    "Scalar",
    "ScalarDomainError",
    "UnsupportedScalarError",
    "var_t",
]


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
    """c * num / prod(base^mult), canonical: c a nonzero Fraction, num a
    primitive int polynomial with positive leading coefficient that no base
    of den divides.  The zero function is (0, (), ())."""

    c: Fraction
    num: Poly
    den: Den

    def is_zero(self) -> bool:
        return not self.num


RF_ZERO = RF(Fraction(0), (), ())
RF_ONE = RF(Fraction(1), POLY_ONE, ())


def rf_make(c: Fraction, num: Poly, den: dict[LinBase, int]) -> RF:
    """The canonical form of c * num / prod(base^mult) for a nonzero int num."""
    k = math.gcd(*num)
    if num[-1] < 0:
        k = -k
    if k != 1:
        num = tuple(x // k for x in num)
        c = c * k
    if len(num) > 1:
        for base, m in den.items():
            while m:
                quo = poly_div_base(num, base)
                if quo is None:
                    break
                num, m = quo, m - 1
            den[base] = m
        if num[-1] < 0:
            num, c = tuple(-x for x in num), -c
    return RF(c, num, tuple(sorted((b, m) for b, m in den.items() if m)))


def rf_add(x: RF, y: RF) -> RF:
    if not x.num:
        return y
    if not y.num:
        return x
    if x.num == y.num and x.den == y.den:
        c = x.c + y.c
        return RF(c, x.num, x.den) if c else RF_ZERO
    # one content c = gcd(numerators) / lcm(denominators): x.c / c and y.c / c are ints
    g, lcm = math.gcd(x.c.numerator, y.c.numerator), math.lcm(x.c.denominator, y.c.denominator)
    c = Fraction(g, lcm)
    dx, dy = dict(x.den), dict(y.den)
    union = {b: max(dx.get(b, 0), dy.get(b, 0)) for b in dx.keys() | dy.keys()}
    nx = poly_mul((x.c.numerator // g * (lcm // x.c.denominator),), x.num)
    ny = poly_mul((y.c.numerator // g * (lcm // y.c.denominator),), y.num)
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
    return rf_make(c, tuple(total), union) if total else RF_ZERO


def rf_neg(x: RF) -> RF:
    return RF(-x.c, x.num, x.den)


def rf_mul(x: RF, y: RF) -> RF:
    if not x.num or not y.num:
        return RF_ZERO
    c = x.c * y.c
    if not x.den and not y.den:
        # Gauss's lemma: a product of primitive polynomials is primitive
        return RF(c, poly_mul(x.num, y.num), ())
    den = dict(x.den)
    for b, m in y.den:
        den[b] = den.get(b, 0) + m
    return rf_make(c, poly_mul(x.num, y.num), den)


def rf_scale(x: RF, c: Fraction) -> RF:
    if c == 0 or not x.num:
        return RF_ZERO
    return RF(x.c * c, x.num, x.den)


def rf_mul_base(x: RF, base: LinBase, power: int) -> RF:
    """Multiply by base**power for integer power of either sign."""
    if not x.num or power == 0:
        return x
    den = dict(x.den)
    have = den.pop(base, 0)
    if have > power:
        den[base] = have - power
        return rf_make(x.c, x.num, den)
    return rf_make(x.c, poly_mul_pow(x.num, base, power - have), den)


def rf_inverse(x: RF) -> RF:
    if not x.num:
        raise ZeroDivisionError("scalar division by zero")
    content, factors = factor_poly_linear(x.num)
    num = POLY_ONE
    for b, m in x.den:
        num = poly_mul_pow(num, b, m)
    return rf_make(1 / (x.c * content), num, factors)


def rf_diff(x: RF) -> RF:
    if not x.num:
        return RF_ZERO
    num, out = x.num, RF_ZERO
    if len(num) > 1:
        out = rf_make(x.c, tuple(k * num[k] for k in range(1, len(num))), dict(x.den))
    for base, m in x.den:
        den = dict(x.den)
        den[base] += 1
        out = rf_add(out, rf_make(x.c * (-m * base[1]), num, den))
    return out


def rf_eval(x: RF, t0: Fraction) -> Fraction:
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
    return x.c * Fraction(top, bottom)


# ---------------------------------------------------------------------------
# Radical signatures and Scalar.
# ---------------------------------------------------------------------------

# ("lin", a, b) for a primitive linear base, ("prime", p, 0) for a prime.
BaseKey = tuple[str, int, int]
Sig = tuple[tuple[BaseKey, Fraction], ...]

_EMPTY_SIG: Sig = ()


class Scalar:
    """Immutable exact scalar; see the module docstring for the term model."""

    __slots__ = ("_terms",)

    def __init__(self, terms: dict[Sig, RF] | None = None):
        self._terms: dict[Sig, RF] = {}
        if terms:
            for sig, rf in terms.items():
                if not rf.is_zero():
                    self._terms[sig] = rf

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero() -> Scalar:
        return Scalar()

    @staticmethod
    def one() -> Scalar:
        return Scalar({_EMPTY_SIG: RF_ONE})

    @staticmethod
    def rational(q: Fraction | int) -> Scalar:
        out = Scalar()
        if q:
            out._terms[_EMPTY_SIG] = RF(q if type(q) is Fraction else Fraction(q), POLY_ONE, ())
        return out

    @staticmethod
    def t() -> Scalar:
        return Scalar({_EMPTY_SIG: RF(Fraction(1), (0, 1), ())})

    @staticmethod
    def linear(a: Fraction | int, b: Fraction | int) -> Scalar:
        """The polynomial a + b*t."""
        return Scalar.rational(Fraction(a)) + Scalar.rational(Fraction(b)) * Scalar.t()

    # -- helpers ------------------------------------------------------------

    @staticmethod
    def _coerce(value: Scalar | Fraction | int) -> Scalar:
        if isinstance(value, Scalar):
            return value
        if isinstance(value, (int, Fraction)):
            return Scalar.rational(value)
        return NotImplemented  # type: ignore[return-value]

    def terms(self) -> Iterator[tuple[Sig, RF]]:
        return iter(sorted(self._terms.items()))

    def is_zero(self) -> bool:
        return not self._terms

    def is_rational(self) -> bool:
        return self.rational_value() is not None

    def rational_value(self) -> Fraction | None:
        """The value as a Fraction when it is a rational constant, else None."""
        if not self._terms:
            return Fraction(0)
        rf = self._terms.get(_EMPTY_SIG)
        if rf is None or len(self._terms) > 1 or rf.den or len(rf.num) > 1:
            return None
        return rf.c

    def as_fraction(self) -> Fraction:
        q = self.rational_value()
        if q is None:
            raise UnsupportedScalarError(f"not a rational constant: {self}")
        return q

    def depends_on_t(self) -> bool:
        for sig, rf in self._terms.items():
            if len(rf.num) > 1 or rf.den:
                return True
            for (kind, _, b), _exp in sig:
                if kind == "lin" and b != 0:
                    return True
        return False

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: Scalar | Fraction | int) -> Scalar:
        other = Scalar._coerce(other)
        if other is NotImplemented:
            return NotImplemented
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
        other = Scalar._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        acc: dict[Sig, RF] = {}
        for sig1, rf1 in self._terms.items():
            for sig2, rf2 in other._terms.items():
                exps = dict(sig1)
                for key, exp in sig2:
                    exps[key] = exps.get(key, 0) + exp
                _merge(acc, *_carry(exps, rf_mul(rf1, rf2)))
        return Scalar(acc)

    __rmul__ = __mul__

    def __truediv__(self, other: Scalar | Fraction | int) -> Scalar:
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError("scalar division by zero")
            return self * Scalar.rational(Fraction(1, 1) / Fraction(other))
        if not isinstance(other, Scalar):
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
        inv_sig, inv_rf = _carry({key: -exp for key, exp in sig}, rf_inverse(rf))
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
        exps: dict[BaseKey, Fraction] = {key: exp * r for key, exp in sig}
        content, factors = factor_poly_linear(rf.num)
        content *= rf.c
        sign = 1
        if content < 0:
            if r.denominator % 2 == 0:
                raise UnsupportedScalarError(
                    f"({content})^({r}) is not real-valued in the supported class"
                )
            sign, content = (-1 if r.numerator % 2 else 1), -content
        # integer multiplicities; no base of den divides num, and content is reduced
        mults = {("lin", *base): m for base, m in factors.items()}
        mults.update((("lin", *base), -m) for base, m in rf.den)
        mults.update((("prime", p, 0), e) for p, e in factor_int(content.numerator).items())
        mults.update((("prime", p, 0), -e) for p, e in factor_int(content.denominator).items())
        for key, m in mults.items():
            exps[key] = exps.get(key, 0) + m * r
        out_sig, out_rf = _carry(exps, RF(Fraction(sign), POLY_ONE, ()))
        return Scalar({out_sig: out_rf})

    # -- calculus -----------------------------------------------------------

    def diff(self) -> Scalar:
        """Exact d/dt.  d/dt base^exp = exp * b * base^(exp - 1) is the term's own
        radical over one more power of base, so each term differentiates
        within its signature."""
        out: dict[Sig, RF] = {}
        for sig, rf in self._terms.items():
            total = rf_diff(rf)
            for (kind, a, b), exp in sig:
                if kind == "lin" and b:
                    total = rf_add(total, rf_mul_base(rf_scale(rf, exp * b), (a, b), -1))
            out[sig] = total
        return Scalar(out)

    # -- evaluation ---------------------------------------------------------

    def evaluate_float(self, t0: Fraction | int) -> float:
        t0 = Fraction(t0)
        total = 0.0
        for sig, rf in self._terms.items():
            val = float(rf_eval(rf, t0))
            for (kind, a, b), exp in sig:
                if kind == "prime":
                    val *= float(a) ** float(exp)
                    continue
                bval = a + b * t0
                if bval == 0:
                    val = 0.0
                    break
                if bval < 0:
                    if exp.denominator % 2 == 0:
                        raise ScalarDomainError(
                            f"negative base {_render_linear(a, b)} at t = {t0} under an "
                            f"even-denominator exponent {exp}"
                        )
                    sign = -1.0 if exp.numerator % 2 else 1.0
                    val *= sign * float(abs(bval)) ** float(exp)
                else:
                    val *= float(bval) ** float(exp)
            total += val
        return total

    # -- comparisons / rendering -------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Scalar.rational(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(tuple(sorted(self._terms.items())))

    def __bool__(self) -> bool:
        return not self.is_zero()

    def render(self) -> str:
        if self.is_zero():
            return "0"
        monomials = []
        for sig, rf in self._terms.items():
            factors: list[tuple] = []
            for (kind, a, b), exp in sig:
                factors.append((kind, a, b, exp))
            for (a, b), m in rf.den:
                factors.append(("lin", a, b, Fraction(-m)))
            for k, coeff in enumerate(rf.num):
                if coeff:
                    monomials.append((k, tuple(sorted(factors)), rf.c * coeff))
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
    merged = rf_add(acc.get(sig, RF_ZERO), rf)
    if merged.is_zero():
        acc.pop(sig, None)
    else:
        acc[sig] = merged


def _carry(exps: dict[BaseKey, Fraction], rf: RF) -> tuple[Sig, RF]:
    """The canonical term rf * prod base^exp: each floor(exp) moves into rf,
    and only exponents in (0, 1) stay in the signature."""
    sig: dict[BaseKey, Fraction] = {}
    for key, exp in exps.items():
        whole = exp.numerator // exp.denominator
        if whole:
            kind, a, b = key
            if kind == "lin":
                rf = rf_mul_base(rf, (a, b), whole)
            else:
                rf = rf_scale(rf, Fraction(a) ** whole)
            exp -= whole
        if exp:
            sig[key] = exp
    return tuple(sorted(sig.items())), rf


def var_t() -> Scalar:
    """The parameter t as a Scalar."""
    return Scalar.t()
