"""Exact coefficient arithmetic: rationals plus radical expressions in one parameter t.

A Scalar is a finite sum of terms

    R(t) * prod_i B_i ** r_i

where R is a rational function of t with Fraction coefficients whose
denominator splits into linear factors, and each radical factor pairs a
canonical base B (a primitive integer linear polynomial a + b*t, or a prime
integer) with a fractional exponent 0 < r < 1.  Terms are merged by radical
signature, so equality and zero-testing are exact: distinct signatures are
linearly independent over the rational functions, hence a Scalar is zero if
and only if it has no terms.

The class is closed under +, -, *, d/dt and integer powers, and under
division by any Scalar with a single radical signature.  Expressions that
would leave the class (square roots of sums, non-linear irreducible
denominators, even roots of negative factors) raise UnsupportedScalarError
instead of being approximated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

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
# Dense univariate polynomials over Fraction: tuple of coefficients by
# ascending power, with no trailing zeros.  () is the zero polynomial.
# ---------------------------------------------------------------------------

Poly = tuple[Fraction, ...]

POLY_ZERO: Poly = ()
POLY_ONE: Poly = (Fraction(1),)


def poly_norm(coeffs: Iterable[Fraction]) -> Poly:
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def poly_add(p: Poly, q: Poly) -> Poly:
    if len(p) < len(q):
        p, q = q, p
    out = list(p)
    for i, c in enumerate(q):
        out[i] += c
    return poly_norm(out)


def poly_neg(p: Poly) -> Poly:
    return tuple(-c for c in p)


def poly_scale(p: Poly, c: Fraction) -> Poly:
    if c == 0:
        return POLY_ZERO
    return tuple(x * c for x in p)


def poly_mul(p: Poly, q: Poly) -> Poly:
    if not p or not q:
        return POLY_ZERO
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return poly_norm(out)


def poly_divmod(p: Poly, q: Poly) -> tuple[Poly, Poly]:
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(p)
    quo = [Fraction(0)] * max(0, len(p) - len(q) + 1)
    lead = q[-1]
    for k in range(len(rem) - len(q), -1, -1):
        c = rem[k + len(q) - 1] / lead
        if c == 0:
            continue
        quo[k] = c
        for j, b in enumerate(q):
            rem[k + j] -= c * b
    return poly_norm(quo), poly_norm(rem)


def poly_derivative(p: Poly) -> Poly:
    return poly_norm(c * k for k, c in enumerate(p) if k)


def poly_eval(p: Poly, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def _lcm(a: int, b: int) -> int:
    return a // math.gcd(a, b) * b


def poly_content(p: Poly) -> Fraction:
    """Positive rational c with p/c a primitive integer polynomial."""
    if not p:
        return Fraction(0)
    num = 0
    den = 1
    for c in p:
        num = math.gcd(num, abs(c.numerator))
        den = _lcm(den, c.denominator)
    return Fraction(num, den)


# A canonical linear base is a primitive integer pair (a, b) meaning a + b*t,
# with the first nonzero entry positive.
LinBase = tuple[int, int]


def linbase_poly(base: LinBase) -> Poly:
    a, b = base
    return poly_norm((Fraction(a), Fraction(b)))


def normalize_linear(a: Fraction, b: Fraction) -> tuple[LinBase, Fraction, int]:
    """Write a + b*t = sign * content * (a0 + b0*t) with (a0, b0) canonical."""
    if a == 0 and b == 0:
        raise ZeroDivisionError("zero linear base")
    content = poly_content(poly_norm((a, b)))
    a0 = int(a / content)
    b0 = int(b / content)
    sign = 1
    first = a0 if a0 != 0 else b0
    if first < 0:
        a0, b0, sign = -a0, -b0, -1
    return (a0, b0), content, sign


def factor_int(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 by trial division."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def factor_poly_linear(p: Poly) -> tuple[Fraction, dict[LinBase, int]]:
    """Split p into rational content times canonical linear factors.

    Raises UnsupportedScalarError when p has an irreducible factor of
    degree >= 2 (such a denominator cannot stay inside the class).
    """
    if not p:
        raise ZeroDivisionError("cannot factor the zero polynomial")
    content = poly_content(p)
    work = poly_scale(p, 1 / content)
    if work[-1] < 0:
        work = poly_neg(work)
        content = -content
    factors: dict[LinBase, int] = {}
    while len(work) > 1:
        root = _rational_root(work)
        if root is None:
            raise UnsupportedScalarError(
                "polynomial with an irreducible non-linear factor is outside "
                "the supported scalar class"
            )
        base, c, sign = normalize_linear(-root, Fraction(1))
        quo, rem = poly_divmod(work, poly_scale(linbase_poly(base), Fraction(sign) * c))
        assert not rem
        factors[base] = factors.get(base, 0) + 1
        content *= sign * c
        work = quo
    content *= work[0]
    return content, factors


def _rational_root(p: Poly) -> Fraction | None:
    # Integer-coefficient p assumed.  Candidates r/s with r | p(0), s | lead.
    if p[0] == 0:
        return Fraction(0)
    lead = int(p[-1])
    const = int(p[0])
    for s in _divisors(abs(lead)):
        for r in _divisors(abs(const)):
            for cand in (Fraction(r, s), Fraction(-r, s)):
                if poly_eval(p, cand) == 0:
                    return cand
    return None


def _divisors(n: int) -> list[int]:
    out = [d for d in range(1, int(math.isqrt(n)) + 1) if n % d == 0]
    return sorted(set(out + [n // d for d in out]))


# ---------------------------------------------------------------------------
# Rational functions with factored denominators.
# ---------------------------------------------------------------------------

Den = tuple[tuple[LinBase, int], ...]


@dataclass(frozen=True)
class RF:
    """num / prod(base^mult) reduced: num not divisible by any den base."""

    num: Poly
    den: Den

    def is_zero(self) -> bool:
        return not self.num


RF_ZERO = RF(POLY_ZERO, ())
RF_ONE = RF(POLY_ONE, ())


def rf_make(num: Poly, den: dict[LinBase, int]) -> RF:
    if not num:
        return RF_ZERO
    reduced = dict(den)
    for base in sorted(reduced):
        bp = linbase_poly(base)
        while reduced.get(base, 0) > 0:
            quo, rem = poly_divmod(num, bp)
            if rem:
                break
            num = quo
            reduced[base] -= 1
        if reduced.get(base, 0) == 0:
            reduced.pop(base, None)
    return RF(num, tuple(sorted(reduced.items())))


def rf_from_poly(p: Poly) -> RF:
    return RF(p, ()) if p else RF_ZERO


def rf_add(x: RF, y: RF) -> RF:
    if x.is_zero():
        return y
    if y.is_zero():
        return x
    dx, dy = dict(x.den), dict(y.den)
    union = {b: max(dx.get(b, 0), dy.get(b, 0)) for b in {*dx, *dy}}
    nx, ny = x.num, y.num
    for b, m in union.items():
        bp = linbase_poly(b)
        for _ in range(m - dx.get(b, 0)):
            nx = poly_mul(nx, bp)
        for _ in range(m - dy.get(b, 0)):
            ny = poly_mul(ny, bp)
    return rf_make(poly_add(nx, ny), union)


def rf_neg(x: RF) -> RF:
    return RF(poly_neg(x.num), x.den)


def rf_mul(x: RF, y: RF) -> RF:
    if x.is_zero() or y.is_zero():
        return RF_ZERO
    den = dict(x.den)
    for b, m in y.den:
        den[b] = den.get(b, 0) + m
    return rf_make(poly_mul(x.num, y.num), den)


def rf_scale(x: RF, c: Fraction) -> RF:
    if c == 0 or x.is_zero():
        return RF_ZERO
    return RF(poly_scale(x.num, c), x.den)


def rf_mul_base(x: RF, base: LinBase, power: int) -> RF:
    """Multiply by base**power for integer power of either sign."""
    if x.is_zero() or power == 0:
        return x
    den = dict(x.den)
    num = x.num
    if power > 0:
        bp = linbase_poly(base)
        for _ in range(power):
            num = poly_mul(num, bp)
    else:
        den[base] = den.get(base, 0) - power
    return rf_make(num, den)


def rf_inverse(x: RF) -> RF:
    if x.is_zero():
        raise ZeroDivisionError("scalar division by zero")
    content, factors = factor_poly_linear(x.num)
    num = POLY_ONE
    for b, m in x.den:
        bp = linbase_poly(b)
        for _ in range(m):
            num = poly_mul(num, bp)
    return rf_make(poly_scale(num, 1 / content), factors)


def rf_diff(x: RF) -> RF:
    if x.is_zero():
        return RF_ZERO
    out = RF(poly_derivative(x.num), x.den) if poly_derivative(x.num) else RF_ZERO
    for base, m in x.den:
        _, b = base
        if b == 0:
            continue
        den = dict(x.den)
        den[base] = den.get(base, 0) + 1
        out = rf_add(out, rf_make(poly_scale(x.num, Fraction(-m * b)), den))
    return out


def rf_eval(x: RF, t0: Fraction) -> Fraction:
    val = poly_eval(x.num, t0)
    for base, m in x.den:
        bval = poly_eval(linbase_poly(base), t0)
        if bval == 0:
            raise ScalarDomainError(f"pole at t = {t0}")
        val /= bval**m
    return val


# ---------------------------------------------------------------------------
# Radical signatures and Scalar.
# ---------------------------------------------------------------------------

# ("lin", a, b) for a primitive linear base, ("prime", p, 0) for a prime.
BaseKey = tuple[str, int, int]
Sig = tuple[tuple[BaseKey, Fraction], ...]

_EMPTY_SIG: Sig = ()


def _sig_sort(entries: dict[BaseKey, Fraction]) -> Sig:
    return tuple(sorted(entries.items()))


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
        q = Fraction(q)
        if q == 0:
            return Scalar()
        return Scalar({_EMPTY_SIG: rf_from_poly((q,))})

    @staticmethod
    def t() -> Scalar:
        return Scalar({_EMPTY_SIG: rf_from_poly((Fraction(0), Fraction(1)))})

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
        if not self._terms:
            return True
        if set(self._terms) != {_EMPTY_SIG}:
            return False
        rf = self._terms[_EMPTY_SIG]
        return not rf.den and len(rf.num) <= 1

    def as_fraction(self) -> Fraction:
        if self.is_zero():
            return Fraction(0)
        if not self.is_rational():
            raise UnsupportedScalarError(f"not a rational constant: {self}")
        return self._terms[_EMPTY_SIG].num[0]

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
            merged = rf_add(out.get(sig, RF_ZERO), rf)
            if merged.is_zero():
                out.pop(sig, None)
            else:
                out[sig] = merged
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
        out = Scalar()
        acc: dict[Sig, RF] = {}
        for sig1, rf1 in self._terms.items():
            for sig2, rf2 in other._terms.items():
                sig, rf = _term_mul(sig1, rf1, sig2, rf2)
                merged = rf_add(acc.get(sig, RF_ZERO), rf)
                if merged.is_zero():
                    acc.pop(sig, None)
                else:
                    acc[sig] = merged
        out._terms.update(acc)
        return out

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
        inv_sig: dict[BaseKey, Fraction] = {}
        inv_rf = rf_inverse(rf)
        for key, exp in sig:
            kind, a, b = key
            # base^-exp = base^-1 * base^(1-exp)
            if kind == "lin":
                inv_rf = rf_mul_base(inv_rf, (a, b), -1)
            else:
                inv_rf = rf_scale(inv_rf, Fraction(1, a))
            inv_sig[key] = 1 - exp
        return Scalar({_sig_sort(inv_sig): inv_rf})

    def __pow__(self, k: int) -> Scalar:
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inverse() ** (-k)
        out = Scalar.one()
        for _ in range(k):
            out = out * self
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
        for base, m in rf.den:
            factors[base] = factors.get(base, 0) - m
        for base, m in factors.items():
            key = ("lin", base[0], base[1])
            exps[key] = exps.get(key, Fraction(0)) + m * r
        coeff, rad = _content_power(content, r)
        for key, exp in rad.items():
            exps[key] = exps.get(key, Fraction(0)) + exp
        out_rf = rf_from_poly((coeff,))
        out_sig: dict[BaseKey, Fraction] = {}
        for key, exp in exps.items():
            if exp == 0:
                continue
            kind, a, b = key
            whole = Fraction(int(exp // 1))
            frac = exp - whole
            if kind == "lin":
                out_rf = rf_mul_base(out_rf, (a, b), int(whole))
            else:
                out_rf = rf_scale(out_rf, Fraction(a) ** int(whole))
            if frac:
                out_sig[key] = frac
        return Scalar({_sig_sort(out_sig): out_rf})

    # -- calculus -----------------------------------------------------------

    def diff(self) -> Scalar:
        """Exact d/dt."""
        out = Scalar.zero()
        for sig, rf in self._terms.items():
            pieces = rf_diff(rf)
            if not pieces.is_zero():
                out = out + Scalar({sig: pieces})
            for key, exp in sig:
                kind, a, b = key
                if kind != "lin" or b == 0:
                    continue
                # d/dt base^exp = exp * b * base^(exp - 1)
                contrib = rf_scale(rf, exp * b)
                contrib = rf_mul_base(contrib, (a, b), -1)
                out = out + Scalar({sig: contrib})
        return out

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
                bval = poly_eval(linbase_poly((a, b)), t0)
                if bval == 0:
                    val = 0.0
                    break
                if bval < 0:
                    if exp.denominator % 2 == 0:
                        raise ScalarDomainError(
                            f"negative base ({a}+{b}*t) at t = {t0} under an "
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
                if coeff == 0:
                    continue
                monomials.append((k, tuple(sorted(factors)), coeff))
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


def _term_mul(sig1: Sig, rf1: RF, sig2: Sig, rf2: RF) -> tuple[Sig, RF]:
    rf = rf_mul(rf1, rf2)
    exps: dict[BaseKey, Fraction] = dict(sig1)
    for key, exp in sig2:
        exps[key] = exps.get(key, Fraction(0)) + exp
    out: dict[BaseKey, Fraction] = {}
    for key, exp in exps.items():
        kind, a, b = key
        if exp >= 1:
            # carry the integer part into the rational-function prefactor
            if kind == "lin":
                rf = rf_mul_base(rf, (a, b), 1)
            else:
                rf = rf_scale(rf, Fraction(a))
            exp -= 1
        if exp:
            out[key] = exp
    return _sig_sort(out), rf


def _content_power(content: Fraction, r: Fraction) -> tuple[Fraction, dict[BaseKey, Fraction]]:
    """content ** r as rational coefficient times prime radicals."""
    sign = 1
    if content < 0:
        if r.denominator % 2 == 0:
            raise UnsupportedScalarError(
                f"({content})^({r}) is not real-valued in the supported class"
            )
        sign = -1 if r.numerator % 2 else 1
        content = -content
    primes: dict[int, Fraction] = {}
    for p, e in factor_int(content.numerator).items():
        primes[p] = primes.get(p, Fraction(0)) + e * r
    for p, e in factor_int(content.denominator).items():
        primes[p] = primes.get(p, Fraction(0)) - e * r
    coeff = Fraction(sign)
    rad: dict[BaseKey, Fraction] = {}
    for p, exp in primes.items():
        whole = Fraction(int(exp // 1))
        frac = exp - whole
        coeff *= Fraction(p) ** int(whole)
        if frac:
            rad[("prime", p, 0)] = frac
    return coeff, rad


def var_t() -> Scalar:
    """The parameter t as a Scalar."""
    return Scalar.t()
