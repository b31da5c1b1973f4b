"""Lie algebras from structure equations, input grammars, cohomology, extensions.

Two input formats are supported.  The compact notation lists one entry per
generator, e.g. ``(0, 0, 0, 12, 14 + 23)`` meaning d e^4 = e^12 and
d e^5 = e^14 + e^23; it is limited to dimension <= 9 and unit coefficients.
The rich, line-oriented grammar handles everything else:

    # comment
    [algebra]
    dim = 6
    d e5 = e13 - e24
    d e6 = -2 e12 + e14 + e23 + 2 e34

    [structure]
    F = e12 + e34 + e56
    J: e1 -> -e2, e2 -> e1, ...

    [family]
    param = t
    domain = (-inf, 2/3)
    eta = ((2-3*t)/2)^(1/3) * e1

Wedge between form atoms is written ``^``; ``*`` multiplies by scalars and
juxtaposition ("2 e34") does the same.  Scalar powers use ``^(p/q)``.
"""

from __future__ import annotations

import itertools
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import comb, lcm
from typing import Iterable, Sequence

from ._linalg import (
    insert_echelon_row,
    kernel_vectors,
    scalar_matrix_determinant,
)
from .exterior import (
    CoframeMap,
    Form,
    Report,
    _d_basis,
    _indices,
    _numerators,
    _Sum,
    apply_coframe_map,
    exterior_derivative,
    residual_report,
    sort_index,
    wedge,
    wedge_power,
)
from .scalars import Scalar, UnsupportedScalarError


@dataclass(frozen=True)
class LieAlgebra:
    """Structure equations: the differential of each coframe generator."""

    dimension: int
    differentials: tuple[Form, ...]
    name: str | None = None

    def __post_init__(self) -> None:
        if len(self.differentials) != self.dimension:
            raise ValueError("need one differential per generator")
        for d in self.differentials:
            if d.dimension != self.dimension or d.degree != 2:
                raise ValueError("differentials must be degree-2 forms in the algebra dimension")

    @cached_property
    def structure_table(self) -> tuple[int, list[list[tuple[int, int, int | Scalar]]]]:
        """L and each generator's terms s e^ab of d e^i as (mask of ab, mask of the
        bits a..b-1, L*s), L the lcm of the denominators of the rational s: an int
        when s is a rational constant, else a Scalar."""
        den, nums = _numerators({(i, a, b): s for i, d in enumerate(self.differentials)
                                 for (a, b), s in d.coeffs.items()})
        rows: list[list] = [[] for _ in self.differentials]
        for (i, a, b), s in nums.items():
            rows[i].append((1 << a | 1 << b, (1 << b) - (1 << a), s))
        return den, rows

    @cached_property
    def jacobi(self) -> Report:
        """d^2 = 0 on every generator; the rows are the generators where it fails."""
        return residual_report("jacobi", (
            (f"d^2 e{i}", r) for i, diff in enumerate(self.differentials, start=1)
            if not (r := exterior_derivative(self, diff)).is_zero()),
            words=("pass (d^2 = 0 on every generator)", "FAIL"))

    def d(self, a: Form) -> Form:
        return exterior_derivative(self, a)

    def structure_constants(self) -> tuple[int, list[list[list[int]]]]:
        """S and the int table S*c, c[a][b][i] with [e_a, e_b] = sum_i c[a][b][i] e_i
        from d e^i = -e^i([.,.]) (0-based); S is the lcm of the denominators of c."""
        if not self.is_rational():
            raise UnsupportedScalarError("structure constants must be rational")
        n = self.dimension
        s, rows = self.structure_table
        c = [[[0] * n for _ in range(n)] for _ in range(n)]
        for i, row in enumerate(rows):
            for ab, _, v in row:
                a, b = _indices(ab)
                c[a - 1][b - 1][i], c[b - 1][a - 1][i] = -v, v
        return s, c

    def is_rational(self) -> bool:
        return all(type(v) is int for row in self.structure_table[1] for _, _, v in row)


def check_jacobi(algebra: LieAlgebra) -> Report:
    """The algebra's Jacobi report, computed once per algebra."""
    return algebra.jacobi


# ---------------------------------------------------------------------------
# Compact notation.
# ---------------------------------------------------------------------------

_COMPACT_TERM = re.compile(r"([+-]?)\s*([1-9])([1-9])\s*")


def parse_compact(text: str, name: str | None = None, lineno: int = 1,
                  col: int = 1) -> LieAlgebra:
    """Parse notation like "(0, 0, 0, 12, 14 + 23)"; dimension <= 9.

    ``lineno`` and ``col`` place ``text`` in its file, for error positions.
    """
    at = col + len(text) - len(text.lstrip())  # the column of body[0]
    body = text.strip()
    n = body.count(",") + 1
    if n > 9:
        raise ParseError("compact notation supports dimension <= 9; use the rich grammar",
                         lineno, at)
    if body.startswith("(") and body.endswith(")"):
        body, at = body[1:-1], at + 1
    diffs = []
    for chunk in body.split(","):
        entry = chunk.strip()
        start = at + len(chunk) - len(chunk.lstrip())  # the column of entry[0]
        at += len(chunk) + 1
        if entry == "0":
            diffs.append(Form.zero(n, 2))
            continue
        if not entry:
            raise ParseError("empty compact entry", lineno, start)
        terms = []
        pos = 0
        while pos < len(entry):
            m = _COMPACT_TERM.match(entry, pos)
            if not m:
                raise ParseError(f"malformed compact entry {entry!r}", lineno, start + pos)
            sign, i, j = m.group(1), int(m.group(2)), int(m.group(3))
            if i > n or j > n:
                raise ParseError(f"index out of range in compact entry {entry!r}",
                                 lineno, start + pos)
            terms.append(((i, j), -1 if sign == "-" else 1))
            pos = m.end()
        diffs.append(Form.from_terms(n, 2, terms))
    return LieAlgebra(n, tuple(diffs), name or text.strip())


# ---------------------------------------------------------------------------
# Rich grammar.
# ---------------------------------------------------------------------------


class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.message = message
        self.line = line
        self.column = column


def _number(text: str, lineno: int, col: int) -> int:
    """The int of a literal of digits, signed or not, at ``col``; a literal over
    the interpreter's int-string limit is a ParseError there."""
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"number literal longer than {sys.get_int_max_str_digits()} digits",
                         lineno, col) from None


def _fraction(text: str, lineno: int, col: int) -> Fraction:
    """The rational literal p, -p or p/q at ``col``, each part read by ``_number``."""
    num, _, den = text.partition("/")
    p = _number(num, lineno, col)
    return Fraction(p, _number(den, lineno, col + len(num) + 1)) if den else Fraction(p)


# after spaces or tabs: a token, else the end (a comment or blanks), else a bad character
_TOKEN_RE = re.compile(
    r"[ \t]*(?:(?P<num>\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>->|[+\-*/^(),:=|])"
    r"|(?P<end>#|\s*\Z)|(?P<bad>))"
)
# one group matches, numbered by the match's lastindex: a token's kind is the
# group's name, and the end and bad groups come last
_TOKEN_KINDS = (None, *sorted(_TOKEN_RE.groupindex, key=_TOKEN_RE.groupindex.get))
_END = _TOKEN_RE.groupindex["end"]


def _tokenize(text: str, lineno: int, col: int) -> list[tuple[str, str, int]]:
    """Tokens with their columns, for text that starts at column ``col``.  An
    ("end", "", column just past the last token) token closes a nonempty list."""
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        k = m.lastindex
        if k >= _END:
            if k == _END:
                break
            raise ParseError(f"unexpected character {text[m.end()]!r}", lineno,
                             m.end() + col)
        tokens.append((_TOKEN_KINDS[k], m[k], m.start(k) + col))
    if tokens:
        tokens.append(("end", "", tokens[-1][2] + len(tokens[-1][1])))
    return tokens


_GENERATOR_RE = re.compile(r"^e([1-9])$")
_ETOKEN_RE = re.compile(r"^e([1-9]+)$")
_DIFF_KEY_RE = re.compile(r"^d\s*e([1-9])$")
_ROW_KEY_RE = re.compile(r"^f([1-9])$")

# A scalar power costs time that grows with its exponent (the digits of a
# rational constant, the degree of a polynomial in t), so exponents beyond this
# are an input error rather than a stall; form powers vanish above the dimension.
MAX_SCALAR_EXPONENT = 1000
# Parentheses, signs and powers nest by recursion: deeper input is an error.
MAX_NESTING = 200

# Values carried through the expression parser: ints and Fractions (rational
# constants fold until they meet a Scalar or a form), Scalars, or forms as a
# _Sum of rational or Scalar coefficients; _parse_expr lifts to Scalar and Form.
Value = object
_RATIONAL = (int, Fraction)


def _lift(value: Value) -> Value:
    if isinstance(value, _Sum):
        return value.form()
    return Scalar.rational(value) if isinstance(value, _RATIONAL) else value


def _private(value: Value) -> Value:
    """A copy the caller may change: a _Sum is changed in place, the others never."""
    if isinstance(value, _Sum):
        return _Sum(value.dimension, value.degree, value, value.den)
    return value


def _shareable_groups(tokens) -> dict[int, tuple[str, ...]]:
    """The index of each '(' whose group closes and names nothing but t, dt
    and generators, mapped to the texts of the tokens before its ')'."""
    texts = tuple(tok[1] for tok in tokens)
    opens, named, out = [], 0, {}  # opens: (index of '(', names seen before it)
    for i, (kind, text, _) in enumerate(tokens):
        if text == "(":
            opens.append((i, named))
        elif text == ")" and opens:
            start, before = opens.pop()
            if named == before:
                out[start] = texts[start + 1:i]
        elif kind == "name" and text not in ("t", "dt") and not _ETOKEN_RE.match(text):
            named += 1  # a name may be reassigned by a later line
    return out


class _ExprParser:
    """Pratt parser over a token list producing rational, Scalar or _Sum values.

    ``groups`` maps (dimension, allow_dt, param_allowed, token texts) of a
    shareable parenthesized group to its value and to the nesting levels its
    parse took, for every expression parsed with the same dict."""

    def __init__(self, tokens, lineno: int, dimension: int, env: dict[str, Value],
                 allow_dt: bool, param_allowed: bool, groups: dict):
        self.tokens = tokens
        self.lineno = lineno
        self.pos = 0
        self.depth = self.peak = 0
        self.dimension = dimension
        self.env = env
        self.allow_dt = allow_dt
        self.param_allowed = param_allowed
        self.groups = groups
        self.shareable: dict | None = None  # made at the first '('

    def error(self, message: str):
        raise ParseError(message, self.lineno, self.tokens[self.pos][2])

    def parse(self) -> Value:
        value = self.expression(0)
        if self.tokens[self.pos][0] != "end":
            self.error(f"unexpected trailing token {self.tokens[self.pos][1]!r}")
        return value

    def expression(self, min_prec: int) -> Value:
        """An atom and each operator of precedence min_prec or more with its
        right operand.  Operands that do not combine (forms of different
        degrees, a scalar plus a form) and arithmetic that fails (0^(1/2), x/0,
        even roots of negatives) are a ParseError at the operator, or at the
        right operand when the product is written by juxtaposition."""
        if self.depth == MAX_NESTING:
            self.error(f"expressions nest at most {MAX_NESTING} levels deep")
        self.depth += 1
        if self.depth > self.peak:
            self.peak = self.depth
        value = self.atom()
        while True:
            kind, op, col = self.tokens[self.pos]
            if op in ("+", "-") and min_prec <= 10:
                how, prec = self.combine_add, 11
            elif op in ("*", "/") and min_prec <= 20:
                how, prec = self.combine_mul, 21
            elif op == "^" and min_prec <= 30:  # right-associative
                how, prec = self.combine_power, 30
            elif (kind in ("num", "name") or op == "(") and min_prec <= 20:
                how, prec, op = self.combine_mul, 21, "*"
                self.pos -= 1  # juxtaposition: no operator token to skip
            else:
                break
            self.pos += 1
            rhs = self.expression(prec)
            try:
                value = how(value, rhs, op)
            except (ZeroDivisionError, ValueError) as exc:  # ParseError is a ValueError
                raise ParseError(getattr(exc, "message", str(exc)), self.lineno, col) from None
        self.depth -= 1
        return value

    def atom(self) -> Value:
        kind, text, col = self.tokens[self.pos]
        if kind == "end":
            self.error("expected an expression")
        if text in ("-", "+"):
            self.pos += 1
            value = self.expression(25)
            return -value if text == "-" else value
        if kind == "num":
            self.pos += 1
            return _number(text, self.lineno, col)
        if kind == "op" and text == "(":
            return self.group()
        if kind == "name":
            self.pos += 1
            if text == "t":
                if not self.param_allowed:
                    self.error("parameter t is not declared in this context")
                return Scalar.t()
            if text == "dt":
                if not self.allow_dt:
                    self.error("dt is only available in family sections")
                return _Sum.of(Form.generator(self.dimension, self.dimension))
            if m := _ETOKEN_RE.match(text):
                digits = [int(c) for c in m.group(1)]
                for d in digits:
                    if d > self.dimension:
                        self.error(f"generator e{d} exceeds dimension {self.dimension}")
                sign, idx = sort_index(digits)
                return _Sum(self.dimension, len(digits), {idx: sign} if sign else {})
            if text in self.env:
                value = self.env[text]
                return _Sum.of(value) if isinstance(value, Form) else value
            self.error(f"unknown name {text!r}")
        self.error(f"unexpected token {text!r}")

    def group(self) -> Value:
        """A parenthesized expression.  A shareable group already in ``groups``
        is skipped and a private copy of its value returned, unless its levels
        would pass MAX_NESTING here: then it is parsed again, to raise as before."""
        if self.shareable is None:
            self.shareable = _shareable_groups(self.tokens)
        texts = self.shareable.get(self.pos)
        key = texts is not None and (self.dimension, self.allow_dt, self.param_allowed, texts)
        hit = self.groups.get(key)
        if hit and self.depth + hit[1] <= MAX_NESTING:
            self.pos += len(texts) + 2
            self.peak = max(self.peak, self.depth + hit[1])
            return _private(hit[0])
        outer, self.peak = self.peak, self.depth
        self.pos += 1
        value = self.expression(0)
        if self.tokens[self.pos][1] != ")":
            self.error("expected ')'")
        self.pos += 1
        if key:
            self.groups[key] = (_private(value), self.peak - self.depth)
        self.peak = max(self.peak, outer)
        return value

    def combine_add(self, a: Value, b: Value, op: str) -> Value:
        if isinstance(a, _Sum) and isinstance(b, _Sum):
            return a.merge(b, 1 if op == "+" else -1)
        # allow `form + 0` style mixing only through explicit zeros
        if isinstance(a, _Sum) and not b:
            return a
        if isinstance(b, _Sum) and not a:
            return b if op == "+" else -b
        if isinstance(a, _Sum) or isinstance(b, _Sum):
            self.error("cannot add a scalar and a form")
        return a + b if op == "+" else a - b

    def combine_mul(self, a: Value, b: Value, op: str) -> Value:
        if isinstance(a, _RATIONAL) and isinstance(b, _RATIONAL) and (op == "*" or b):
            return a * b if op == "*" else Fraction(a, b)
        if isinstance(a, _Sum) and isinstance(b, _Sum):
            self.error("cannot multiply two forms with '*'; use '^' for wedge")
        if isinstance(b, _Sum) and op == "/":
            self.error("cannot divide a scalar by a form")
        if isinstance(b, _Sum):
            return b.scale(a)
        if op == "/":  # x/0 raises in Scalar division, with its message
            b = Fraction(1, b) if isinstance(b, _RATIONAL) and b else Scalar.one() / b
        return a.scale(b) if isinstance(a, _Sum) else a * b

    def combine_power(self, a: Value, b: Value, op: str) -> Value:
        if not isinstance(a, _Sum) and not isinstance(b, _Sum):
            k = b if isinstance(b, _RATIONAL) else b.as_fraction()
            if abs(k) > MAX_SCALAR_EXPONENT:
                self.error(f"scalar exponents are limited to {MAX_SCALAR_EXPONENT} "
                           "in absolute value")
        if (isinstance(a, _RATIONAL) and isinstance(b, _RATIONAL) and b.denominator == 1
                and (a or b >= 0)):
            return Fraction(a) ** int(b)
        a, b = _lift(a), _lift(b)
        if isinstance(a, Form) and isinstance(b, Form):
            return _Sum.of(wedge(a, b))
        if isinstance(a, Form) and isinstance(b, Scalar):
            k = b.as_fraction()
            if k.denominator != 1 or k < 0:
                self.error("form powers must be nonnegative integers")
            return _Sum.of(wedge_power(a, int(k)))
        if isinstance(a, Scalar) and isinstance(b, Scalar):
            return a.rational_power(b.as_fraction())
        self.error("unsupported '^' operands")


def parse_form_expr(text: str, dimension: int, env: dict[str, Value] | None = None,
                    allow_dt: bool = False, param_allowed: bool = True,
                    lineno: int = 1) -> Form:
    value = _parse_expr(text, dimension, env, allow_dt, param_allowed, lineno)
    if isinstance(value, Scalar):
        if value.is_zero():
            raise ParseError("a bare scalar is not a form (write it times a generator)",
                             lineno, 1)
        raise ParseError("expected a form, found a scalar", lineno, 1)
    return value  # type: ignore[return-value]


def parse_scalar_expr(text: str, lineno: int = 1) -> Scalar:
    value = _parse_expr(text, 1, None, False, True, lineno)
    if not isinstance(value, Scalar):
        raise ParseError("expected a scalar, found a form", lineno, 1)
    return value


# one term of a linear right-hand side, [+|-] [p[/q]] [*] eIJK, with spaces or
# tabs between its parts; after the last term, what ends a token list
_LINEAR_TERM = re.compile(
    r"[ \t]*([+-]?)[ \t]*(?:([0-9]+)[ \t]*(?:/[ \t]*([0-9]+)[ \t]*)?\*?[ \t]*)?e([1-9]+)")
_LINEAR_END = re.compile(r"[ \t]*(?:#|\s*\Z)")


def _linear_form(text: str, dimension: int) -> Form | None:
    """The form of a right-hand side that is wholly a sum of rational multiples
    of generators, as the Pratt parser reads it: int numerators summed over the
    lcm of the denominators in first-seen order, an index dropped as soon as its
    sum cancels.  None for any other text, and for a term that the parser
    rejects (a zero denominator, a generator above the dimension, a degree
    unlike the first term's, a literal that int() refuses), so that the parser
    raises its error."""
    found, pos = [], 0
    while m := _LINEAR_TERM.match(text, pos):
        if found and not m[1]:  # forms side by side multiply, which is an error
            return None
        found.append(m.groups())
        pos = m.end()
    if not found or not _LINEAR_END.match(text, pos):
        return None
    degree = len(found[0][3])
    terms = []
    for sign, p, q, digits in found:
        try:
            num, d = int(sign + (p or "1")), int(q or 1)
        except ValueError:  # over the interpreter's int-string limit
            return None
        gens = [*map(int, digits)]
        if not d or len(gens) != degree or max(gens) > dimension:
            return None
        koszul, idx = sort_index(gens)
        terms.append((idx, koszul * num, d))
    den = lcm(*(d for *_, d in terms))
    sums: dict = {}
    for idx, num, d in terms:
        if s := sums.get(idx, 0) + num * (den // d):
            sums[idx] = s
        else:
            sums.pop(idx, None)
    return _Sum(dimension, degree, sums, den).form()


def _parse_expr(text: str, dimension: int, env, allow_dt, param_allowed, lineno, col=1,
                groups: dict | None = None):
    """One right-hand side; ``groups`` is shared by the expressions of one file.
    A linear sum of generators is read by ``_linear_form``, anything else by
    the tokenizer and the Pratt parser."""
    if (form := _linear_form(text, dimension)) is not None:
        return form
    tokens = _tokenize(text, lineno, col)
    if not tokens:
        raise ParseError("empty expression", lineno, col)
    parser = _ExprParser(tokens, lineno, dimension, env or {}, allow_dt, param_allowed,
                         {} if groups is None else groups)
    return _lift(parser.parse())


@dataclass(frozen=True)
class Interval:
    lo: Fraction | None  # None = -inf
    hi: Fraction | None  # None = +inf

    def samples(self) -> list[Fraction]:
        """Three points of the interval: its quarter points when it is bounded,
        else steps of 1 inward from its finite end, or -1, 0, 1."""
        if self.lo is None and self.hi is None:
            return [Fraction(-1), Fraction(0), Fraction(1)]
        if self.lo is None:
            return [self.hi - k for k in (1, 2, 3)]
        if self.hi is None:
            return [self.lo + k for k in (1, 2, 3)]
        return [self.lo + (self.hi - self.lo) * Fraction(k, 4) for k in (1, 2, 3)]

    def render(self) -> str:
        lo = "-inf" if self.lo is None else str(self.lo)
        hi = "inf" if self.hi is None else str(self.hi)
        return f"({lo}, {hi})"


@dataclass
class FamilySection:
    domain: tuple[Interval, ...] = (Interval(None, None),)
    forms: dict[str, Form] = field(default_factory=dict)  # ambient dimension n+1


@dataclass
class BasisChangeSection:
    matrix: list[list[Scalar]]
    target: LieAlgebra


@dataclass
class StructureFile:
    algebra: LieAlgebra
    forms: dict[str, Form] = field(default_factory=dict)
    coframe_map: CoframeMap | None = None
    family: FamilySection | None = None
    basis_change: BasisChangeSection | None = None
    theta: tuple[Fraction, Fraction] | None = None  # (cos, sin)


def parse_equations(text: str, name: str | None = None) -> StructureFile:
    """Parse the rich line-oriented grammar into a structure file."""
    lines = text.splitlines()
    section = "algebra"
    dim: int | None = None
    # values are kept as (text, line, column of the text in its line)
    raw_diffs: dict[int, tuple[str, int, int]] = {}
    compact: LieAlgebra | None = None
    compact_at = (1, 1)  # line and value column of the compact declaration
    structure_lines: list[tuple[str, str, int, int]] = []
    family_lines: list[tuple[str, str, int, int]] = []
    basis_lines: list[tuple[str, str, int, int]] = []
    theta_text: tuple[str, int, int] | None = None
    groups: dict = {}  # parenthesized groups shared by every expression of this file

    for lineno, raw in enumerate(lines, start=1):
        text = raw.split("#", 1)[0]
        line = text.strip()
        if not line:
            continue
        indent = len(text) - len(text.lstrip())
        if line.startswith("["):
            if not line.endswith("]"):
                raise ParseError("malformed section header", lineno, 1)
            section = line[1:-1].strip().lower()
            if section not in ("algebra", "structure", "family", "basis_change"):
                raise ParseError(f"unknown section [{section}]", lineno, 1)
            continue
        if "=" not in line and not line.startswith("J"):
            raise ParseError("expected an assignment", lineno, 1)
        key, _, rhs = line.partition("=")
        col = indent + len(key) + 2 + len(rhs) - len(rhs.lstrip())
        key, rhs = key.strip(), rhs.strip()
        if section == "algebra":
            if key == "dim":
                if dim is not None:
                    raise ParseError("duplicate dim declaration", lineno, 1)
                dim = _number(rhs, lineno, col) if re.fullmatch(r"[0-9]+", rhs) else 0
                if not dim:
                    raise ParseError(f"dim must be a positive integer, got {rhs!r}",
                                     lineno, col)
            elif key == "compact":
                compact = parse_compact(rhs, name, lineno, col)
                compact_at = (lineno, col)
            elif m := _DIFF_KEY_RE.match(key):
                k = int(m.group(1))
                if k in raw_diffs:
                    raise ParseError(f"duplicate definition of d e{k}", lineno, 1)
                raw_diffs[k] = (rhs, lineno, col)
            else:
                raise ParseError(f"unknown algebra statement {key!r}", lineno, 1)
        elif section == "structure":
            if line.startswith("J"):
                structure_lines.append(("J", line, lineno, indent + 1))
            elif key == "theta":
                theta_text = (rhs, lineno, col)
            else:
                structure_lines.append((key, rhs, lineno, col))
        elif section == "family":
            family_lines.append((key, rhs, lineno, col))
        else:
            basis_lines.append((key, rhs, lineno, col))

    if compact is not None:
        if dim is not None and dim != compact.dimension:
            raise ParseError("dim contradicts the compact declaration", *compact_at)
        algebra = compact
        if raw_diffs:
            raise ParseError("cannot mix compact and explicit differentials", *compact_at)
    else:
        if dim is None:
            raise ParseError("missing dim declaration", 1, 1)
        diffs = []
        for k in range(1, dim + 1):
            if k in raw_diffs:
                rhs, lineno, col = raw_diffs[k]
                value = _parse_expr(rhs, dim, {}, False, True, lineno, col, groups)
                if isinstance(value, Scalar):
                    if not value.is_zero():
                        raise ParseError("a differential must be a 2-form or 0", lineno, col)
                    value = Form.zero(dim, 2)
                if value.degree != 2:
                    raise ParseError(f"d e{k} must have degree 2", lineno, col)
                diffs.append(value)
            else:
                diffs.append(Form.zero(dim, 2))
        for k, (rhs, lineno, _) in raw_diffs.items():
            if k > dim:
                raise ParseError(f"generator e{k} exceeds dimension {dim}", lineno, 1)
        algebra = LieAlgebra(dim, tuple(diffs), name)

    out = StructureFile(algebra)
    env: dict[str, Value] = {}
    n = algebra.dimension

    for key, rhs, lineno, col in structure_lines:
        if key == "J":
            out.coframe_map = _parse_j_line(rhs, n, lineno, col, groups)
            continue
        value = _parse_expr(rhs, n, env, False, True, lineno, col, groups)
        env[key] = value
        if isinstance(value, Form):
            out.forms[key] = value
    if theta_text is not None:
        out.theta = _parse_theta(*theta_text)

    if family_lines:
        fam = FamilySection()
        fam_env: dict[str, Value] = dict(env)
        for key, rhs, lineno, col in family_lines:
            if key == "param":
                if rhs != "t":
                    raise ParseError("the family parameter must be t", lineno, col)
            elif key == "domain":
                fam.domain = _parse_domain(rhs, lineno, col)
            else:
                value = _parse_expr(rhs, n + 1, fam_env, True, True, lineno, col, groups)
                if not isinstance(value, Form):
                    raise ParseError(f"{key} must be a form", lineno, col)
                fam_env[key] = value
                fam.forms[key] = value
        out.family = fam

    if basis_lines:
        rows: dict[int, list[Scalar]] = {}
        target: LieAlgebra | None = None
        for key, rhs, lineno, col in basis_lines:
            if key == "target":
                target = parse_compact(rhs, None, lineno, col)
                continue
            m = _ROW_KEY_RE.match(key)
            if not m:
                raise ParseError(f"basis change rows are f1..f{n}, got {key!r}", lineno, 1)
            value = _parse_expr(rhs, n, {}, False, True, lineno, col, groups)
            if not isinstance(value, Form) or value.degree != 1:
                raise ParseError(f"{key} must be a 1-form", lineno, col)
            rows[int(m.group(1))] = [value.coefficient((j,)) for j in range(1, n + 1)]
        if target is None:
            raise ParseError("basis_change section needs a target", 1, 1)
        if sorted(rows) != list(range(1, n + 1)):
            raise ParseError("basis_change must define f1..fn exactly once each", 1, 1)
        out.basis_change = BasisChangeSection([rows[i] for i in range(1, n + 1)], target)

    return out


def _parse_j_line(line: str, dimension: int, lineno: int, col: int, groups: dict) -> CoframeMap:
    head = re.match(r"J\s*:", line)
    if not head:
        raise ParseError("expected 'J:'", lineno, col)
    rows: dict[int, Form] = {}
    for entry in re.finditer(r"[^,]+", line[head.end():]):
        chunk = entry.group().strip()
        if not chunk:
            continue
        lhs, _, rhs = entry.group().partition("->")
        start = col + head.end() + entry.start()  # column of the entry's first character
        m = _GENERATOR_RE.match(lhs.strip())
        if not m:
            raise ParseError(f"bad J entry {chunk!r}", lineno,
                             start + len(lhs) - len(lhs.lstrip()))
        i = int(m.group(1))
        rhs_col = start + len(lhs) + 2 + len(rhs) - len(rhs.lstrip())
        image = _parse_expr(rhs.strip(), dimension, {}, False, True, lineno, rhs_col, groups)
        if not isinstance(image, Form) or image.degree != 1:
            raise ParseError(f"J must map generators to 1-forms: {chunk!r}", lineno, rhs_col)
        rows[i] = image
    if sorted(rows) != list(range(1, dimension + 1)):
        raise ParseError("J must specify the image of every generator", lineno, 1)
    zero = Scalar.zero()
    matrix = [[rows[i].coeffs.get((j,), zero) for j in range(1, dimension + 1)]
              for i in range(1, dimension + 1)]
    return CoframeMap(matrix)


def _parse_theta(text: str, lineno: int, col: int) -> tuple[Fraction, Fraction]:
    named = {
        "0": (Fraction(1), Fraction(0)),
        "pi/2": (Fraction(0), Fraction(1)),
        "pi": (Fraction(-1), Fraction(0)),
        "3pi/2": (Fraction(0), Fraction(-1)),
        "-pi/2": (Fraction(0), Fraction(-1)),
    }
    if text in named:
        return named[text]
    m = re.match(r"^\(\s*(-?\d+(?:/0*[1-9]\d*)?)\s*,\s*(-?\d+(?:/0*[1-9]\d*)?)\s*\)$", text)
    if not m:
        raise ParseError(
            "theta must be 0, pi/2, pi, 3pi/2 or a rational (cos, sin) pair", lineno, col)
    c, s = (_fraction(m[k], lineno, col + m.start(k)) for k in (1, 2))
    if c * c + s * s != 1:
        raise ParseError("theta pair must satisfy cos^2 + sin^2 = 1", lineno, col)
    return c, s


_INTERVAL_RE = re.compile(
    r"^\(\s*(-inf|-?\d+(?:/0*[1-9]\d*)?)\s*,\s*(inf|-?\d+(?:/0*[1-9]\d*)?)\s*\)$")


def _parse_domain(text: str, lineno: int, col: int) -> tuple[Interval, ...]:
    out = []
    for part in text.split("|"):
        at = col + len(part) - len(part.lstrip())  # the column of part.strip()
        col += len(part) + 1
        m = _INTERVAL_RE.match(part.strip())
        if not m:
            raise ParseError(f"bad interval {part.strip()!r}", lineno, at)
        lo = None if m[1] == "-inf" else _fraction(m[1], lineno, at + m.start(1))
        hi = None if m[2] == "inf" else _fraction(m[2], lineno, at + m.start(2))
        if lo is not None and hi is not None and lo >= hi:
            raise ParseError("empty interval", lineno, at)
        out.append(Interval(lo, hi))
    return tuple(out)


# ---------------------------------------------------------------------------
# Chevalley-Eilenberg cohomology.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CohomologyReport:
    betti: tuple[int, ...]  # degrees 0..max_degree
    representatives: tuple[tuple[Form, ...], ...]

    def render(self) -> str:
        lines = []
        for k, (b, reps) in enumerate(zip(self.betti, self.representatives)):
            shown = ", ".join(f"[{r.render()}]" for r in reps)
            lines.append(f"b{k} = {b}" + (f"  representatives: {shown}" if shown else ""))
        return "\n".join(lines)


def _d_columns(algebra: LieAlgebra, top: int) -> list[list[dict[int, int]]]:
    """For k = 0..top, L*d(e^I) for each degree-k basis form e^I as a sparse
    column {position in the degree-(k+1) basis: int}: ``exterior._d_basis``,
    the popcount-signed kernel of d, on the algebra's int ``structure_table``
    over the lcm L of its denominators."""
    _, table = algebra.structure_table
    masks = [[sum(1 << i for i in idx) for idx in itertools.combinations(
        range(1, algebra.dimension + 1), k)] for k in range(top + 2)]
    position = {mask: pos for level in masks for pos, mask in enumerate(level)}
    return [[{position[t]: v for t, v in _d_basis(table, mask).items() if v} for mask in level]
            for level in masks[:top + 1]]


def ce_cohomology(algebra: LieAlgebra, max_degree: int | None = None) -> CohomologyReport:
    """Betti numbers and class representatives up to max_degree.  The RREF kernel basis of
    d_k has one cocycle v_f per free column f, 1 at f and 0 at the other free columns, so a
    coboundary w is sum_f w[f] v_f.  The pivot columns of d_{k-1} map onto the coboundaries;
    in their echelon on the free coordinates, largest first, v_f is a class iff no row leads f.
    Row J of d_k is the transpose boundary of e_J, whose boundary is 0, so d_k's rows at the free
    columns of d_{k+1} span its row space: all echelons take 2^n - 1 row insertions together."""
    if not algebra.is_rational():
        raise UnsupportedScalarError("cohomology requires rational structure constants")
    if max_degree is not None and max_degree < 0:
        raise ValueError(f"the maximum degree must be nonnegative, got {max_degree}")
    n = algebra.dimension
    top = n if max_degree is None else min(max_degree, n)
    tables = _d_columns(algebra, max(top, 2))
    # d^2 = 0 on the generators, as the integer product D_2 D_1 of the tables
    for col in tables[1]:
        image: dict[int, int] = {}
        for r, c in col.items():
            for t, x in tables[2][r].items():
                image[t] = image.get(t, 0) + c * x
        if any(image.values()):
            raise ValueError("algebra fails the Jacobi identity; d^2 != 0")
    levels = []  # (echelon, pivots, free columns) of each d_k, top degree first
    spanning: Iterable[int] = range(comb(n, top + 1))  # the rows of d_k offered to its echelon
    for k in range(top, -1, -1):
        rows = {r: {c: col[r] for c, col in enumerate(tables[k]) if r in col} for r in spanning}
        echelon, pivots = [], []
        for row in rows.values():
            _insert_row(echelon, pivots, row)
        spanning = set(range(len(tables[k]))).difference(pivots)
        levels.append((echelon, pivots, spanning))
    reps: list[tuple[Form, ...]] = []
    bounding: list[dict[int, int]] = []  # d e^J for the pivot columns J of d_{k-1}
    for k, (echelon, pivots, free) in enumerate(reversed(levels)):
        coboundaries, leads = [], []
        for col in bounding:
            _insert_row(coboundaries, leads, {-f: v for f, v in col.items() if f in free})
        bounding = [col for c, col in enumerate(tables[k]) if c not in free]
        classes = sorted(f for f in free if -f not in leads)
        basis = list(itertools.combinations(range(1, n + 1), k))
        reps.append(tuple(Form(n, k, {basis[i]: Scalar.rational(c) for i, c in vec.items()})
                          for vec in kernel_vectors(echelon, pivots, classes)))
    return CohomologyReport(tuple(map(len, reps)), tuple(reps))


# the layer tracer rebinds insert_echelon_row by identity, so this alias counts nothing; it
# stays for ce_cohomology's call, test_algebras' patch and test_cli's and perfbench's asserts
_insert_row = insert_echelon_row


# ---------------------------------------------------------------------------
# Extensions and basis changes.
# ---------------------------------------------------------------------------


def lift_form(a: Form, new_dimension: int) -> Form:
    if new_dimension < a.dimension:
        raise ValueError("cannot lift to a smaller dimension")
    return Form(new_dimension, a.degree, dict(a.coeffs))


def extend_by_line(algebra: LieAlgebra) -> LieAlgebra:
    """Append a closed generator (labelled dt) as e^(n+1)."""
    n = algebra.dimension
    diffs = tuple(lift_form(d, n + 1) for d in algebra.differentials)
    return LieAlgebra(n + 1, diffs + (Form.zero(n + 1, 2),))


def central_extension(algebra: LieAlgebra, curvature: Form) -> LieAlgebra:
    """Circle-bundle model: new generator rho with d rho = curvature."""
    if algebra.dimension != curvature.dimension or curvature.degree != 2:
        raise ValueError("curvature must be a 2-form on the base algebra")
    if not exterior_derivative(algebra, curvature).is_zero():
        raise ValueError("curvature 2-form must be closed")
    n = algebra.dimension
    diffs = tuple(lift_form(d, n + 1) for d in algebra.differentials)
    diffs = diffs + (lift_form(curvature, n + 1),)
    return LieAlgebra(n + 1, diffs)


def verify_basis_change(algebra: LieAlgebra, matrix: Sequence[Sequence[Scalar]],
                        target: LieAlgebra) -> Report:
    """Check d f^i = target differentials under f^i = sum_j M[i][j] e^j.

    Both sides are compared in the e-basis: the left side is sum_j M[i][j]
    d e^j, the right side is the target differential with every generator
    substituted by the corresponding row of M.  No matrix inversion is
    needed, which keeps everything inside exact scalar arithmetic.
    """
    n = algebra.dimension
    if target.dimension != n or len(matrix) != n or any(len(r) != n for r in matrix):
        raise ValueError("matrix and algebras must share one dimension")
    det = scalar_matrix_determinant(matrix)
    if det.is_zero():
        raise ValueError("basis-change matrix is singular")
    cmap = CoframeMap([list(row) for row in matrix])
    rows = []
    exact = True
    for i in range(n):
        lhs = Form.zero(n, 2)
        for j in range(n):
            if not matrix[i][j].is_zero():
                lhs = lhs + algebra.differentials[j].scale(matrix[i][j])
        rhs = apply_coframe_map(cmap, target.differentials[i])
        same = lhs == rhs
        exact &= same
        rows.append((f"d f{i + 1}", lhs, Scalar.one() if same else _proportionality(lhs, rhs)))
    # off target, each d f^i with a target proportional to it shows the factor
    return Report("basis change", exact, tuple(
        (label, lhs) if exact or c is None
        else (label, lhs, f"   (matches target up to factor {c.render()})")
        for label, lhs, c in rows))


def _proportionality(lhs: Form, rhs: Form) -> Scalar | None:
    if rhs.is_zero():
        return None if not lhs.is_zero() else Scalar.one()
    if lhs.is_zero():
        return None
    ratio = None
    for idx in sorted(rhs.coeffs):
        try:
            ratio = lhs.coefficient(idx) / rhs.coeffs[idx]
            break
        except UnsupportedScalarError:
            continue
    if ratio is None:
        return None
    return ratio if lhs == rhs.scale(ratio) else None
