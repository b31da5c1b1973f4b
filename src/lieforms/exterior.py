"""Graded exterior algebra over an n-dimensional coframe with Scalar coefficients.

Forms are stored as maps from strictly increasing index tuples (values 1..n)
to Scalars; a Koszul sign is the parity of inversions, counted by popcount.
The exterior derivative of a left-invariant form is driven by the structure
equations of a Lie algebra, read once into its ``structure_table``;
coefficients are constants on the group, so d never differentiates them.  The
parameter derivative partial_t acts coefficient-wise.

Products of coefficients are summed in a ``_Sum`` over one denominator: each
input form's coefficients are read once, as int numerators over the lcm of
their denominators (a coefficient that is not a rational constant stays a
Scalar, times that lcm), so products of rational coefficients are products of
ints.  One Scalar is made per index at the end, from its numerator and the
denominator with one gcd: no Fraction is built on the way (Knuth, TAOCP vol. 2,
4.5.1).
d is one kernel, ``_d_basis``, shared with the cohomology differentials: c e^I
adds (-1)^p c s e^{ab + I minus i_p} per term s e^{ab} of d e^{i_p}, on the
structure constants as int numerators over their lcm.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from ._linalg import (
    _integral,
    insert_echelon_row,
    scalar_identity,
    scalar_mat_eq,
    scalar_mat_mul,
    scalar_mat_neg,
)
from .scalars import Scalar

if TYPE_CHECKING:
    from .algebras import LieAlgebra

Index = tuple[int, ...]


def sort_index(indices: Sequence[int]) -> tuple[int, Index]:
    """Sort an index tuple, returning the Koszul sign (0 on repeats): the
    parity of the pairs out of order, counted as the earlier indices above each."""
    seen = odd = 0
    for i in indices:
        if seen >> i & 1:
            return 0, ()
        odd ^= (seen >> i).bit_count()
        seen |= 1 << i
    return -1 if odd & 1 else 1, tuple(sorted(indices))


def _indices(mask: int) -> Index:
    """The sorted index tuple of a bitmask with bit i for e^i."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _check_shapes(a: Form | _Sum, b: Form | _Sum) -> None:
    if a.dimension != b.dimension:
        raise ValueError("forms live over different coframe dimensions")
    if a.degree != b.degree:
        raise ValueError("forms have different degrees")


@dataclass
class Form:
    """A degree-k exterior form over an n-dimensional coframe."""

    dimension: int
    degree: int
    coeffs: dict[Index, Scalar] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for idx in self.coeffs:
            if len(idx) != self.degree:
                raise ValueError(f"index {idx} has wrong length for degree {self.degree}")

    @staticmethod
    def zero(dimension: int, degree: int) -> Form:
        return Form(dimension, degree)

    @staticmethod
    def from_terms(dimension: int, degree: int,
                   terms: Iterable[tuple[Sequence[int], Scalar | Fraction | int]]) -> Form:
        """Build a form from possibly unsorted index tuples, normalizing signs."""
        out = _Sum(dimension, degree)
        for indices, value in terms:
            if len(indices) != degree:
                raise ValueError(f"index {tuple(indices)} has wrong length for degree {degree}")
            for i in indices:
                if not 1 <= i <= dimension:
                    raise ValueError(f"index {i} out of range 1..{dimension}")
            sign, idx = sort_index(indices)
            if sign:
                den, c = _numerators(
                    {idx: value if isinstance(value, Scalar) else Scalar.rational(value)})
                out.merge(_Sum(dimension, degree, c, den), sign)
        return out.form()

    @staticmethod
    def generator(dimension: int, index: int) -> Form:
        """The coframe 1-form e^index."""
        return Form.from_terms(dimension, 1, [((index,), 1)])

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, indices: Sequence[int]) -> Scalar:
        sign, idx = sort_index(indices)
        if sign == 0:
            return Scalar.zero()
        value = self.coeffs.get(idx, Scalar.zero())
        return value if sign > 0 else -value

    def __add__(self, other: Form) -> Form:
        if not isinstance(other, Form):
            return NotImplemented
        return _Sum.of(self).merge(_Sum.of(other)).form()

    def __sub__(self, other: Form) -> Form:
        return self + (-other)

    def __neg__(self) -> Form:
        return Form(self.dimension, self.degree,
                    {idx: -val for idx, val in self.coeffs.items()})

    def scale(self, factor: Scalar | Fraction | int) -> Form:
        scal = factor if isinstance(factor, Scalar) else Scalar.rational(factor)
        if scal.is_zero():
            return Form.zero(self.dimension, self.degree)
        return Form(self.dimension, self.degree,
                    {idx: scal * val for idx, val in self.coeffs.items()})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Form):
            return NotImplemented
        return (self.dimension == other.dimension and self.degree == other.degree
                and self.coeffs == other.coeffs)

    def render(self) -> str:
        if not self.coeffs:
            return "0"
        parts: list[str] = []
        for idx in sorted(self.coeffs):
            coeff = self.coeffs[idx]
            token = "e" + "".join(str(i) for i in idx) if idx else "1"
            text, negative = _coeff_text(coeff, token)
            if not parts:
                parts.append(f"-{text}" if negative else text)
            else:
                parts.append(f"- {text}" if negative else f"+ {text}")
        return " ".join(parts)

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"Form({self.dimension}d deg {self.degree}: {self.render()})"


@dataclass(frozen=True)
class Report:
    """A pass/fail verdict: named rows under a title, then sub-reports.

    A row is ``(label, value)`` or ``(label, value, note)``.  ``ok`` is the
    verdict of this report's own checks, which need not all be rows shown;
    ``passed`` also asks every part.  ``words`` are the header's verdicts for
    ``ok`` and for its negation; an empty title drops the header line.
    """

    title: str
    ok: bool
    rows: tuple[tuple, ...] = ()
    words: tuple[str, str] = ("pass", "FAIL")
    parts: tuple[Report, ...] = ()

    @property
    def passed(self) -> bool:
        return self.ok and all(part.passed for part in self.parts)

    @property
    def residuals(self) -> tuple[tuple[str, Form], ...]:
        """The (label, form) rows."""
        return tuple((row[0], row[1]) for row in self.rows if isinstance(row[1], Form))

    def value(self, label: str):
        """The value of the row labelled ``label``, None when there is none."""
        return next((row[1] for row in self.rows if row[0] == label), None)

    def render(self) -> str:
        lines = [f"{self.title}: {self.words[not self.ok]}"] if self.title else []
        for label, value, *note in self.rows:
            if isinstance(value, bool):
                lines.append(f"  {label}: {'ok' if value else 'FAIL'}")
            elif isinstance(value, Form):
                lines.append(f"  {label} = {value.render()}{''.join(note)}")
            else:
                lines.append(f"  {label}: {value}")
        lines.extend(part.render() for part in self.parts)
        return "\n".join(lines)


def residual_report(title: str, residuals: Iterable[tuple],
                    words: tuple[str, str] = ("pass", "FAIL"),
                    parts: tuple[Report, ...] = ()) -> Report:
    """A report that passes when every residual form vanishes."""
    rows = tuple(residuals)
    return Report(title, all(row[1].is_zero() for row in rows), rows, words, parts)


def _coeff_text(coeff: Scalar, token: str) -> tuple[str, bool]:
    """Render coeff * e-token, factoring a leading minus when unambiguous."""
    text = coeff.render()
    if text == "1":
        return token, False
    if text == "-1":
        return token, True
    negative = False
    if (" " not in text) and text.startswith("-"):
        negative = True
        text = text[1:]
    if " " in text:
        text = f"({text})"
    return f"{text}*{token}", negative


def _numerators(coeffs: Mapping) -> tuple[int, dict]:
    """L and each value of ``coeffs`` times L, each read once as its reduced int
    pair: an int when the value is a rational constant, else a Scalar; L is the
    lcm of the rational denominators."""
    out, den = {}, 1
    for key, c in coeffs.items():
        q = c.rational_pair()
        if q is None:
            out[key] = c
        elif q[1] == 1:
            out[key] = q[0]
        else:
            out[key] = q
            den = lcm(den, q[1])
    if den != 1:
        for key, p in out.items():
            out[key] = p[0] * (den // p[1]) if type(p) is tuple else p * den
    return den, out


def _mask(idx: Index) -> int:
    mask = 0
    for i in idx:
        mask |= 1 << i
    return mask


class _Sum(dict):
    """The coefficients of a form being built, by sorted index in first-seen
    order, as numerators over the one denominator ``den``: an int while every
    summand is rational, else a Scalar."""

    def __init__(self, dimension: int, degree: int, entries=(), den: int = 1):
        super().__init__(entries)
        self.dimension, self.degree, self.den = dimension, degree, den

    @staticmethod
    def of(a: Form) -> _Sum:
        den, nums = _numerators(a.coeffs)
        return _Sum(a.dimension, a.degree, nums, den)

    def add(self, idx: Index, sign: int, product: int | Scalar) -> None:
        if sign < 0:
            product = -product
        self[idx] = self[idx] + product if idx in self else product

    def merge(self, other: _Sum, sign: int = 1) -> _Sum:
        """self + sign*other, in place, over the lcm of the two denominators.  As
        in Form.__add__, an index whose sum is 0 leaves at once, so a later term
        re-enters it at the end."""
        _check_shapes(self, other)
        k = 1
        if other.den != self.den:
            den = lcm(self.den, other.den)
            k, j = den // other.den, den // self.den
            if j != 1:
                for idx, c in self.items():
                    self[idx] = c * j
                self.den = den
        for idx, c in other.items():
            self.add(idx, sign, c * k if k != 1 else c)
            if not self[idx]:
                del self[idx]
        return self

    def scale(self, factor: int | Fraction | Scalar) -> _Sum:
        """factor * self, in place; a zero factor leaves no index.  A rational
        p/q multiplies each numerator by p and den by q; a Scalar makes each
        entry a Scalar."""
        if not factor:
            self.clear()
        elif isinstance(factor, Scalar):
            for idx, c in self.items():
                self[idx] = factor * c
        else:
            p = factor.numerator
            if p != 1:
                for idx, c in self.items():
                    self[idx] = c * p
            self.den *= factor.denominator
        return self

    def __neg__(self) -> _Sum:
        return _Sum(self.dimension, self.degree, {idx: -c for idx, c in self.items()}, self.den)

    def form(self) -> Form:
        den = self.den
        return Form(self.dimension, self.degree, {
            idx: Scalar.rational(c, den) if type(c) is int
            else c if den == 1 else c * Scalar.rational(1, den)
            for idx, c in self.items() if c})


def wedge(a: Form, b: Form) -> Form:
    """Exterior product with the Koszul sign convention."""
    if a.dimension != b.dimension:
        raise ValueError("forms live over different coframe dimensions")
    da, left = _numerators(a.coeffs)
    db, right = _numerators(b.coeffs)
    right = [(ib, _mask(ib), y) for ib, y in right.items()]
    out = _Sum(a.dimension, a.degree + b.degree, den=da * db)
    for ia, x in left.items():
        ma = _mask(ia)
        for ib, mb, y in right:
            if not ma & mb:  # overlapping indices wedge to 0
                sign, idx = sort_index(ia + ib)
                out.add(idx, sign, x * y)
    return out.form()


def wedge_power(a: Form, k: int) -> Form:
    if k < 0:
        raise ValueError("negative wedge power")
    if k == 0:
        return Form(a.dimension, 0, {(): Scalar.one()})
    if k * a.degree > a.dimension:
        return Form.zero(a.dimension, k * a.degree)
    out = a
    for _ in range(k - 1):
        out = wedge(out, a)
    return out


def contract(vector: Sequence[Scalar | Fraction | int], a: Form) -> Form:
    """Interior product i_X a for X given by frame components."""
    if a.degree == 0:
        raise ValueError("cannot contract a degree-0 form")
    if len(vector) != a.dimension:
        raise ValueError("vector has wrong number of components")
    dv, comps = _numerators({i: v if isinstance(v, Scalar) else Scalar.rational(v)
                             for i, v in enumerate(vector, start=1)})
    da, coeffs = _numerators(a.coeffs)
    out = _Sum(a.dimension, a.degree - 1, den=da * dv)
    for idx, c in coeffs.items():
        for pos, i in enumerate(idx):
            if comps[i]:
                out.add(idx[:pos] + idx[pos + 1:], -1 if pos % 2 else 1, c * comps[i])
    return out.form()


@dataclass
class CoframeMap:
    """A linear map on the coframe, J e^i = sum_j M[i][j] e^j."""

    matrix: list[list[Scalar]]

    @staticmethod
    def from_rows(rows: Sequence[Sequence[Scalar | Fraction | int]]) -> CoframeMap:
        out = [[v if isinstance(v, Scalar) else Scalar.rational(v) for v in row]
               for row in rows]
        n = len(out)
        if any(len(row) != n for row in out):
            raise ValueError("coframe matrix must be square")
        return CoframeMap(out)

    @property
    def dimension(self) -> int:
        return len(self.matrix)

    def squares_to_minus_identity(self) -> bool:
        m = self.matrix
        return scalar_mat_eq(scalar_mat_mul(m, m), scalar_mat_neg(scalar_identity(len(m))))

    def is_orthogonal(self) -> bool:
        """M M^T = I, the condition for J to preserve the frame metric."""
        m = self.matrix
        transpose = [list(col) for col in zip(*m)]
        return scalar_mat_eq(scalar_mat_mul(m, transpose), scalar_identity(len(m)))


def apply_coframe_map(cmap: CoframeMap, a: Form) -> Form:
    """Extend the coframe map to k-forms factor-wise (algebra morphism)."""
    if cmap.dimension != a.dimension:
        raise ValueError("coframe map dimension mismatch")
    if a.degree == 0:
        return a
    dm, entries = _numerators({(i, j): c for i, row in enumerate(cmap.matrix)
                               for j, c in enumerate(row, start=1) if c})
    rows: list[list[tuple[int, int | Scalar]]] = [[] for _ in cmap.matrix]
    for (i, j), m in entries.items():
        rows[i].append((j, m))
    da, coeffs = _numerators(a.coeffs)
    out = _Sum(a.dimension, a.degree, den=da * dm**a.degree)
    for idx, c in coeffs.items():
        # c e^{i_1..i_k} goes to c M[i_1][j_1]..M[i_k][j_k] e^{j_1..j_k}, j distinct
        products = [((), c)]
        for i in idx:
            products = [(jdx + (j,), x * m) for jdx, x in products
                        for j, m in rows[i - 1] if j not in jdx]
        for jdx, x in products:
            sign, kdx = sort_index(jdx)
            out.add(kdx, sign, x)
    return out.form()


def _d_basis(table: list, mask: int) -> dict:
    """d e^I for the bitmask I as {target mask: coefficient}, sums of 0 kept.  A term
    s e^ab of d e^{i_pos} adds (-1)^pos s e^ab ^ e^rest, and (-1)^|rest & mid| sorts it."""
    out: dict = {}
    bits, pos = mask, 0
    while bits:  # bit = 1 << i_pos, lowest first
        bit = bits & -bits
        bits ^= bit
        rest = mask ^ bit
        for ab, mid, s in table[bit.bit_length() - 2]:
            if not rest & ab:
                t = rest | ab
                v = -s if (pos + (rest & mid).bit_count()) & 1 else s
                out[t] = out[t] + v if t in out else v
        pos += 1
    return out


def exterior_derivative(algebra: LieAlgebra, a: Form) -> Form:
    """d extended as an antiderivation from the algebra's ``structure_table``."""
    den, rows = algebra.structure_table
    if len(rows) != a.dimension:
        raise ValueError("form does not live on the given algebra")
    da, coeffs = _numerators(a.coeffs)
    out = _Sum(a.dimension, a.degree + 1, den=da * den)
    for idx, c in coeffs.items():
        for t, v in _d_basis(rows, _mask(idx)).items():
            out.add(_indices(t), 1, c * v)
    return out.form()


def partial_t(a: Form) -> Form:
    """Coefficient-wise d/dt."""
    coeffs = {}
    for idx, coeff in a.coeffs.items():
        d = coeff.diff()
        if not d.is_zero():
            coeffs[idx] = d
    return Form(a.dimension, a.degree, coeffs)


@dataclass(frozen=True)
class SpanReport:
    rank: int
    basis_indices: tuple[int, ...]  # the forms that grow the span, in input order


def span_rank(forms: Sequence[Form]) -> SpanReport:
    """Rank of a span of rational forms via exact fraction-free elimination."""
    if not forms:
        return SpanReport(0, ())
    dim, deg = forms[0].dimension, forms[0].degree
    if any(f.dimension != dim or f.degree != deg for f in forms):
        raise ValueError("forms in a span must share dimension and degree")
    column = {idx: c for c, idx in enumerate(sorted({idx for f in forms for idx in f.coeffs}))}
    echelon: list[dict[int, int]] = []
    pivots: list[int] = []
    basis = tuple(i for i, f in enumerate(forms) if insert_echelon_row(
        echelon, pivots, dict(zip(map(column.get, f.coeffs), _integral([f.coeffs.values()])[0]))))
    return SpanReport(len(basis), basis)
