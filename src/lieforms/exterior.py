"""Graded exterior algebra over an n-dimensional coframe with Scalar coefficients.

Forms are stored as maps from strictly increasing index tuples (values 1..n)
to Scalars; a Koszul sign is the parity of inversions, counted by popcount.
The exterior derivative of a left-invariant form is driven by the structure
equations of a Lie algebra (any object exposing ``dimension`` and
``differentials``); coefficients are constants on the group, so d never
differentiates them.  The parameter derivative partial_t acts coefficient-wise.

Products of coefficients are summed in a ``_Sum``: an index's sum stays an
int or Fraction while every summand is rational, and one Scalar is made per
index at the end.
d is one kernel, ``_d_basis``, shared with the cohomology differentials: c e^I
adds (-1)^p c s e^{ab + I minus i_p} per term s e^{ab} of d e^{i_p}.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

from ._linalg import (
    insert_echelon_row,
    scalar_identity,
    scalar_mat_eq,
    scalar_mat_mul,
    scalar_mat_neg,
)
from .scalars import Scalar

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
                c = _part(value) if isinstance(value, Scalar) else value
                out.merge(_Sum(dimension, degree, {idx: c}), sign)
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

    def __mul__(self, factor: Scalar | Fraction | int) -> Form:
        return self.scale(factor)

    __rmul__ = __mul__

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


def _part(c: Scalar) -> int | Fraction | Scalar:
    """A coefficient as an int or Fraction when it is rational, else the Scalar."""
    q = c.rational_number()
    return c if q is None else q


class _Sum(dict):
    """The coefficients of a form being built, by sorted index in first-seen
    order: a rational (int or Fraction) while every summand is, else a Scalar."""

    def __init__(self, dimension: int, degree: int, entries=()):
        super().__init__(entries)
        self.dimension, self.degree = dimension, degree

    @staticmethod
    def of(a: Form) -> _Sum:
        return _Sum(a.dimension, a.degree, {idx: _part(c) for idx, c in a.coeffs.items()})

    def add(self, idx: Index, sign: int, product: int | Fraction | Scalar) -> None:
        if sign < 0:
            product = -product
        self[idx] = self[idx] + product if idx in self else product

    def merge(self, other: _Sum, sign: int = 1) -> _Sum:
        """self + sign*other, in place.  As in Form.__add__, an index whose sum
        is 0 leaves at once, so a later term re-enters it at the end."""
        _check_shapes(self, other)
        for idx, c in other.items():
            self.add(idx, sign, c)
            if not self[idx]:
                del self[idx]
        return self

    def scale(self, factor: int | Fraction | Scalar) -> _Sum:
        """factor * self, in place; a zero factor leaves no index, and a unit
        entry (rational +-1) takes factor or -factor with no product."""
        if not factor:
            self.clear()
        for idx, c in self.items():
            unit = isinstance(c, (int, Fraction)) and c in (1, -1)
            self[idx] = (factor if c > 0 else -factor) if unit else factor * c
        return self

    def __neg__(self) -> _Sum:
        return _Sum(self.dimension, self.degree, {idx: -c for idx, c in self.items()})

    def form(self) -> Form:
        return Form(self.dimension, self.degree, {
            idx: c if isinstance(c, Scalar) else Scalar.rational(c)
            for idx, c in self.items() if c})


def wedge(a: Form, b: Form) -> Form:
    """Exterior product with the Koszul sign convention."""
    if a.dimension != b.dimension:
        raise ValueError("forms live over different coframe dimensions")
    right = [(ib, _part(cb)) for ib, cb in b.coeffs.items()]
    out = _Sum(a.dimension, a.degree + b.degree)
    for ia, ca in a.coeffs.items():
        x = _part(ca)
        for ib, y in right:
            sign, idx = sort_index(ia + ib)
            if sign:
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
    comps = [_part(v) if isinstance(v, Scalar) else Fraction(v) for v in vector]
    out = _Sum(a.dimension, a.degree - 1)
    for idx, coeff in a.coeffs.items():
        c = _part(coeff)
        for pos, i in enumerate(idx):
            if comps[i - 1]:
                out.add(idx[:pos] + idx[pos + 1:], -1 if pos % 2 else 1, c * comps[i - 1])
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

    def as_fraction_matrix(self) -> list[list[Fraction]]:
        return [[c.as_fraction() for c in row] for row in self.matrix]


def apply_coframe_map(cmap: CoframeMap, a: Form) -> Form:
    """Extend the coframe map to k-forms factor-wise (algebra morphism)."""
    if cmap.dimension != a.dimension:
        raise ValueError("coframe map dimension mismatch")
    if a.degree == 0:
        return a
    rows = [[(j, _part(c)) for j, c in enumerate(row, start=1) if c] for row in cmap.matrix]
    out = _Sum(a.dimension, a.degree)
    for idx, coeff in a.coeffs.items():
        # c e^{i_1..i_k} goes to c M[i_1][j_1]..M[i_k][j_k] e^{j_1..j_k}, j distinct
        products = [((), _part(coeff))]
        for i in idx:
            products = [(jdx + (j,), x * m) for jdx, x in products
                        for j, m in rows[i - 1] if j not in jdx]
        for jdx, x in products:
            sign, kdx = sort_index(jdx)
            out.add(kdx, sign, x)
    return out.form()


def _d_table(algebra) -> list[list[tuple[int, int, Fraction | Scalar]]]:
    """Each generator's terms s e^ab of d e^i as (mask of ab, mask of the bits
    a..b-1, s), read once per call: the algebra's differentials may change."""
    return [[(1 << a | 1 << b, (1 << b) - (1 << a), _part(s)) for (a, b), s in d.coeffs.items()]
            for d in algebra.differentials]


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


def exterior_derivative(algebra, a: Form) -> Form:
    """d extended as an antiderivation from the algebra's structure equations."""
    return _d_form(_d_table(algebra), a)


def _d_form(table: list, a: Form) -> Form:
    """d a from an algebra's ``_d_table``, one row per generator."""
    if len(table) != a.dimension:
        raise ValueError("form does not live on the given algebra")
    out = _Sum(a.dimension, a.degree + 1)
    for idx, coeff in a.coeffs.items():
        c = _part(coeff)
        for t, v in _d_basis(table, sum(1 << i for i in idx)).items():
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
        echelon, pivots, {column[idx]: s.as_fraction() for idx, s in f.coeffs.items()}))
    return SpanReport(len(basis), basis)
