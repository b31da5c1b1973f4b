"""SU(2) quadruplets and SU(n) triples: validity, balanced/hypo conditions,
hypersurface restriction, suspension, circle bundles, conformal couples.

An SU(2)-structure on a 5-dimensional algebra is a quadruplet (eta, omega1,
omega2, omega3) whose 2-forms wedge to a common volume 4-form, pairwise
orthogonally, with a positivity condition.  Positivity is checked through the
derived endomorphisms on ker eta: with omega1 = omega3(A., .) and
omega2 = omega3(B., .), a valid quadruplet has A^2 = B^2 = -Id, AB = -BA and
a symmetric positive-definite reconstructed metric eta(x)eta(y) - omega2(x, Ay).
This reproduces the normal form eta = e1, omega1 = e24 + e53,
omega2 = e25 + e34, omega3 = e23 + e45, which pins all sign conventions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from ._linalg import (
    fraction_nullspace,
    is_scaled_identity,
    positive_definite,
    scalar_mat_mul,
    scalar_mat_neg,
    symmetric,
)
from .algebras import LieAlgebra, central_extension, extend_by_line, lift_form
from .exterior import (
    CoframeMap,
    Form,
    Report,
    apply_coframe_map,
    contract,
    residual_report,
    wedge,
    wedge_power,
)
from .scalars import Scalar, UnsupportedScalarError


@dataclass(frozen=True)
class SU2Structure:
    """A quadruplet (eta, omega1, omega2, omega3); frozen, so ``geometry`` is built once."""

    algebra: LieAlgebra
    eta: Form
    omega1: Form
    omega2: Form
    omega3: Form
    name: str | None = None

    def __post_init__(self) -> None:
        if self.algebra.dimension != 5:
            raise ValueError("SU(2)-structures live on 5-dimensional algebras")
        for f, deg in ((self.eta, 1), (self.omega1, 2), (self.omega2, 2), (self.omega3, 2)):
            if f.dimension != 5 or f.degree != deg:
                raise ValueError("quadruplet has wrong degrees or dimension")

    @cached_property
    def geometry(self) -> Su2Geometry:
        return su2_geometry(self)


@dataclass
class SUnStructure:
    algebra: LieAlgebra
    F: Form
    psi_plus: Form
    psi_minus: Form
    J: CoframeMap

    def __post_init__(self) -> None:
        dim = self.algebra.dimension
        if dim % 2:
            raise ValueError("SU(n)-structures live on even-dimensional algebras")
        for f, deg in ((self.F, 2), (self.psi_plus, dim // 2), (self.psi_minus, dim // 2)):
            if f.dimension != dim or f.degree != deg:
                raise ValueError("(F, psi_plus, psi_minus) has wrong degrees or dimension")
        if self.J.dimension != dim:
            raise ValueError("J dimension mismatch")

    @property
    def n(self) -> int:
        return self.algebra.dimension // 2


def complex_volume_forms(pairs: list[tuple[Form, Form]]) -> tuple[Form, Form]:
    """Real and imaginary parts of the wedge of complex 1-forms re + i*im."""
    re, im = pairs[0]
    for re2, im2 in pairs[1:]:
        re, im = (wedge(re, re2) - wedge(im, im2),
                  wedge(re, im2) + wedge(im, re2))
    return re, im


def standard_quadruplet(algebra: LieAlgebra, name: str | None = None) -> SU2Structure:
    """eta = e1, omega1 = e24 + e53, omega2 = e25 + e34, omega3 = e23 + e45."""
    mk = lambda *terms: Form.from_terms(5, 2, terms)
    return SU2Structure(
        algebra,
        eta=Form.generator(5, 1),
        omega1=mk(((2, 4), 1), ((5, 3), 1)),
        omega2=mk(((2, 5), 1), ((3, 4), 1)),
        omega3=mk(((2, 3), 1), ((4, 5), 1)),
        name=name,
    )


# ---------------------------------------------------------------------------
# SU(2) validation.
# ---------------------------------------------------------------------------


@dataclass
class Su2Geometry:
    """Derived frame data: Reeb vector, kernel basis, endomorphisms, metric, projections."""

    xi: list[Scalar]                    # frame components of the Reeb vector
    kernel_basis: list[list[int | Fraction]]  # four rational frame vectors spanning ker eta
    endo_a: list[list[Scalar]]          # omega1 = omega3(A., .) on ker eta
    endo_b: list[list[Scalar]]
    metric: list[list[Scalar]]          # 5x5 frame metric
    proj: list[list[Scalar]]            # kernel coordinates of e_x - eta(e_x) xi


def su2_wedge_identities(omega1: Form, omega2: Form,
                         omega3: Form) -> tuple[list[tuple[str, bool]], Form]:
    """The Prop-2.1-style identities omega_i ^ omega_j = delta_ij v, exactly,
    as check rows (the two squares, then the three products), and v."""
    v = wedge(omega1, omega1)
    return [
        ("omega1^omega1 = omega2^omega2", wedge(omega2, omega2) == v),
        ("omega1^omega1 = omega3^omega3", wedge(omega3, omega3) == v),
        ("omega1^omega2 = 0", wedge(omega1, omega2).is_zero()),
        ("omega1^omega3 = 0", wedge(omega1, omega3).is_zero()),
        ("omega2^omega3 = 0", wedge(omega2, omega3).is_zero()),
    ], v


def su2_geometry(s: SU2Structure) -> Su2Geometry:
    """Reeb vector, endomorphisms A, B on ker eta and the frame metric.

    Exact throughout.  ker eta has a rational basis, so the restricted
    matrices [omega_i(u_p, u_q)] are read from the coefficients of omega_i,
    and the 4x4 skew omega3 on ker eta is inverted by its Pfaffian.
    """
    if s.eta.is_zero():
        raise ValueError("eta must be a nowhere vanishing 1-form")
    xi, kernel = _reeb_and_kernel(s)

    omega3_inv = _pfaffian_inverse(_restricted_matrix(s.omega3, kernel))
    omega1_k = _restricted_matrix(s.omega1, kernel)
    omega2_k = _restricted_matrix(s.omega2, kernel)
    endo_a = scalar_mat_mul(omega3_inv, omega1_k)
    endo_b = scalar_mat_mul(omega3_inv, omega2_k)
    gk = scalar_mat_neg(scalar_mat_mul(omega2_k, endo_a))

    eta_of = [s.eta.coefficient((i,)) for i in range(1, 6)]
    proj = []
    for x in range(5):
        vec = [Scalar.one() if i == x else Scalar.zero() for i in range(5)]
        if not eta_of[x].is_zero():
            vec = [v - eta_of[x] * c for v, c in zip(vec, xi)]
        proj.append(_kernel_coordinates(vec, kernel))
    metric = scalar_mat_mul(scalar_mat_mul(proj, gk), [list(col) for col in zip(*proj)])
    for x in range(5):
        for y in range(5):
            if not (eta_of[x].is_zero() or eta_of[y].is_zero()):
                metric[x][y] = metric[x][y] + eta_of[x] * eta_of[y]
    return Su2Geometry(xi, kernel, endo_a, endo_b, metric, proj)


def _reeb_and_kernel(s: SU2Structure):
    """xi from the sub-Pfaffians of omega3, scaled to eta(xi) = 1, and the
    reduced row echelon basis of ker eta.

    eta must be rational or a parametric multiple of one generator e^k; the
    latter has the kernel of e^k.
    """
    if all(c.is_rational() for c in s.eta.coeffs.values()):
        row = {i - 1: c.as_fraction() for (i,), c in s.eta.coeffs.items()}
    elif len(s.eta.coeffs) == 1:
        row = {i - 1: 1 for (i,) in s.eta.coeffs}
    else:
        raise UnsupportedScalarError(
            "parametric quadruplets need eta proportional to a single generator")
    xi = _pfaffian_kernel_vector(s.omega3)
    pairing = sum((c * xi[i - 1] for (i,), c in s.eta.coeffs.items()), Scalar.zero())
    if pairing.is_zero():
        raise ValueError("omega3 is degenerate on ker eta")
    inv = pairing.inverse()
    # xi contracts omega3 to zero: W v = 0 holds for the sub-Pfaffians v of any skew 5x5 W
    xi = [c * inv for c in xi]
    kernel = [[vec.get(i, 0) for i in range(5)] for vec in fraction_nullspace([row], 5)]
    return xi, [[q.numerator if q.denominator == 1 else q for q in u] for u in kernel]


def _pfaffian_kernel_vector(omega3: Form) -> list[Scalar]:
    """The kernel line of a rank-4 skew 5x5 pairing, via sub-Pfaffians.

    For skew W the vector v_i = (-1)^i Pf(W with row/col i removed) satisfies
    W v = 0; it vanishes identically exactly when rank W < 4.
    """
    w = [[omega3.coefficient((x + 1, y + 1)) for y in range(5)] for x in range(5)]
    out = []
    for i in range(5):
        rest = [r for r in range(5) if r != i]
        a, b, c, d = rest
        pf = (w[a][b] * w[c][d] - w[a][c] * w[b][d] + w[a][d] * w[b][c])
        out.append(-pf if i % 2 == 0 else pf)
    if all(c.is_zero() for c in out):
        raise ValueError("omega3 must have a one-dimensional kernel")
    return out


def _restricted_matrix(form2: Form, kernel: list[list[int | Fraction]]) -> list[list[Scalar]]:
    """The skew [omega(u_p, u_q)] for rational u_p, upper triangle mirrored, from
    omega(u, v) = sum_{a<b} c_ab (u_a v_b - u_b v_a), skipping zero factors."""
    out = [[Scalar.zero()] * len(kernel) for _ in kernel]
    for p, q in itertools.combinations(range(len(kernel)), 2):
        u, v, acc = kernel[p], kernel[q], None
        for (a, b), c in form2.coeffs.items():
            f = u[a - 1] * v[b - 1] - u[b - 1] * v[a - 1]
            if f:
                term = _times(c, f)
                acc = term if acc is None else acc + term
        if acc is not None:
            out[p][q], out[q][p] = acc, -acc
    return out


def _times(c: Scalar, f: Fraction) -> Scalar:
    """c * f, taking +-c as it is when f = +-1."""
    return c if f == 1 else -c if f == -1 else c * f


def _pfaffian_inverse(w: list[list[Scalar]]) -> list[list[Scalar]]:
    """W^-1 = -W~/Pf(W) for skew 4x4 W, with Pf = w12 w34 - w13 w24 + w14 w23.

    The skew W~ has W~12 = w34, W~13 = -w24, W~14 = w23, W~23 = w14,
    W~24 = -w13, W~34 = w12, so that W W~ = -Pf I.
    """
    pf = w[0][1] * w[2][3] - w[0][2] * w[1][3] + w[0][3] * w[1][2]
    # pf != 0: eta(xi) != 0 puts the kernel line of omega3 outside ker eta
    scale = (-pf).inverse()
    dual = {(0, 1): w[2][3], (0, 2): -w[1][3], (0, 3): w[1][2],
            (1, 2): w[0][3], (1, 3): -w[0][2], (2, 3): w[0][1]}
    out = [[Scalar.zero()] * 4 for _ in range(4)]
    for (p, q), entry in dual.items():
        out[p][q] = scale * entry
        out[q][p] = -out[p][q]
    return out


def _kernel_coordinates(vec: list[Scalar], kernel: list[list[Fraction]]) -> list[Scalar]:
    """Coordinates of vec in the kernel basis.

    Each kernel vector is 1 at its free column, its last nonzero entry, where
    every other basis vector vanishes, so coordinates read off directly.
    """
    # vec = e_x - eta(e_x) xi lies in ker eta, since eta(xi) = 1
    return [vec[max(p for p, c in enumerate(kvec) if c)] for kvec in kernel]


def validate_su2(s: SU2Structure) -> Report:
    """Exact structure validation; raises for eta = 0 or degenerate omega3.

    Parametric quadruplets are validated symbolically except for metric
    positivity: where it is not decidable exactly its row is False
    (families sample it numerically).
    """
    rows, v = su2_wedge_identities(s.omega1, s.omega2, s.omega3)
    rows.append(("volume form nonzero", not wedge(v, s.eta).is_zero()))
    geo = s.geometry
    rows.append(("reeb contractions vanish", contract(geo.xi, s.omega1).is_zero()
                 and contract(geo.xi, s.omega2).is_zero()))
    a, b, minus_one = geo.endo_a, geo.endo_b, -Scalar.one()
    rows.append(("A^2 = B^2 = -1, AB = -BA",
                 is_scaled_identity(scalar_mat_mul(a, a), minus_one)
                 and is_scaled_identity(scalar_mat_mul(b, b), minus_one)
                 and scalar_mat_mul(a, b) == scalar_mat_neg(scalar_mat_mul(b, a))))
    rows.append(("metric symmetric", symmetric(geo.metric)))
    rows.append(("metric positive-definite", positive_definite(geo.metric)))
    return Report("su2 validation", all(ok for _, ok in rows), tuple(rows))


# ---------------------------------------------------------------------------
# Balanced and hypo conditions.
# ---------------------------------------------------------------------------


def _residual_list(s: SU2Structure, last: tuple[str, Form]) -> Report:
    """The headerless residual list of the balanced and hypo checks: the rows
    d(omega1^eta) and d(omega2^eta) they share, then ``last``."""
    d = s.algebra.d
    residuals = (("d(omega1^eta)", d(wedge(s.omega1, s.eta))),
                 ("d(omega2^eta)", d(wedge(s.omega2, s.eta))), last)
    return residual_report("", ((name, f, "" if f.is_zero() else "   [nonzero]")
                                for name, f in residuals))


def is_balanced_su2(s: SU2Structure) -> Report:
    """Residuals of d(omega1^eta) = d(omega2^eta) = d(omega3^omega3) = 0."""
    return _residual_list(s, ("d(omega3^omega3)", s.algebra.d(wedge(s.omega3, s.omega3))))


def is_hypo(s: SU2Structure) -> Report:
    """Residuals of d(omega1^eta) = d(omega2^eta) = d(omega3) = 0."""
    return _residual_list(s, ("d(omega3)", s.algebra.d(s.omega3)))


# ---------------------------------------------------------------------------
# SU(n) validation and balancedness.
# ---------------------------------------------------------------------------


def sun_metric_matrix(s: SUnStructure) -> list[list[Scalar]]:
    """g(x, y) = F(x, Jy) in the frame."""
    n = s.algebra.dimension
    fmat = [[s.F.coefficient((x + 1, y + 1)) for y in range(n)] for x in range(n)]
    return scalar_mat_mul(fmat, s.J.matrix)


def validate_sun(s: SUnStructure) -> Report:
    """J, the metric F(., J.) and the complex volume form psi+ + i psi-.

    For n = 4 the verdict also asks psi+ ^ psi- = 0 and psi+^2 = psi-^2,
    which have no row of their own.
    """
    n = s.n
    rows = [("J^2 = -1", s.J.squares_to_minus_identity()),
            ("J(F) = F", apply_coframe_map(s.J, s.F) == s.F)]
    g = sun_metric_matrix(s)
    rows.append(("metric symmetric", symmetric(g)))
    rows.append(("metric positive-definite", positive_definite(g)))
    jp = apply_coframe_map(s.J, s.psi_plus)
    jm = apply_coframe_map(s.J, s.psi_minus)
    if n % 2:
        rotation = (jp == s.psi_minus) and (jm == -s.psi_plus)
    else:
        rotation = (jp == s.psi_plus) and (jm == s.psi_minus)
    rows.append(("volume form rotation identity", rotation))
    psi_ok = True
    if n == 3:
        top = wedge(s.psi_plus, s.psi_minus)
    else:
        plus2, minus2 = wedge_power(s.psi_plus, 2), wedge_power(s.psi_minus, 2)
        psi_ok = wedge(s.psi_plus, s.psi_minus).is_zero() and plus2 == minus2
        top = plus2 + minus2
    ratio = _top_form_ratio(top, wedge_power(s.F, n), s.algebra.dimension)
    ok = all(v for _, v in rows) and psi_ok and ratio is not None and ratio > 0
    rows.append(("psi+ ^ psi- proportionality constant", ratio) if ratio is not None
                else ("psi+ ^ psi- not proportional to F^n", False))
    return Report("su(n) validation", ok, tuple(rows))


def _top_form_ratio(a: Form, b: Form, dim: int) -> Fraction | None:
    """a / b for forms of top degree ``dim``, which span a line; None when b = 0
    or the ratio is not a rational constant."""
    idx = tuple(range(1, dim + 1))
    ca = a.coeffs.get(idx, Scalar.zero())
    cb = b.coeffs.get(idx, Scalar.zero())
    if cb.is_zero():
        return None
    try:
        return (ca / cb).as_fraction()
    except UnsupportedScalarError:
        return None


def is_balanced_sun(s: SUnStructure) -> Report:
    """Residuals of dF^{n-1} = dpsi+ = dpsi- = 0, then dF and the kaehler and
    half-flat verdicts as values."""
    d = s.algebra.d
    n = s.n
    df = d(s.F)
    dpsi_plus = d(s.psi_plus)
    residuals = (
        (f"dF^{n - 1}", d(wedge_power(s.F, n - 1))),
        ("dpsi+", dpsi_plus),
        ("dpsi-", d(s.psi_minus)),
    )
    half_flat = d(wedge_power(s.F, 2)).is_zero() and dpsi_plus.is_zero()
    return Report("balanced", all(f.is_zero() for _, f in residuals), residuals + (
        ("dF", df),
        ("kaehler (dF = 0)", "yes" if df.is_zero() else "no"),
        ("half-flat (dF^2 = dpsi+ = 0)", "yes" if half_flat else "no"),
    ), words=("yes", "NO"))


# ---------------------------------------------------------------------------
# Hypersurface restriction and suspension.
# ---------------------------------------------------------------------------


def _drop_index(a: Form, k: int) -> Form:
    """Pull back along the inclusion of the coframe complement of e^k."""
    coeffs = {}
    for idx, coeff in a.coeffs.items():
        if k in idx:
            continue
        coeffs[tuple(i - 1 if i > k else i for i in idx)] = coeff
    return Form(a.dimension - 1, a.degree, coeffs)


def restrictable_directions(s: SUnStructure) -> list[int]:
    """Frame indices whose coframe complement is closed under d.

    Dropping e^k is the pullback to an invariant hypersurface only when the
    complement of e_k is a subalgebra, i.e. when d e^k has no component free
    of e^k; other directions admit no invariant hypersurface at all.
    """
    out = []
    for k in range(1, s.algebra.dimension + 1):
        if _drop_index(s.algebra.differentials[k - 1], k).is_zero():
            out.append(k)
    return out


def restrict_to_hypersurface(s: SUnStructure, unit: list[Scalar | Fraction | int]) -> SU2Structure:
    """Restrict a 6-dimensional structure along a unit frame direction.

    unit must be +-(frame vector) whose g-orthogonal complement is spanned by
    the remaining frame vectors and is closed under d; the quadruplet is
    eta = -i_U F, omega1 = i_U psi-, omega2 = -i_U psi+, omega3 = F pulled
    back.
    """
    if s.algebra.dimension != 6:
        raise ValueError("restriction is implemented for 6-dimensional structures")
    comps = [c if isinstance(c, Scalar) else Scalar.rational(c) for c in unit]
    if len(comps) != 6:
        raise ValueError("the normal direction needs 6 frame components")
    nonzero = [(i, c) for i, c in enumerate(comps) if not c.is_zero()]
    if len(nonzero) != 1 or abs(nonzero[0][1].as_fraction()) != 1:
        raise ValueError("restriction supports only +-(unit frame vector) directions")
    k = nonzero[0][0] + 1
    g = sun_metric_matrix(s)
    if g[k - 1][k - 1] != Scalar.one():
        raise ValueError("the normal direction is not unit length")
    if any(not g[k - 1][j].is_zero() for j in range(6) if j != k - 1):
        raise ValueError("the frame complement of the direction is not g-orthogonal")
    if k not in restrictable_directions(s):
        raise ValueError(
            f"the complement of e{k} is not closed under d (no invariant "
            f"hypersurface normal to e{k} exists)")

    eta = _drop_index(contract(comps, s.F).scale(-1), k)
    omega1 = _drop_index(contract(comps, s.psi_minus), k)
    omega2 = _drop_index(contract(comps, s.psi_plus).scale(-1), k)
    omega3 = _drop_index(s.F, k)

    diffs = []
    for i in range(1, 7):
        if i == k:
            continue
        diffs.append(_drop_index(s.algebra.differentials[i - 1], k))
    return SU2Structure(LieAlgebra(5, tuple(diffs)), eta, omega1, omega2, omega3)


def suspend_su2(s: SU2Structure) -> SUnStructure:
    """The 6-dimensional structure F = omega3 + eta^dt, psi = (omega1 + i omega2)(eta + i dt).
    Raises ``ValueError`` only where J cannot be built (eta = 0, omega3 degenerate
    on ker eta); ``validate_su2`` and ``validate_sun`` report whether ``s`` and
    the result are valid."""
    ambient, f, psi_plus, psi_minus = suspension_forms(s)
    cmap = suspension_coframe_map(s)
    return SUnStructure(ambient, f, psi_plus, psi_minus, cmap)


def suspension_forms(s: SU2Structure) -> tuple[LieAlgebra, Form, Form, Form]:
    """The product with a line and F = omega3 + eta^dt, psi+ + i psi- =
    (omega1 + i omega2)(eta + i dt)."""
    ambient = extend_by_line(s.algebra)
    dt = Form.generator(6, 6)
    eta, w1, w2, w3 = (lift_form(f, 6) for f in (s.eta, s.omega1, s.omega2, s.omega3))
    return (ambient, w3 + wedge(eta, dt), wedge(w1, eta) - wedge(w2, dt),
            wedge(w2, eta) + wedge(w1, dt))


def suspension_coframe_map(s: SU2Structure) -> CoframeMap:
    """The complex structure of the suspension: J3 on ker eta, J xi = dt.

    J3 = omega3_k^-1 g_k with g_k = -omega2_k A, and omega3_k^-1 omega2_k = B,
    so J3 = -BA.  It acts on e_x through the kernel coordinates of its
    projection onto ker eta.
    """
    geo = s.geometry
    j3 = scalar_mat_neg(scalar_mat_mul(geo.endo_b, geo.endo_a))
    basis = [[Scalar.rational(u[i]) for u in geo.kernel_basis] for i in range(5)]
    block = scalar_mat_mul(basis, scalar_mat_mul(j3, [list(col) for col in zip(*geo.proj)]))
    eta_of = [s.eta.coefficient((i,)) for i in range(1, 6)]
    # J xi = dt and J dt = -xi
    return CoframeMap([row + [-c] for row, c in zip(block, geo.xi)] + [eta_of + [Scalar.zero()]])


# ---------------------------------------------------------------------------
# Circle bundles over 4-dimensional holomorphic symplectic bases.
# ---------------------------------------------------------------------------


def circle_bundle_structure(base: LieAlgebra, omega1: Form, omega2: Form, omega3: Form,
                            curvature: Form,
                            theta: tuple[Fraction, Fraction] = (Fraction(1), Fraction(0)),
                            ) -> SU2Structure:
    """The quadruplet (rho, rotated omega1, rotated omega2, omega3) on the total space.
    Raises ``ValueError`` only for a base that is not 4-dimensional, a theta off the
    unit circle or a curvature that is not closed; ``check_conformal_couple``, the
    wedges curvature ^ omega1 = curvature ^ omega2 = 0 (the catalog's
    ``eq7_generators``) and ``validate_su2``/``is_balanced_su2`` report the rest."""
    if base.dimension != 4:
        raise ValueError("the base of the circle bundle must be 4-dimensional")
    cos_t, sin_t = theta
    if cos_t * cos_t + sin_t * sin_t != 1:
        raise ValueError("theta must be given by a rational (cos, sin) pair on the circle")
    total = central_extension(base, curvature)
    w1t = lift_form(omega1.scale(cos_t) + omega2.scale(sin_t), 5)
    w2t = lift_form(omega1.scale(-sin_t) + omega2.scale(cos_t), 5)
    return SU2Structure(total, Form.generator(5, 5), w1t, w2t, lift_form(omega3, 5))


def check_conformal_couple(base: LieAlgebra, omega1: Form, omega2: Form,
                           omega3: Form) -> Report:
    """omega1, omega2 closed, the three 2-forms pairwise orthogonal with equal
    nonzero squares; d(omega3) is shown as a value."""
    if base.dimension != 4:
        raise ValueError("conformal couples live on 4-dimensional algebras")
    d = base.d
    ((_, same2), (_, same3), *products), sq1 = su2_wedge_identities(omega1, omega2, omega3)
    checks = (
        ("d(omega1) = 0", d(omega1).is_zero()),
        ("d(omega2) = 0", d(omega2).is_zero()),
        *products,
        ("omega1^2 = omega2^2 = omega3^2", same2 and same3),
        ("squares are volume forms", not sq1.is_zero()),
    )
    return Report("conformal symplectic couple", all(ok for _, ok in checks),
                  checks + (("d(omega3)", d(omega3)),))
