"""One-parameter families of SU(2)-structures and their lift to six dimensions.

A family (eta(t), omega_i(t)) on a fixed 5-dimensional algebra evolves in the
balanced sense when

    dt(omega1 ^ eta) = -d omega2,
    dt(omega2 ^ eta) =  d omega1,
    dt(omega3 ^ omega3) = -2 d(omega3 ^ eta),

all verified as exact identities in t.  The suspension carries the family to
F = omega3 + eta ^ dt on the product with a line, whose total differential
splits as d_N + dt ^ partial_t; its closedness flags reproduce the evolution
residuals together with balancedness at every fixed t.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ._linalg import leading_minors, scalar_mat_mul
from .algebras import FamilySection, Interval, LieAlgebra
from .exterior import Form, Report, partial_t, residual_report, wedge
from .scalars import Scalar, ScalarDomainError
from .structures import SU2Structure, is_balanced_su2, su2_wedge_identities, suspension_forms


@dataclass(frozen=True)
class ParamFamily(SU2Structure):
    """A quadruplet in t over its domain."""

    domain: tuple[Interval, ...] = (Interval(None, None),)

    def __post_init__(self) -> None:
        if self.algebra.dimension != 5:
            raise ValueError("families live on 5-dimensional algebras")
        super().__post_init__()
        if not self.algebra.is_rational():
            raise ValueError("the algebra of a family must have rational structure constants")

    def sample_points(self) -> list[Fraction]:
        return [t0 for interval in self.domain for t0 in interval.samples()]


def family_from_section(algebra: LieAlgebra, section: FamilySection,
                        name: str | None = None) -> ParamFamily:
    """Build a family from a parsed [family] section (forms arrive in dim n+1)."""
    forms = {}
    for key in ("eta", "omega1", "omega2", "omega3"):
        if key not in section.forms:
            raise ValueError(f"family section is missing {key}")
        f = section.forms[key]
        if any(algebra.dimension + 1 in idx for idx in f.coeffs):
            raise ValueError(f"{key} may not involve dt")
        forms[key] = Form(algebra.dimension, f.degree, dict(f.coeffs))
    return ParamFamily(algebra, forms["eta"], forms["omega1"], forms["omega2"],
                       forms["omega3"], domain=section.domain, name=name)


def validate_family(family: ParamFamily) -> Report:
    """Exact wedge identities in t; metric positivity sampled numerically."""
    rows, v = su2_wedge_identities(family.omega1, family.omega2, family.omega3)
    rows.append(("volume nonzero", not wedge(v, family.eta).is_zero()))
    metric = family.geometry.metric
    for t0 in family.sample_points():  # a NaN entry makes the last minor NaN
        entries = [[_sample_float(c, t0) for c in row] for row in metric]
        positive = all(m > 1e-12 for m in leading_minors(entries, 0.0, 1.0))
        rows.append((f"metric positive at t = {t0}", positive))
    return Report("family validity", all(ok for _, ok in rows), tuple(rows))


def _sample_float(c: Scalar, t0: Fraction) -> float:
    """c(t0), or NaN where c is not real or has a pole: the one float a verdict reads."""
    try:
        return c.evaluate_float(t0)
    except (ScalarDomainError, ZeroDivisionError):
        return float("nan")


def _shared_equations(family: ParamFamily) -> tuple[tuple[str, Form], ...]:
    """dt(omega1^eta) = -d(omega2) and dt(omega2^eta) = d(omega1), the first two
    equations of both the balanced and the hypo evolution."""
    d, eta, w1, w2 = family.algebra.d, family.eta, family.omega1, family.omega2
    return (("dt(omega1^eta) + d(omega2)", partial_t(wedge(w1, eta)) + d(w2)),
            ("dt(omega2^eta) - d(omega1)", partial_t(wedge(w2, eta)) - d(w1)))


def verify_balanced_evolution(family: ParamFamily) -> Report:
    """The evolution equations, with balancedness at every fixed t as a part."""
    w3 = family.omega3
    residuals = _shared_equations(family) + (
        ("dt(omega3^omega3) + 2 d(omega3^eta)",
         partial_t(wedge(w3, w3)) + family.algebra.d(wedge(w3, family.eta)).scale(2)),)
    fixed_t = residual_report("balanced at every t", is_balanced_su2(family).residuals,
                              words=("yes", "NO"))
    return residual_report("evolution equations", residuals, parts=(fixed_t,))


def verify_hypo_evolution(family: ParamFamily) -> Report:
    """The hypo-type system dt(omega3) = -d(eta) plus the two shared equations.

    Any solution also solves the balanced evolution equations; the report
    re-verifies that implication whenever the hypo system passes.
    """
    rows = _shared_equations(family) + (
        ("dt(omega3) + d(eta)", partial_t(family.omega3) + family.algebra.d(family.eta)),)
    ok = all(f.is_zero() for _, f in rows)
    if ok:
        follows = verify_balanced_evolution(family).ok
        rows += (("balanced evolution follows", "yes" if follows else "NO (unexpected)"),)
    return Report("hypo evolution equations", ok, rows)


@dataclass
class SuspendedStructure:
    base: ParamFamily
    ambient: LieAlgebra
    F: Form
    psi_plus: Form
    psi_minus: Form


def total_derivative(ambient: LieAlgebra, a: Form) -> Form:
    """d on the product with a line: d_N plus dt ^ partial_t."""
    dt = Form.generator(ambient.dimension, ambient.dimension)
    return ambient.d(a) + wedge(dt, partial_t(a))


def suspend_family(family: ParamFamily) -> tuple[SuspendedStructure, Report]:
    ambient, f, psi_plus, psi_minus = suspension_forms(family)
    susp = SuspendedStructure(family, ambient, f, psi_plus, psi_minus)
    report = residual_report("suspension closedness", (
        ("d(F^F)", total_derivative(ambient, wedge(f, f))),
        ("d(psi+)", total_derivative(ambient, psi_plus)),
        ("d(psi-)", total_derivative(ambient, psi_minus)),
    ))
    return susp, report


def verify_orthonormal_coframe(susp: SuspendedStructure,
                               alphas: list[Form]) -> Report:
    """A coframe is orthonormal iff sum_i alpha^i (x) alpha^i equals the metric.

    That sum is the Gram matrix A^T A of the rows A[i][x] = alpha^i(e_x); it is
    compared entry by entry as exact identities in t with the suspension
    metric (block sum of the family metric and dt^2).
    """
    if len(alphas) != 6 or any(a.dimension != 6 or a.degree != 1 for a in alphas):
        raise ValueError("need six 1-forms on the suspended algebra")
    metric = susp.base.geometry.metric
    rows = [[alpha.coefficient((x,)) for x in range(1, 7)] for alpha in alphas]
    gram = scalar_mat_mul([list(col) for col in zip(*rows)], rows)
    mismatches = []
    for x in range(6):
        for y in range(x, 6):
            want = metric[x][y] if y < 5 else Scalar.one() if x == y else Scalar.zero()
            diff = gram[x][y] - want
            if not diff.is_zero():
                mismatches.append((f"g(e{x + 1}, e{y + 1}) mismatch", diff))
    return Report("coframe orthonormality", not mismatches, tuple(mismatches),
                  words=("pass (sum alpha_i x alpha_i = g exactly)", "FAIL"))


@dataclass(frozen=True)
class VolumeReport:
    coefficient: Scalar
    interval_signs: tuple[tuple[str, int | None], ...]  # rendered interval -> sign

    def render(self) -> str:
        lines = [f"omega1^omega1^eta = ({self.coefficient.render()}) e12345"]
        for interval, sign in self.interval_signs:
            text = {1: "positive", -1: "negative", 0: "vanishing", None: "undetermined"}[sign]
            lines.append(f"  orientation on {interval}: {text}")
        return "\n".join(lines)


def family_volume(family: ParamFamily) -> VolumeReport:
    vol = wedge(wedge(family.omega1, family.omega1), family.eta)
    coeff = vol.coefficient((1, 2, 3, 4, 5))
    signs = []
    for interval in family.domain:
        sign: int | None = None
        values = [_sample_float(coeff, t0) for t0 in interval.samples()]
        if values and all(v > 1e-12 for v in values):
            sign = 1
        elif values and all(v < -1e-12 for v in values):
            sign = -1
        elif values and all(abs(v) <= 1e-12 for v in values):
            sign = 0
        signs.append((interval.render(), sign))
    return VolumeReport(coeff, tuple(signs))
