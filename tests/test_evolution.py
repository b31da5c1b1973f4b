import dataclasses
from fractions import Fraction

import pytest

from lieforms.algebras import parse_compact, parse_equations
from lieforms.evolution import (
    family_from_section,
    family_volume,
    suspend_family,
    validate_family,
    verify_balanced_evolution,
    verify_hypo_evolution,
    verify_orthonormal_coframe,
)
from lieforms.exterior import Form
from lieforms.scalars import Scalar
from lieforms.structures import standard_quadruplet

F = Fraction


def form(dim, *terms):
    return Form.from_terms(dim, len(terms[0][0]),
                           [([int(c) for c in idx], coeff) for idx, coeff in terms])


KODAIRA_THURSTON = """
[algebra]
dim = 5
d e4 = -e23

[family]
param = t
domain = (-inf, inf)
eta = e5
omega1 = e12 + e3^(e4 - t*e5)
omega2 = e13 + (e4 - t*e5)^e2
omega3 = e1^(e4 - t*e5) + e23
F_expected = e14 + e23 - t*e15 + e5^dt
psi_plus_expected = e125 + e345 - (e13 - e24 + t*e25)^dt
psi_minus_expected = e135 - e245 + (e12 + e34 - t*e35)^dt
"""

CUBE_ROOT_FAMILY = """
[algebra]
compact = (0,0,0,12,14)

[family]
param = t
domain = (-inf, 2/3) | (2/3, inf)
eta = ((2-3*t)/2)^(1/3)*e1
omega1 = (1/2)*((2/(2-3*t))^(1/3) - (2-3*t)/2)*e23 + ((2-3*t)/2)^(1/3)*e24 - (2/(2-3*t))^(1/3)*e35
omega2 = (2/(2-3*t))^(1/3)*e25 + ((2-3*t)/2)^(1/3)*e34
omega3 = e23 - (1/2)*(1 - ((2-3*t)/2)*((2-3*t)/2)^(1/3))*e24 + e45
alpha1 = e2
alpha2 = e3
alpha3 = ((2-3*t)/2)^(1/3)*e4
alpha4 = (1/2)*(2/(2-3*t))^(1/3)*(e2 + 2*e5) - ((2-3*t)/4)*e2
alpha5 = ((2-3*t)/2)^(1/3)*e1
alpha6 = dt
F_expected = e23 - (1/2)*e24 + e45 + ((2-3*t)/4)*((2-3*t)/2)^(1/3)*e24 + ((2-3*t)/2)^(1/3)*e1^dt
psi_plus_expected = (1/2)*e123 - e135 - ((2-3*t)/4)*((2-3*t)/2)^(1/3)*e123 + (((2-3*t)^2)/4)^(1/3)*e124 - ((2/(2-3*t))^(1/3)*e25 + ((2-3*t)/2)^(1/3)*e34)^dt
psi_minus_expected = e125 + (((2-3*t)^2)/4)^(1/3)*e134 + ((1/2)*(2/(2-3*t))^(1/3)*e23 - ((2-3*t)/4)*e23 + ((2-3*t)/2)^(1/3)*e24 - (2/(2-3*t))^(1/3)*e35)^dt
"""

RATIONAL_FAMILY = """
[algebra]
compact = (0,0,12,13,23)

[family]
param = t
domain = (-inf, 2) | (2, inf)
eta = (2/(2-t))*e3
omega1 = ((2-t)/2)*(e15 + e42)
omega2 = (t*(2-t)*(t-4)/4)*e12 + ((2-t)/2)*(e14 + e25)
omega3 = e12 - (t*(2-t)^2*(t-4)/8)*e25 - ((2-t)^2/4)*e45
alpha1 = e1
alpha2 = e2
alpha3 = ((2-t)/2)*e5
alpha4 = (t*(2-t)*(t-4)/4)*e2 + ((2-t)/2)*e4
alpha5 = (2/(2-t))*e3
alpha6 = dt
F_expected = e12 - (t*(2-t)^2*(t-4)/8)*e25 - ((2-t)^2/4)*e45 + (2/(2-t))*e3^dt
psi_plus_expected = -e135 + e234 - ((2-t)/2)*((t*(t-4)/2)*e12 + e14 + e25)^dt
psi_minus_expected = -e134 - e235 + (t*(t-4)/2)*e123 + ((2-t)/2)*(e15 - e24)^dt
"""


def load_family(text, name):
    sf = parse_equations(text)
    fam = family_from_section(sf.algebra, sf.family, name=name)
    return sf, fam


def constant_family():
    s = standard_quadruplet(parse_compact("(0,0,0,0,0)"))
    from lieforms.evolution import ParamFamily
    return ParamFamily(s.algebra, s.eta, s.omega1, s.omega2, s.omega3)


@pytest.mark.parametrize("text,name", [
    (KODAIRA_THURSTON, "kodaira-thurston"),
    (CUBE_ROOT_FAMILY, "cube-root"),
    (RATIONAL_FAMILY, "rational"),
])
def test_families_satisfy_the_evolution_equations(text, name):
    _, fam = load_family(text, name)
    report = verify_balanced_evolution(fam)
    assert report.ok, report.render()
    assert report.passed, report.render()  # balanced at every t as well


@pytest.mark.parametrize("text,name", [
    (KODAIRA_THURSTON, "kodaira-thurston"),
    (CUBE_ROOT_FAMILY, "cube-root"),
    (RATIONAL_FAMILY, "rational"),
])
def test_families_are_valid_structures_on_their_domains(text, name):
    _, fam = load_family(text, name)
    report = validate_family(fam)
    assert report.passed, report.render()


def test_constant_family_trivially_evolves():
    fam = constant_family()
    assert verify_balanced_evolution(fam).passed
    hypo = verify_hypo_evolution(fam)
    assert hypo.passed
    assert hypo.value("balanced evolution follows") == "yes"


def test_kodaira_thurston_family_is_not_hypo_evolving():
    _, fam = load_family(KODAIRA_THURSTON, "kt")
    report = verify_hypo_evolution(fam)
    assert not report.passed
    residuals = dict(report.residuals)
    assert residuals["dt(omega3) + d(eta)"] == form(5, ("15", -1))


@pytest.mark.parametrize("text,name", [
    (KODAIRA_THURSTON, "kodaira-thurston"),
    (CUBE_ROOT_FAMILY, "cube-root"),
    (RATIONAL_FAMILY, "rational"),
])
def test_suspensions_reproduce_expected_structures_and_close(text, name):
    sf, fam = load_family(text, name)
    susp, closed = suspend_family(fam)
    assert susp.F == sf.family.forms["F_expected"]
    assert susp.psi_plus == sf.family.forms["psi_plus_expected"]
    assert susp.psi_minus == sf.family.forms["psi_minus_expected"]
    assert closed.passed, closed.render()


@pytest.mark.parametrize("text", [CUBE_ROOT_FAMILY, RATIONAL_FAMILY])
def test_listed_coframes_are_orthonormal(text):
    sf, fam = load_family(text, "coframe")
    susp, _ = suspend_family(fam)
    alphas = [sf.family.forms[f"alpha{i}"] for i in range(1, 7)]
    report = verify_orthonormal_coframe(susp, alphas)
    assert report.passed, report.render()


def test_standard_coframe_orthonormal_for_constant_family():
    fam = constant_family()
    susp, _ = suspend_family(fam)
    alphas = [Form.generator(6, i) for i in range(1, 7)]
    assert verify_orthonormal_coframe(susp, alphas).passed


def test_wrong_coframe_reports_mismatch():
    fam = constant_family()
    susp, _ = suspend_family(fam)
    alphas = [Form.generator(6, i) for i in range(1, 7)]
    alphas[0] = alphas[0].scale(2)
    report = verify_orthonormal_coframe(susp, alphas)
    assert not report.passed
    assert report.value("g(e1, e1) mismatch") == Scalar.rational(3)
    with pytest.raises(ValueError):
        verify_orthonormal_coframe(susp, alphas[:5])


def test_family_volume_cube_root():
    _, fam = load_family(CUBE_ROOT_FAMILY, "cube-root")
    report = family_volume(fam)
    expected = Scalar.rational(2) * Scalar.linear(1, F(-3, 2)).rational_power(F(1, 3))
    assert report.coefficient == expected
    signs = dict(report.interval_signs)
    assert signs["(-inf, 2/3)"] == 1
    assert signs["(2/3, inf)"] == -1


def test_family_volume_rational_family():
    # The printed claim of a constant -2 coefficient does not survive exact
    # computation: omega1^2 ^ eta = (t - 2) e12345, which equals -2 only at
    # t = 0.  The listed orthonormal coframe confirms this: the product of
    # the alpha scalings is (2-t)/2, not 1.  The verified value is frozen.
    _, fam = load_family(RATIONAL_FAMILY, "rational")
    report = family_volume(fam)
    assert report.coefficient == Scalar.linear(-2, 1)
    signs = dict(report.interval_signs)
    assert signs["(-inf, 2)"] == -1
    assert signs["(2, inf)"] == 1


def test_family_volume_constant_quadruplet():
    fam = constant_family()
    report = family_volume(fam)
    assert report.coefficient == Scalar.rational(2)


def test_closedness_iff_evolution_plus_fixed_t_balanced():
    # the equivalence behind the suspension: perturb a working family and watch
    # both sides fail together
    sf, fam = load_family(KODAIRA_THURSTON, "kt")
    from lieforms.evolution import ParamFamily
    t = Scalar.t()
    broken = ParamFamily(fam.algebra, fam.eta,
                         fam.omega1 + form(5, ("13", 1)).scale(t),
                         fam.omega2, fam.omega3, domain=fam.domain)
    ev = verify_balanced_evolution(broken)
    _, closed = suspend_family(broken)
    assert not ev.passed
    assert not closed.passed
    good_ev = verify_balanced_evolution(fam)
    _, good_closed = suspend_family(fam)
    assert good_ev.passed and good_closed.passed


def test_hypo_evolution_implies_closed_f():
    # for a hypo-evolving family the suspended F itself is closed
    from lieforms.evolution import total_derivative
    fam = constant_family()
    assert verify_hypo_evolution(fam).passed
    susp, _ = suspend_family(fam)
    assert total_derivative(susp.ambient, susp.F).is_zero()


def test_partial_t_commutes_with_d():
    from lieforms.exterior import partial_t
    _, fam = load_family(CUBE_ROOT_FAMILY, "cube-root")
    for w in (fam.omega1, fam.omega2, fam.omega3):
        lhs = partial_t(fam.algebra.d(w))
        rhs = fam.algebra.d(partial_t(w))
        assert lhs == rhs


def test_family_geometry_is_computed_once(monkeypatch):
    from lieforms import structures
    from lieforms.catalog import get_entry, run_entry
    calls = []
    original = structures.su2_geometry

    def counted(s):
        calls.append(s)
        return original(s)

    monkeypatch.setattr(structures, "su2_geometry", counted)
    report = run_entry(get_entry("family-nil5-12-14"))
    assert report.passed, report.render()
    assert len(calls) == 1
    _, fam = load_family(CUBE_ROOT_FAMILY, "cube-root")
    with pytest.raises(dataclasses.FrozenInstanceError):
        fam.eta = fam.omega3
