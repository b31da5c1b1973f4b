import collections
import dataclasses
import itertools
import random
from fractions import Fraction

import pytest

from lieforms import structures
from lieforms._linalg import fraction_nullspace, insert_echelon_row, scalar_mat_mul
from lieforms.algebras import (
    LieAlgebra,
    ce_cohomology,
    check_jacobi,
    parse_compact,
    parse_equations,
)
from lieforms.catalog import StructureContext, get_entry
from lieforms.evolution import family_from_section
from lieforms.exterior import CoframeMap, Form, apply_coframe_map, contract, wedge, wedge_power
from lieforms.scalars import Scalar
from lieforms.structures import (
    SU2Structure,
    SUnStructure,
    _pfaffian_inverse,
    _reeb_and_kernel,
    _restricted_matrix,
    check_conformal_couple,
    circle_bundle_structure,
    is_balanced_su2,
    is_balanced_sun,
    is_hypo,
    restrict_to_hypersurface,
    restrictable_directions,
    standard_quadruplet,
    su2_geometry,
    sun_metric_matrix,
    suspend_su2,
    validate_su2,
    validate_sun,
)
from sign_reference import insertion_sort_index

F = Fraction


def form(dim, *terms):
    return Form.from_terms(dim, len(terms[0][0]),
                           [([int(c) for c in idx], coeff) for idx, coeff in terms])


STANDARD_J6 = CoframeMap.from_rows([
    [0, -1, 0, 0, 0, 0],
    [1, 0, 0, 0, 0, 0],
    [0, 0, 0, -1, 0, 0],
    [0, 0, 1, 0, 0, 0],
    [0, 0, 0, 0, 0, -1],
    [0, 0, 0, 0, 1, 0],
])

IWASAWA = parse_compact("(0,0,0,0,13+42,14+23)", name="iwasawa")


def iwasawa_structure():
    return SUnStructure(
        IWASAWA,
        F=form(6, ("12", 1), ("34", 1), ("56", 1)),
        psi_plus=form(6, ("135", 1), ("146", -1), ("236", -1), ("245", -1)),
        psi_minus=form(6, ("136", 1), ("145", 1), ("235", 1), ("246", -1)),
        J=STANDARD_J6,
    )


def test_standard_quadruplet_is_valid_on_any_jacobi_algebra():
    for text in ["(0,0,0,12,14)", "(0,0,12,13,23)", "(0,0,12,13,14+23)", "(0,0,0,0,0)"]:
        s = standard_quadruplet(parse_compact(text))
        report = validate_su2(s)
        assert report.passed, report.render()


def test_flipping_omega2_breaks_positivity_only():
    s = standard_quadruplet(parse_compact("(0,0,0,12,14)"))
    flipped = SU2Structure(s.algebra, s.eta, s.omega1, -s.omega2, s.omega3)
    report = validate_su2(flipped)
    assert [ok for label, ok in report.rows if label.startswith("omega")] == [True] * 5
    assert report.value("metric positive-definite") is False
    assert not report.passed


def test_equal_omegas_fail_orthogonality():
    s = standard_quadruplet(parse_compact("(0,0,0,12,14)"))
    bad = SU2Structure(s.algebra, s.eta, s.omega1, s.omega1, s.omega3)
    report = validate_su2(bad)
    assert report.value("omega1^omega2 = 0") is False


def test_degenerate_omega3_raises():
    s = standard_quadruplet(parse_compact("(0,0,0,0,0)"))
    degenerate = SU2Structure(s.algebra, s.eta, s.omega1, s.omega2, form(5, ("23", 1)))
    with pytest.raises(ValueError):
        validate_su2(degenerate)


def test_balanced_but_not_hypo_on_the_three_nilpotent_algebras():
    for text in ["(0,0,0,12,14)", "(0,0,12,13,23)", "(0,0,12,13,14+23)"]:
        s = standard_quadruplet(parse_compact(text))
        assert is_balanced_su2(s).passed
        hypo = is_hypo(s)
        assert not hypo.passed
        assert not hypo.value("d(omega3)").is_zero()


def test_standard_quadruplet_on_abelian_is_hypo_and_balanced():
    s = standard_quadruplet(parse_compact("(0,0,0,0,0)"))
    assert is_hypo(s).passed
    assert is_balanced_su2(s).passed


def test_solvable_example_residual_truth_table():
    solvable = parse_equations("""
    [algebra]
    dim = 5
    d e3 = e13
    d e4 = -e14
    d e5 = e34
    """).algebra
    s = standard_quadruplet(solvable)
    d = solvable.d
    residuals = {
        "d(omega1^eta)": d(wedge(s.omega1, s.eta)),
        "d(omega2^eta)": d(wedge(s.omega2, s.eta)),
        "d(omega3^eta)": d(wedge(s.omega3, s.eta)),
        "d(omega2^omega2)": d(wedge(s.omega2, s.omega2)),
        "d(omega3^omega3)": d(wedge(s.omega3, s.omega3)),
    }
    assert residuals["d(omega1^eta)"].is_zero()
    assert residuals["d(omega2^eta)"] == form(5, ("1234", 1))
    assert residuals["d(omega3^eta)"].is_zero()
    assert residuals["d(omega2^omega2)"].is_zero()
    assert residuals["d(omega3^omega3)"].is_zero()
    # the permuted quadruplet (eta, omega1, omega3, omega2) satisfies the
    # balanced equations, which is what the displayed identities certify
    permuted = SU2Structure(solvable, s.eta, s.omega1, s.omega3, s.omega2)
    assert is_balanced_su2(permuted).passed


def test_validate_sun_iwasawa():
    s = iwasawa_structure()
    report = validate_sun(s)
    assert report.passed, report.render()
    assert report.value("psi+ ^ psi- proportionality constant") == F(2, 3)


def test_validate_sun_standard_model_volume_constant():
    s = SUnStructure(
        parse_compact("(0,0,0,0,0,0)"),
        F=form(6, ("12", 1), ("34", 1), ("56", 1)),
        psi_plus=form(6, ("135", 1), ("146", -1), ("236", -1), ("245", -1)),
        psi_minus=form(6, ("136", 1), ("145", 1), ("235", 1), ("246", -1)),
        J=STANDARD_J6,
    )
    assert wedge(s.psi_plus, s.psi_minus) == form(6, ("123456", 4))
    assert wedge_power(s.F, 3) == form(6, ("123456", 6))
    report = validate_sun(s)
    assert report.passed and report.value("psi+ ^ psi- proportionality constant") == F(2, 3)
    balanced = is_balanced_sun(s)
    assert balanced.passed and balanced.value("kaehler (dF = 0)") == "yes"


def test_validate_sun_reversed_f_fails_positivity():
    s = iwasawa_structure()
    bad = SUnStructure(s.algebra, -s.F, s.psi_plus, s.psi_minus, s.J)
    report = validate_sun(bad)
    assert not report.value("metric positive-definite")
    assert not report.passed


def test_sun_structure_rejects_wrong_degrees_and_dimension():
    s = iwasawa_structure()
    e123 = form(6, ("123", 1))
    for bad in (dict(F=e123), dict(psi_plus=s.F), dict(psi_minus=form(5, ("123", 1)))):
        with pytest.raises(ValueError, match="wrong degrees or dimension"):
            dataclasses.replace(s, **bad)
    j4 = CoframeMap.from_rows([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]])
    with pytest.raises(ValueError, match="J dimension mismatch"):
        dataclasses.replace(s, J=j4)


def test_iwasawa_is_balanced_not_kaehler():
    report = is_balanced_sun(iwasawa_structure())
    assert report.passed
    assert report.value("kaehler (dF = 0)") == "no"
    assert report.value("half-flat (dF^2 = dpsi+ = 0)") == "yes"
    assert report.value("dF") == form(6, ("136", 1), ("145", -1), ("235", -1), ("246", -1))


def test_restrictable_directions_iwasawa():
    # d e5 and d e6 survive the drop of their own generator, so the
    # complements of e5 and e6 are not subalgebras; e1..e4 restrict fine.
    s = iwasawa_structure()
    assert restrictable_directions(s) == [1, 2, 3, 4]


def test_restrict_iwasawa_along_e1_is_balanced():
    s = iwasawa_structure()
    restricted = restrict_to_hypersurface(s, [1, 0, 0, 0, 0, 0])
    assert restricted.algebra.dimension == 5
    # frozen from a hand computation of Eq-(2)-style contractions
    assert restricted.eta == form(5, ("1", -1))
    assert restricted.omega1 == form(5, ("25", 1), ("34", 1))
    assert restricted.omega2 == form(5, ("24", -1), ("35", 1))
    assert restricted.omega3 == form(5, ("23", 1), ("45", 1))
    assert restricted.algebra.differentials[3] == form(5, ("13", -1))
    assert restricted.algebra.differentials[4] == form(5, ("12", 1))
    assert is_balanced_su2(restricted).passed
    assert validate_su2(restricted).passed


def test_restrict_all_admissible_directions_stay_balanced():
    s = iwasawa_structure()
    for k in restrictable_directions(s):
        unit = [1 if i == k - 1 else 0 for i in range(6)]
        restricted = restrict_to_hypersurface(s, unit)
        assert is_balanced_su2(restricted).passed, f"direction e{k}"


def test_restrict_rejects_non_integrable_complement():
    # ker(e6) is not a subalgebra of the Iwasawa algebra: d e6 = e14 + e23
    # survives the drop, so no invariant hypersurface has normal e6.
    s = iwasawa_structure()
    with pytest.raises(ValueError, match="not closed under d"):
        restrict_to_hypersurface(s, [0, 0, 0, 0, 0, 1])


def test_restrict_requires_unit_frame_vector():
    s = iwasawa_structure()
    with pytest.raises(ValueError):
        restrict_to_hypersurface(s, [0, 0, 0, 0, 0, 2])
    with pytest.raises(ValueError):
        restrict_to_hypersurface(s, [1, 1, 0, 0, 0, 0])


def test_suspension_of_standard_quadruplet_is_valid():
    s = standard_quadruplet(parse_compact("(0,0,0,0,0)"))
    suspended = suspend_su2(s)
    assert suspended.algebra.dimension == 6
    assert suspended.F == form(6, ("23", 1), ("45", 1), ("16", 1))
    report = validate_sun(suspended)
    assert report.passed, report.render()
    assert report.value("psi+ ^ psi- proportionality constant") == F(2, 3)


def test_suspend_then_restrict_is_identity():
    for text in ["(0,0,0,12,14)", "(0,0,12,13,23)", "(0,0,0,0,0)"]:
        s = standard_quadruplet(parse_compact(text))
        suspended = suspend_su2(s)
        back = restrict_to_hypersurface(suspended, [0, 0, 0, 0, 0, 1])
        assert back.eta == s.eta
        assert back.omega1 == s.omega1
        assert back.omega2 == s.omega2
        assert back.omega3 == s.omega3
        assert back.algebra.differentials == s.algebra.differentials


def test_suspension_of_invalid_structure_rejected():
    # the suspension is built; the verdicts reject the quadruplet and its lift
    s = standard_quadruplet(parse_compact("(0,0,0,0,0)"))
    broken = SU2Structure(s.algebra, s.eta, s.omega1, -s.omega2, s.omega3)
    assert not validate_su2(broken).passed
    assert not validate_sun(suspend_su2(broken)).passed


def kodaira_thurston_base(eps: int) -> LieAlgebra:
    if eps == 0:
        return parse_compact("(0,0,0,0)", "torus")
    return parse_equations("[algebra]\ndim = 4\nd e4 = -e23\n", name="kodaira-thurston").algebra


COUPLE = dict(
    omega1=form(4, ("12", 1), ("34", 1)),
    omega2=form(4, ("13", 1), ("24", -1)),
    omega3=form(4, ("14", 1), ("23", 1)),
)


def test_conformal_couple_on_circle_bundle_bases():
    for eps in (0, 1):
        base = kodaira_thurston_base(eps)
        report = check_conformal_couple(base, **COUPLE)
        assert report.passed, report.render()
        assert wedge(COUPLE["omega1"], COUPLE["omega1"]) == form(4, ("1234", 2))
        if eps == 0:
            assert report.value("d(omega3)").is_zero()
        else:
            assert report.value("d(omega3)") == form(4, ("123", 1))


def test_conformal_couple_failure():
    base = parse_compact("(0,0,0,0)")
    report = check_conformal_couple(base, COUPLE["omega1"], COUPLE["omega1"],
                                    COUPLE["omega3"])
    assert report.value("omega1^omega2 = 0") is False


def test_circle_bundle_curvature_generators_satisfy_theta_universality():
    for eps in (0, 1):
        base = kodaira_thurston_base(eps)
        generators = [form(4, ("12", 1), ("34", -1)), form(4, ("13", 1), ("24", 1)),
                      form(4, ("23", 1))]
        if eps == 0:
            generators.append(form(4, ("14", 1)))
        cos_t, sin_t = F(3, 5), F(4, 5)
        w1t = COUPLE["omega1"].scale(cos_t) + COUPLE["omega2"].scale(sin_t)
        w2t = COUPLE["omega1"].scale(-sin_t) + COUPLE["omega2"].scale(cos_t)
        for omega in generators:
            assert base.d(omega).is_zero()
            assert wedge(omega, COUPLE["omega1"]).is_zero()
            assert wedge(omega, COUPLE["omega2"]).is_zero()
            assert wedge(omega, w1t).is_zero()
            assert wedge(omega, w2t).is_zero()


def test_circle_bundle_structure_eps1_balanced_non_hypo():
    base = kodaira_thurston_base(1)
    s = circle_bundle_structure(base, COUPLE["omega1"], COUPLE["omega2"],
                                COUPLE["omega3"], form(4, ("23", 1)))
    assert s.algebra.differentials[4] == form(5, ("23", 1))
    assert is_balanced_su2(s).passed
    assert not is_hypo(s).passed
    assert validate_su2(s).passed


def test_circle_bundle_structure_eps0_is_hypo():
    base = kodaira_thurston_base(0)
    s = circle_bundle_structure(base, COUPLE["omega1"], COUPLE["omega2"],
                                COUPLE["omega3"], form(4, ("12", 1), ("34", -1)))
    assert is_balanced_su2(s).passed
    assert is_hypo(s).passed


def test_circle_bundle_zero_curvature_gives_product():
    base = kodaira_thurston_base(1)
    s = circle_bundle_structure(base, COUPLE["omega1"], COUPLE["omega2"],
                                COUPLE["omega3"], Form.zero(4, 2))
    assert s.algebra.differentials[4].is_zero()
    assert is_balanced_su2(s).passed


def test_circle_bundle_rejects_non_closed_curvature():
    base = kodaira_thurston_base(1)
    with pytest.raises(ValueError):
        circle_bundle_structure(base, COUPLE["omega1"], COUPLE["omega2"],
                                COUPLE["omega3"], form(4, ("14", 1)))


def test_circle_bundle_reports_a_broken_couple_and_rejects_bad_input():
    base = kodaira_thurston_base(0)
    doubled = COUPLE["omega2"].scale(2)  # omega2^2 = 4 omega1^2
    s = circle_bundle_structure(base, COUPLE["omega1"], doubled, COUPLE["omega3"],
                                form(4, ("23", 1)))
    couple = check_conformal_couple(base, COUPLE["omega1"], doubled, COUPLE["omega3"])
    assert couple.value("omega1^2 = omega2^2 = omega3^2") is False and not couple.passed
    report = validate_su2(s)
    assert report.value("omega1^omega1 = omega2^omega2") is False and not report.passed
    bad_inputs = [
        (parse_compact("(0,0,0)"), Form.zero(3, 2), (F(1), F(0)), "4-dimensional"),
        (base, form(4, ("23", 1)), (F(1), F(1)), "on the circle"),
        (kodaira_thurston_base(1), form(4, ("14", 1)), (F(1), F(0)), "must be closed"),
    ]
    for alg, curvature, theta, message in bad_inputs:
        with pytest.raises(ValueError, match=message):
            circle_bundle_structure(alg, COUPLE["omega1"], COUPLE["omega2"],
                                    COUPLE["omega3"], curvature, theta)


def test_circle_bundle_rotation_by_theta():
    base = kodaira_thurston_base(0)
    s = circle_bundle_structure(base, COUPLE["omega1"], COUPLE["omega2"],
                                COUPLE["omega3"], form(4, ("23", 1)),
                                theta=(F(0), F(1)))
    lifted1 = Form.from_terms(5, 2, [((1, 2), 1), ((3, 4), 1)])
    assert s.omega2 == -lifted1
    assert is_balanced_su2(s).passed


def test_hypo_implies_balanced_identity():
    # d(omega3^omega3) = 2 d(omega3) ^ omega3 for 2-forms
    import random
    rng = random.Random(23)
    alg = parse_compact("(0,0,0,12,14)")
    import itertools
    for _ in range(10):
        coeffs = {}
        for idx in itertools.combinations(range(1, 6), 2):
            if rng.random() < 0.6:
                coeffs[idx] = Scalar.rational(rng.randint(-3, 3))
        w = Form(5, 2, coeffs)
        lhs = alg.d(wedge(w, w))
        rhs = wedge(alg.d(w), w).scale(2)
        assert lhs == rhs


def test_sun_metric_is_identity_for_iwasawa():
    g = sun_metric_matrix(iwasawa_structure())
    for i in range(6):
        for j in range(6):
            want = Scalar.one() if i == j else Scalar.zero()
            assert g[i][j] == want


# ---------------------------------------------------------------------------
# SU(2) frame geometry: second paths for the coefficient reads.
# ---------------------------------------------------------------------------


def evaluate_oracle(form2, u, v):
    """omega(u, v) by the permutation sum over each coefficient's index tuple."""
    total = Scalar.zero()
    vectors = (u, v)
    for idx, coeff in form2.coeffs.items():
        for perm in itertools.permutations(range(form2.degree)):
            prod = coeff * insertion_sort_index(perm)[0]
            for slot, pos in enumerate(perm):
                prod = prod * Scalar.rational(vectors[pos][idx[slot] - 1])
            total = total + prod
    return total


def catalog_quadruplet(name):
    """The SU(2) quadruplet of a catalog entry, or its circle-bundle total space."""
    sf = parse_equations(get_entry(name).payload, name=name)
    if "Omega" in sf.forms:
        return circle_bundle_structure(sf.algebra, sf.forms["omega1"], sf.forms["omega2"],
                                       sf.forms["omega3"], sf.forms["Omega"],
                                       sf.theta or (F(1), F(0)))
    if sf.family is not None:
        return family_from_section(sf.algebra, sf.family, name=name)
    return StructureContext(sf).su2


SINGLE_ETA_RATIONAL = ["nil5-12-14", "nil5-12-13-23", "nil5-12-13-14p23", "solvable-sol3",
                       "circle-eps0", "circle-eps1"]
FAMILIES = ["family-kodaira-thurston", "family-nil5-12-14", "family-nil5-12-13-23"]


def dense_pullback_quadruplet():
    """The standard quadruplet pulled back by a dense rational GL(5) matrix, so
    that eta involves every generator and no kernel vector is a unit vector."""
    p = CoframeMap.from_rows([[1, 1, F(1, 2), -1, 3],
                              [1, 3, 0, 2, -1],
                              [F(-1, 3), 1, 2, 1, 1],
                              [1, 0, -2, 1, F(2, 5)],
                              [3, -1, 1, 1, 2]])
    s = standard_quadruplet(parse_compact("(0,0,0,0,0)"))
    return SU2Structure(s.algebra, *(apply_coframe_map(p, f)
                                     for f in (s.eta, s.omega1, s.omega2, s.omega3)))


def reeb_and_kernel_oracle(s):
    """xi and ker eta of a rational quadruplet by Fraction elimination: xi spans
    the nullspace of omega3's coefficient matrix, scaled to eta(xi) = 1."""
    w = [[s.omega3.coefficient((x + 1, y + 1)).as_fraction() for y in range(5)]
         for x in range(5)]
    null = dense_kernel([{y: v for y, v in enumerate(row) if v} for row in w])
    assert len(null) == 1
    eta_vec = [s.eta.coefficient((i + 1,)).as_fraction() for i in range(5)]
    pairing = sum(e * c for e, c in zip(eta_vec, null[0]))
    assert pairing != 0
    xi = [Scalar.rational(c / pairing) for c in null[0]]
    return xi, dense_kernel([{i: e for i, e in enumerate(eta_vec) if e}])


def dense_kernel(rows):
    """The kernel of sparse rows over five columns, as dense Fraction vectors."""
    return [[vec.get(c, Fraction(0)) for c in range(5)] for vec in fraction_nullspace(rows, 5)]


@pytest.mark.parametrize("name", SINGLE_ETA_RATIONAL)
def test_reeb_paths_agree_on_single_generator_eta(name):
    s = catalog_quadruplet(name)
    assert len(s.eta.coeffs) == 1
    assert _reeb_and_kernel(s) == reeb_and_kernel_oracle(s)


def test_reeb_paths_agree_on_a_dense_eta():
    s = dense_pullback_quadruplet()
    assert len(s.eta.coeffs) == 5
    assert _reeb_and_kernel(s) == reeb_and_kernel_oracle(s)


def test_rational_dense_eta_with_parametric_omegas():
    # omega1, omega2 rotated by the angle with cos = (1-t)^(1/2), sin = t^(1/2):
    # eta stays rational on all five generators, the omegas become parametric,
    # and xi, ker eta and the metric do not move
    s = dense_pullback_quadruplet()
    cos = Scalar.linear(1, -1).rational_power(F(1, 2))
    sin = Scalar.t().rational_power(F(1, 2))
    rotated = SU2Structure(s.algebra, s.eta, s.omega1.scale(cos) + s.omega2.scale(sin),
                           s.omega2.scale(cos) - s.omega1.scale(sin), s.omega3)
    assert any(not c.diff().is_zero() for c in rotated.omega1.coeffs.values())
    assert _reeb_and_kernel(rotated) == _reeb_and_kernel(s)
    assert rotated.geometry.metric == s.geometry.metric
    report = validate_su2(rotated)
    assert report.passed, report.render()


def test_suspension_builds_the_geometry_once(monkeypatch):
    calls = []
    original = structures.su2_geometry

    def counted(s):
        calls.append(s)
        return original(s)

    monkeypatch.setattr(structures, "su2_geometry", counted)
    s = standard_quadruplet(parse_compact("(0,0,0,12,14)"))
    assert validate_sun(suspend_su2(s)).passed
    assert len(calls) == 1


def test_quadruplets_are_frozen():
    s = standard_quadruplet(parse_compact("(0,0,0,12,14)"))
    with pytest.raises(dataclasses.FrozenInstanceError):
        s.eta = s.omega3


def test_restricted_matrices_match_the_permutation_oracle():
    dense = dense_pullback_quadruplet()
    assert all(sum(1 for c in u if c) > 1 for u in su2_geometry(dense).kernel_basis)
    for s in [catalog_quadruplet(name) for name in FAMILIES] + [dense]:
        kernel = su2_geometry(s).kernel_basis
        assert all(type(x) is int for u in kernel for x in u if x.denominator == 1)
        for f in (s.omega1, s.omega2, s.omega3):
            want = [[evaluate_oracle(f, u, v) for v in kernel] for u in kernel]
            assert _restricted_matrix(f, kernel) == want


def test_pfaffian_inverse_of_parametric_omega3():
    s = catalog_quadruplet("family-nil5-12-14")
    _, kernel = _reeb_and_kernel(s)
    w = _restricted_matrix(s.omega3, kernel)
    assert any(not c.diff().is_zero() for row in w for c in row)
    identity = [[Scalar.rational(1 if i == j else 0) for j in range(4)] for i in range(4)]
    assert scalar_mat_mul(_pfaffian_inverse(w), w) == identity


GEOMETRY_ERRORS = {"eta must be a nowhere vanishing 1-form",
                   "omega3 must have a one-dimensional kernel",
                   "omega3 is degenerate on ker eta"}


def random_quadruplet(rng, parametric):
    """Sparse small-integer 2-forms on the abelian algebra, with a rational eta or
    eta = c(t)*e^k for a parametric c."""
    def small_form(degree):
        terms = [(idx, rng.choice([0, 0, 0, 1, -1, 2]))
                 for idx in itertools.combinations(range(1, 6), degree)]
        return Form.from_terms(5, degree, [(idx, v) for idx, v in terms if v])

    if parametric:
        c = rng.choice([Scalar.t(), Scalar.linear(1, 2), Scalar.linear(2, -1).rational_power(F(-1)),
                        Scalar.linear(1, F(-3, 2)).rational_power(F(1, 3))])
        eta = Form(5, 1, {(rng.randrange(1, 6),): c})
    else:
        eta = small_form(1)
    return SU2Structure(parse_compact("(0,0,0,0,0)"), eta, small_form(2), small_form(2),
                        small_form(2))


def test_su2_geometry_raises_only_where_its_construction_can_fail():
    """xi contracts omega3 to zero with eta(xi) = 1, and each projection row
    rebuilds e_x - eta(e_x) xi in the kernel basis; otherwise one of the three
    input checks raises."""
    rng = random.Random(3)
    outcomes = collections.Counter()
    for case in range(600):
        s = random_quadruplet(rng, parametric=case % 4 == 0)
        try:
            geo = su2_geometry(s)
        except ValueError as exc:
            assert str(exc) in GEOMETRY_ERRORS, exc
            outcomes[str(exc)] += 1
            continue
        outcomes["built"] += 1
        eta = [s.eta.coefficient((i,)) for i in range(1, 6)]
        assert contract(geo.xi, s.omega3).is_zero()
        assert sum((c * x for c, x in zip(eta, geo.xi)), Scalar.zero()) == Scalar.one()
        for x, coords in enumerate(geo.proj):
            rebuilt = [sum((c * Scalar.rational(u[i]) for c, u in zip(coords, geo.kernel_basis)),
                           Scalar.zero()) for i in range(5)]
            want = [(Scalar.one() if i == x else Scalar.zero()) - eta[x] * xi
                    for i, xi in enumerate(geo.xi)]
            assert rebuilt == want, (case, x)
    assert set(outcomes) == GEOMETRY_ERRORS | {"built"}, outcomes


def test_dense_pullback_quadruplet_is_valid_and_suspends():
    s = dense_pullback_quadruplet()
    report = validate_su2(s)
    assert report.passed, report.render()
    suspended = suspend_su2(s)
    sun = validate_sun(suspended)
    assert sun.passed, sun.render()


# The nine 5-dimensional nilpotent Lie algebras in Salamon notation, each with
# the permutation of e1..e5 that makes the standard quadruplet balanced on it.
NILPOTENT_5 = {
    "(0,0,0,0,0)": (0, 1, 2, 3, 4),
    "(0,0,0,0,12)": (0, 1, 2, 3, 4),
    "(0,0,0,12,13)": (0, 1, 2, 3, 4),
    "(0,0,0,12,14)": (0, 1, 2, 3, 4),
    "(0,0,0,0,12+34)": (0, 1, 4, 2, 3),
    "(0,0,0,12,13+24)": (0, 1, 3, 2, 4),
    "(0,0,12,13,14)": (0, 1, 2, 3, 4),
    "(0,0,12,13,23)": (0, 1, 2, 3, 4),
    "(0,0,12,13,14+23)": (0, 1, 2, 3, 4),
}


def permuted_quadruplet(algebra, perm):
    """The standard quadruplet with each e^i renamed e^(perm[i-1]+1)."""
    s = standard_quadruplet(algebra)
    return SU2Structure(algebra, *(
        Form.from_terms(5, a.degree, [(tuple(perm[i - 1] + 1 for i in idx), c)
                                      for idx, c in a.coeffs.items()])
        for a in (s.eta, s.omega1, s.omega2, s.omega3)))


def bracket(algebra, i, x):
    """[e_i, x] for x = {j: c}, from de^k(e_i, e_j) = -e^k([e_i, e_j])."""
    out = {}
    for k, dk in enumerate(algebra.differentials, start=1):
        v = -sum(c * dk.coefficient((i, j)).as_fraction() * (1 if i < j else -1)
                 for j, c in x.items() if j != i)
        if v:
            out[k] = v
    return out


def lower_central_series(algebra):
    """Bases of g = g^1, g^2 = [g, g^1], ... up to the first term equal to the next."""
    n = algebra.dimension
    series = [[{i: 1} for i in range(1, n + 1)]]
    while series[-1]:
        echelon, pivots = [], []
        for i in range(1, n + 1):
            for x in series[-1]:
                insert_echelon_row(echelon, pivots, bracket(algebra, i, x))
        if len(echelon) == len(series[-1]):
            break
        series.append(echelon)
    return series


def centralizer_dimension(algebra, span):
    """dim {x : [x, v] = 0 for every v in span}."""
    n = algebra.dimension
    rows = []
    for v in span:
        images = [bracket(algebra, i, v) for i in range(1, n + 1)]
        rows += [{i: img[k] for i, img in enumerate(images) if k in img}
                 for k in range(1, n + 1)]
    return len(fraction_nullspace(rows, n))


def test_every_five_dimensional_nilpotent_algebra_carries_a_balanced_su2_structure():
    """The paper's nilmanifold claim on all nine algebras.  The invariants
    (Betti numbers, dims of g^k, dims of the centralizers of g^k) tell the
    nine apart; the centralizers are needed, since (0,0,0,12,14) and
    (0,0,0,12,13+24), and (0,0,12,13,14) and (0,0,12,13,14+23), share the
    other two."""
    invariants = set()
    for text, perm in NILPOTENT_5.items():
        algebra = parse_compact(text)
        assert check_jacobi(algebra).passed, text
        series = lower_central_series(algebra)
        assert not series[-1], text  # nilpotent: the series reaches 0
        s = permuted_quadruplet(algebra, perm)
        assert validate_su2(s).passed, text
        assert is_balanced_su2(s).passed, text
        invariants.add((ce_cohomology(algebra).betti, tuple(map(len, series)),
                        tuple(centralizer_dimension(algebra, span) for span in series)))
    assert len(invariants) == len(NILPOTENT_5)
    assert len({(betti, dims) for betti, dims, _ in invariants}) == len(NILPOTENT_5) - 2
    # the frame matters: unpermuted, the standard quadruplet on h5 is not balanced
    h5 = parse_compact("(0,0,0,0,12+34)")
    assert validate_su2(standard_quadruplet(h5)).passed
    assert not is_balanced_su2(standard_quadruplet(h5)).passed
