"""Acceptance suite: one test per criterion, exact tolerances throughout.

Each test prints a single pass line (visible with pytest -s).  Three printed
source values fail exact verification; those assertions are kept faithful to
the stated criteria under strict xfail markers, with companion tests pinning
the verified values.  The analysis lives in the entry source_states and in
the repository notes.
"""

import random
from fractions import Fraction

import pytest

from lieforms._linalg import scalar_matrix_determinant
from lieforms.algebras import parse_compact, parse_equations, parse_scalar_expr
from lieforms.catalog import catalog_manifest, get_entry, run_entry
from lieforms.connection import (
    MetricFrame,
    bismut_connection,
    curvature,
    holonomy_algebra,
    levi_civita,
    torsion_form,
)
from lieforms.evolution import family_from_section, family_volume
from lieforms.exterior import CoframeMap, Form, apply_coframe_map, contract, wedge, wedge_power
from lieforms.scalars import Scalar
from lieforms.structures import (
    SU2Structure,
    SUnStructure,
    complex_volume_forms,
    is_balanced_su2,
    is_balanced_sun,
    is_hypo,
    restrict_to_hypersurface,
    restrictable_directions,
    standard_quadruplet,
    suspend_su2,
)
from sign_reference import torsion_lookup

F = Fraction


def form(dim, *terms):
    return Form.from_terms(dim, len(terms[0][0]),
                           [([int(c) for c in idx], coeff) for idx, coeff in terms])


def entry_passes(name):
    report = run_entry(get_entry(name))
    assert report.passed, report.render()
    return report


def structure_from(name):
    entry = get_entry(name)
    sf = parse_equations(entry.payload, name=name)
    return entry, sf


def sun_from(sf):
    return SUnStructure(sf.algebra, sf.forms["F"], sf.forms["psi_plus"],
                        sf.forms["psi_minus"], sf.coframe_map)


def test_criterion_01_jacobi():
    for entry in catalog_manifest():
        report = run_entry(entry)
        assert report.passed or entry.name == "bad-jacobi-12-34", report.render()
    bad = run_entry(get_entry("bad-jacobi-12-34"))
    assert bad.passed  # the entry EXPECTS the failure with residual -e123
    from lieforms.algebras import check_jacobi
    residuals = dict(check_jacobi(parse_compact("(0,0,0,12,34)")).residuals)
    assert residuals["d^2 e5"] == form(5, ("123", -1))
    print("PASS criterion 1: Jacobi holds on the catalog; seeded case fails with -e123")


def test_criterion_02_balanced_quadruplets():
    for name in ("nil5-12-14", "nil5-12-13-23", "nil5-12-13-14p23"):
        entry_passes(name)
        compact = {"nil5-12-14": "(0,0,0,12,14)",
                   "nil5-12-13-23": "(0,0,12,13,23)",
                   "nil5-12-13-14p23": "(0,0,12,13,14+23)"}[name]
        s = standard_quadruplet(parse_compact(compact))
        hypo = is_hypo(s)
        assert not hypo.value("d(omega3)").is_zero()
    print("PASS criterion 2: standard quadruplet balanced and non-hypo on all three algebras")


def test_criterion_03_solvable_cohomology_and_residuals():
    report = entry_passes("solvable-sol3")
    text = "\n".join(report.lines)
    assert "b1 = 2" in text and "b2 = 1" in text
    assert "d(omega2^eta) = e1234" in text
    print("PASS criterion 3: solvable example cohomology and residual table recorded")


def test_criterion_04_circle_bundles():
    entry_passes("circle-eps0")
    entry_passes("circle-eps1")
    print("PASS criterion 4: curvature generators and circle-bundle structures verified")


def test_criterion_05_evolution_families():
    entry_passes("family-kodaira-thurston")
    entry_passes("family-nil5-12-14")
    entry_passes("family-nil5-12-13-23")
    entry, sf = structure_from("family-nil5-12-14")
    fam = family_from_section(sf.algebra, sf.family)
    vol = family_volume(fam)
    assert vol.coefficient == parse_scalar_expr("2*((2-3*t)/2)^(1/3)")
    print("PASS criterion 5: families evolve, suspensions reproduce the listed "
          "structures, coframes orthonormal, first volume exact")


@pytest.mark.xfail(strict=True, reason=(
    "printed volume '-2 (constant)' for the (0,0,12,13,23) family fails exact "
    "verification: omega1^2 ^ eta = (t-2) e12345, as the listed orthonormal "
    "coframe itself confirms"))
def test_criterion_05_volume_as_printed():
    _, sf = structure_from("family-nil5-12-13-23")
    fam = family_from_section(sf.algebra, sf.family)
    vol = family_volume(fam)
    print("FAIL criterion 5 (second volume as printed): verified value is "
          f"({vol.coefficient.render()}) e12345, not -2 e12345")
    assert vol.coefficient == Scalar.rational(-2)


def test_criterion_05_volume_verified_value():
    _, sf = structure_from("family-nil5-12-13-23")
    fam = family_from_section(sf.algebra, sf.family)
    assert family_volume(fam).coefficient == Scalar.linear(-2, 1)


def test_criterion_06_theorem_4_1():
    entry_passes("thm4.1-I")
    report = entry_passes("thm4.1-II")
    assert "connection" in report.source_states  # recomputed table recorded
    print("PASS criterion 6: case (I) tables exact, holonomy su(3) dim 8; "
          "case (II) recomputed and dim 8")


def test_criterion_07_theorem_4_2():
    entry_passes("thm4.2-h2")
    report = entry_passes("thm4.2-h19m")
    assert "omega^2_6" in report.source_states
    print("PASS criterion 7: two-step structure exact incl. basis change "
          "(constants 1); three-step structure verified, holonomy dim 8")


@pytest.mark.xfail(strict=True, reason=(
    "two printed three-step values fail exact verification: omega^2_6 = (1/2)e6 "
    "violates the first structure equation (the entry belongs at omega^3_4), and "
    "the e36-coefficient of Omega^1_6 is +1/2, not -1/2"))
def test_criterion_07_h19_tables_as_printed():
    _, sf = structure_from("thm4.2-h19m")
    frame = MetricFrame(sf.algebra, sf.coframe_map)
    sheet = bismut_connection(frame, sf.forms["F"])
    print("FAIL criterion 7 (three-step tables as printed): verified "
          f"omega^2_6 = {sheet.omega(2, 6).render()}, omega^3_4 = {sheet.omega(3, 4).render()}")
    assert sheet.omega(2, 6) == form(6, ("6", F(1, 2)))


def test_criterion_08_solvmanifold_6d():
    report = entry_passes("solv6d")
    text = "\n".join(report.lines)
    assert "T_235 = -2" in text and "T_246 = 2" in text
    print("PASS criterion 8: 6d solvmanifold torsion components, tables and "
          "holonomy dim 8 verified")


@pytest.mark.xfail(strict=True, reason=(
    "printed connection entry omega^3_4 = e5 contradicts the first structure "
    "equation (residual -e45) and the printed curvature; verified value 0"))
def test_criterion_08_connection_as_printed():
    _, sf = structure_from("solv6d")
    frame = MetricFrame(sf.algebra, sf.coframe_map)
    sheet = bismut_connection(frame, sf.forms["F"])
    print("FAIL criterion 8 (omega^3_4 as printed): verified value is "
          f"{sheet.omega(3, 4).render()}")
    assert sheet.omega(3, 4) == form(6, ("5", 1))


def test_criterion_09_eight_dimensional_examples():
    entry_passes("ex4.3")
    for name in ("ex4.4-c1", "ex4.4-c2", "ex4.4-cneg1half", "ex4.4-cneg3"):
        entry_passes(name)
    entry_passes("ex4.5")
    report = entry_passes("ex4.6")
    assert "holonomy" in report.source_states
    print("PASS criterion 9: 8d examples verified (4.3: 9+6 -> su(4); 4.4 at four "
          "parameter values and 4.5: 15 curvature forms; 4.6 tables and dF^3 = 0)")


@pytest.mark.xfail(strict=True, reason=(
    "the holonomy claim for the parallelizable 8d example fails exact "
    "verification: the endomorphism span stabilizes at dimension 6 "
    "(bracket-closed, checked through four derivative generations); counting "
    "independent 2-forms bounds a different flattening of the derivative tensor"))
def test_criterion_09_ex46_holonomy_as_printed():
    _, sf = structure_from("ex4.6")
    frame = MetricFrame(sf.algebra, sf.coframe_map)
    sheet = bismut_connection(frame, sf.forms["F"])
    report = holonomy_algebra(sheet, curvature(sheet))
    print("FAIL criterion 9 (ex4.6 holonomy as printed): verified span dimension "
          f"is {report.span_dimension}, contained in su(4), stabilized at order "
          f"{report.stabilized_at_order}")
    assert report.span_dimension == 15


# --- criterion 10: property suites (fixed seed) ------------------------------


def test_criterion_10_hypo_implies_balanced():
    rng = random.Random(101)
    abelian = parse_compact("(0,0,0,0,0)")
    for _ in range(8):
        while True:
            rows = [[Scalar.rational(rng.randint(-2, 2)) for _ in range(5)]
                    for _ in range(5)]
            if not scalar_matrix_determinant(rows).is_zero():
                break
        cmap = CoframeMap(rows)
        s = standard_quadruplet(abelian)
        pulled = SU2Structure(
            abelian,
            apply_coframe_map(cmap, s.eta),
            apply_coframe_map(cmap, s.omega1),
            apply_coframe_map(cmap, s.omega2),
            apply_coframe_map(cmap, s.omega3),
        )
        hypo = is_hypo(pulled)
        assert hypo.passed  # abelian: everything closed
        assert is_balanced_su2(pulled).passed
    # the identity behind the implication, on a non-abelian algebra
    alg = parse_compact("(0,0,12,13,23)")
    import itertools
    for _ in range(10):
        coeffs = {idx: Scalar.rational(rng.randint(-3, 3))
                  for idx in itertools.combinations(range(1, 6), 2)
                  if rng.random() < 0.7}
        w = Form(5, 2, {k: v for k, v in coeffs.items() if not v.is_zero()})
        assert alg.d(wedge(w, w)) == wedge(alg.d(w), w).scale(2)
    print("PASS criterion 10a: hypo implies balanced on randomized quadruplets")


def test_criterion_10_restrict_suspend_round_trip():
    for compact in ("(0,0,0,12,14)", "(0,0,12,13,23)", "(0,0,12,13,14+23)"):
        s = standard_quadruplet(parse_compact(compact))
        back = restrict_to_hypersurface(suspend_su2(s), [0, 0, 0, 0, 0, 1])
        assert (back.eta, back.omega1, back.omega2, back.omega3) == \
               (s.eta, s.omega1, s.omega2, s.omega3)
        assert back.algebra.differentials == s.algebra.differentials
    print("PASS criterion 10b: restriction inverts suspension exactly")


def test_criterion_10_restriction_property():
    for name in ("thm4.1-I", "thm4.1-II", "thm4.2-h2", "thm4.2-h19m", "solv6d"):
        _, sf = structure_from(name)
        sun = sun_from(sf)
        assert is_balanced_sun(sun).passed
        directions = restrictable_directions(sun)
        assert directions, name
        for k in directions:
            unit = [1 if i == k - 1 else 0 for i in range(6)]
            restricted = restrict_to_hypersurface(sun, unit)
            assert is_balanced_su2(restricted).passed, (name, k)
    print("PASS criterion 10c: restrictions of balanced structures along "
          "admissible unit frame directions stay balanced")


def test_criterion_10_randomized_algebraic_laws():
    rng = random.Random(202)
    import itertools

    def rand_form(dim, degree, density=0.5):
        coeffs = {}
        for idx in itertools.combinations(range(1, dim + 1), degree):
            if rng.random() < density:
                c = Scalar.rational(F(rng.randint(-4, 4), rng.randint(1, 3)))
                if not c.is_zero():
                    coeffs[idx] = c
        return Form(dim, degree, coeffs)

    alg = parse_compact("(0,0,0,0,13+42,14+23)")
    for _ in range(15):
        p, q = rng.randint(1, 3), rng.randint(1, 2)
        a, b = rand_form(6, p), rand_form(6, q)
        assert wedge(a, b) == wedge(b, a).scale((-1) ** (p * q))
        x = [F(rng.randint(-3, 3)) for _ in range(6)]
        lhs = contract(x, wedge(a, b))
        rhs = wedge(contract(x, a), b) + wedge(a, contract(x, b)).scale((-1) ** p)
        assert lhs == rhs
        da = parse_compact("(0,0,0,0,13+42,14+23)").d(a)
        assert alg.d(da).is_zero()
    print("PASS criterion 10d: anticommutativity, contraction antiderivation, d^2 = 0")


def test_criterion_10_dual_path_connections():
    for name in ("thm4.1-I", "thm4.1-II", "thm4.2-h2", "thm4.2-h19m", "solv6d",
                 "ex4.3", "ex4.5", "ex4.6"):
        _, sf = structure_from(name)
        frame = MetricFrame(sf.algebra, sf.coframe_map)
        sheet = bismut_connection(frame, sf.forms["F"])  # asserts path agreement
        lc = levi_civita(frame)
        _, components = torsion_form(frame, sf.forms["F"])
        n = sf.algebra.dimension
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    assert sheet.gamma[i][j][k] == lc.gamma[i][j][k] + \
                        torsion_lookup(components, k + 1, j + 1, i + 1) / 2
    print("PASS criterion 10e: Koszul-plus-torsion equals the Cartan solution "
          "on every catalog frame")


def test_criterion_10_holonomy_permutation_invariance():
    rng = random.Random(303)
    _, sf = structure_from("thm4.2-h2")
    frame = MetricFrame(sf.algebra, sf.coframe_map)
    sheet = bismut_connection(frame, sf.forms["F"])
    curv = curvature(sheet)
    tensor = curv.tensor()
    from lieforms._linalg import insert_echelon_row
    base = holonomy_algebra(sheet, curv).generation_dimensions[0]
    for _ in range(5):
        keys = list(tensor)
        rng.shuffle(keys)
        echelon, pivots = [], []
        for key in keys:
            mat = tensor[key]
            insert_echelon_row(echelon, pivots, {6 * i + j: mat[i][j] for i in range(6)
                                                 for j in range(6) if mat[i][j]})
        assert len(echelon) == base
    print("PASS criterion 10f: holonomy span invariant under enumeration order")


def test_criterion_10_standard_model_volume_normalization():
    e = [Form.generator(6, i) for i in range(1, 7)]
    psi_plus, psi_minus = complex_volume_forms([(e[0], e[1]), (e[2], e[3]), (e[4], e[5])])
    f = form(6, ("12", 1), ("34", 1), ("56", 1))
    assert wedge(psi_plus, psi_minus) == form(6, ("123456", 4))
    assert wedge_power(f, 3) == form(6, ("123456", 6))
    assert wedge(psi_plus, psi_minus) == wedge_power(f, 3).scale(F(2, 3))
    print("PASS criterion 10g: psi+ ^ psi- = (2/3) F^3 on the standard model")
