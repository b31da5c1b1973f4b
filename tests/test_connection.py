import dataclasses
import functools
import itertools
import math
import random
from fractions import Fraction

import pytest

from lieforms import connection
from lieforms._linalg import bracket as _bracket
from lieforms._linalg import insert_echelon_row
from lieforms._linalg import nonzero_entries as _nonzero_entries
from lieforms.algebras import LieAlgebra, parse_compact, parse_equations
from lieforms.catalog import catalog_manifest, get_entry
from lieforms.connection import (
    ConnectionSheet,
    CurvatureSheet,
    HolonomyReport,
    MetricFrame,
    bismut_connection,
    _reduced,
    connection_from_cartan,
    curvature,
    holonomy_algebra,
    levi_civita,
    nabla_matrices,
    torsion_form,
)
from lieforms.exterior import CoframeMap, Form, span_rank, wedge, wedge_power
from lieforms.scalars import Scalar
from lieforms.structures import SUnStructure, is_balanced_sun
from sign_reference import torsion_lookup

F = Fraction


def form(dim, *terms):
    return Form.from_terms(dim, len(terms[0][0]),
                           [([int(c) for c in idx], coeff) for idx, coeff in terms])


# ---------------------------------------------------------------------------
# Second paths kept with the tests: metricity, the torsion 2-forms with the
# first Bianchi identity, and the covariant derivatives of the curvature
# tensor as a holonomy oracle.
# ---------------------------------------------------------------------------


def _denominator(mats):
    """The lcm of the denominators of rational matrices."""
    return math.lcm(*(x.denominator for mat in mats for row in mat for x in row))


def _integral(mat, den=None):
    """The rational matrix times den, by default the lcm of its denominators."""
    den = den or _denominator([mat])
    return [[x.numerator * (den // x.denominator) for x in row] for row in mat]


def _direction(gamma, m):
    """Lambda_m = nabla_{e_m} as the matrix [gamma[i][j][m]] (0-based m)."""
    return [[g[m] for g in row] for row in gamma]


def edited_sheet(sheet, shifts):
    """``sheet`` with each gamma[i][j][k] shifted by ``shifts[(i, j, k)]``, rebuilt
    through ``from_table`` from an edited copy of its rational table."""
    gamma = [[list(row) for row in plane] for plane in sheet.gamma]
    for (i, j, k), shift in shifts.items():
        gamma[i][j][k] += shift
    den = _denominator(gamma)
    return ConnectionSheet.from_table(sheet.frame, den, [_integral(plane, den) for plane in gamma],
                                      sheet.torsion, sheet.torsion_components)


def is_metric(sheet):
    n = sheet.frame.algebra.dimension
    return all(sheet.gamma[i][j][k] == -sheet.gamma[j][i][k]
               for i in range(n) for j in range(n) for k in range(n))


def tau(sheet, i):
    """Torsion 2-form tau^i = sum_{j<k} T_{ijk} e^jk."""
    n = sheet.frame.algebra.dimension
    return Form.from_terms(n, 2, [((j, k), torsion_lookup(sheet.torsion_components, i, j, k))
                                  for j, k in itertools.combinations(range(1, n + 1), 2)])


def first_bianchi_residuals(sheet, curv):
    """d tau^i + sum_j omega^i_j ^ tau^j - sum_j Omega^i_j ^ e^j, all of which must vanish."""
    n = sheet.frame.algebra.dimension
    out = []
    for i in range(1, n + 1):
        acc = sheet.frame.algebra.d(tau(sheet, i))
        for j in range(1, n + 1):
            acc = acc + wedge(sheet.omega(i, j), tau(sheet, j))
            acc = acc - wedge(curv.omega_form(i, j), Form.generator(n, j))
        out.append(acc)
    return out


def cartan_residuals_oracle(sheet):
    """The first structure equation in Fractions: the e^ab coefficient (a < b)
    of de^i + sum_j omega^i_j ^ e^j - tau^i is de^i_ab + G[i][b][a] - G[i][a][b] - T_iab."""
    n = sheet.frame.algebra.dimension
    out = []
    for i in range(1, n + 1):
        diff, g = sheet.frame.algebra.differentials[i - 1], sheet.gamma[i - 1]
        coeffs = {}
        for a, b in itertools.combinations(range(1, n + 1), 2):
            val = (diff.coefficient((a, b)).as_fraction() + g[b - 1][a - 1] - g[a - 1][b - 1]
                   - torsion_lookup(sheet.torsion_components, i, a, b))
            if val:
                coeffs[(a, b)] = Scalar.rational(val)
        out.append(Form(n, 2, coeffs))
    return out


def derive_tensor(sheet, tensor):
    """One covariant derivative in every frame direction.

    Keys are (k, l, m_1, ..., m_g) with the 2-form slot first.  Every index of
    the (1, 3+g)-tensor receives a connection correction; the frame-derivative
    term is absent because components are constant on the group.  Corrections
    are scattered, since they can create components at 2-form slots where the
    input tensor had none.
    """
    n = sheet.frame.algebra.dimension
    gammas = [_direction(sheet.gamma, m) for m in range(n)]
    gamma_entries = [[(i, r, gm[i][r]) for i in range(n) for r in range(n) if gm[i][r]]
                     for gm in gammas]
    out = {}

    def accumulate(key, mat, scale):
        k, l = key[0], key[1]
        if k == l:
            return
        if k > l:
            key = (l, k) + key[2:]
            scale = -scale
        entry = out.setdefault(key, [[F(0)] * n for _ in range(n)])
        for i in range(n):
            for j in range(n):
                if mat[i][j]:
                    entry[i][j] += scale * mat[i][j]

    for key, base in tensor.items():
        for m in range(n):
            commutator = [[F(0)] * n for _ in range(n)]
            for i, r, v in gamma_entries[m]:
                for j in range(n):
                    if base[r][j]:
                        commutator[i][j] += v * base[r][j]
            for r, j, v in gamma_entries[m]:
                for i in range(n):
                    if base[i][r]:
                        commutator[i][j] -= base[i][r] * v
            accumulate(key + (m + 1,), commutator, F(1))
            # lower-slot corrections: (nabla_m T)(.., e_s, ..) picks up
            # -gamma^{r}_{s m} T(.., e_r, ..) for each slot holding r
            for pos, r in enumerate(key):
                for s, coeff in enumerate(gammas[m][r - 1], start=1):
                    if coeff:
                        accumulate(key[:pos] + (s,) + key[pos + 1:] + (m + 1,), base, -coeff)
    return {k: v for k, v in out.items() if any(any(row) for row in v)}


def covariant_derivative_curvature(sheet, curv, order):
    """Iterated covariant derivatives of the curvature tensor, one per order."""
    out, current = [], curv.tensor()
    for _ in range(order):
        current = derive_tensor(sheet, current)
        out.append(current)
    return out


STANDARD_J6 = CoframeMap.from_rows([
    [0, -1, 0, 0, 0, 0],
    [1, 0, 0, 0, 0, 0],
    [0, 0, 0, -1, 0, 0],
    [0, 0, 1, 0, 0, 0],
    [0, 0, 0, 0, 0, -1],
    [0, 0, 0, 0, 1, 0],
])

IWASAWA = parse_compact("(0,0,0,0,13+42,14+23)", name="iwasawa")
IWASAWA_F = None


def iwasawa_frame():
    return MetricFrame(IWASAWA, STANDARD_J6), form(6, ("12", 1), ("34", 1), ("56", 1))


def test_torsion_iwasawa():
    frame, kf = iwasawa_frame()
    torsion, components = torsion_form(frame, kf)
    assert torsion == form(6, ("135", -1), ("146", -1), ("236", -1), ("245", 1))
    assert components[(1, 3, 5)] == -1
    assert components[(2, 4, 5)] == 1


def test_torsion_requires_j_invariant_f():
    frame, _ = iwasawa_frame()
    with pytest.raises(ValueError):
        torsion_form(frame, form(6, ("13", 1)))


def test_levi_civita_abelian_is_flat():
    frame = MetricFrame(parse_compact("(0,0,0,0,0,0)"), STANDARD_J6)
    lc = levi_civita(frame)
    assert all(lc.gamma[i][j][k] == 0 for i in range(6) for j in range(6) for k in range(6))
    sheet = bismut_connection(frame, form(6, ("12", 1), ("34", 1), ("56", 1)))
    assert all(sheet.omega(i, j).is_zero() for i in range(1, 7) for j in range(1, 7))
    curv = curvature(sheet)
    assert not curv.forms
    report = holonomy_algebra(sheet, curv)
    assert report.span_dimension == 0


def test_levi_civita_satisfies_torsion_free_cartan():
    frame, _ = iwasawa_frame()
    lc = levi_civita(frame)
    assert is_metric(lc)
    assert all(r.is_zero() for r in lc.cartan_residuals())
    # the Iwasawa metric is not Kaehler, so its Levi-Civita connection moves J
    assert not lc.preserves_j()


SKEW_SHIFT = {(0, 1, 2): 1, (1, 0, 2): -1}  # a metric change of nabla_{e_3}


def test_cartan_residuals_detect_a_perturbed_gamma():
    sheet, _ = catalog_sheet("ex4.3")
    assert all(r.is_zero() for r in sheet.cartan_residuals())
    # omega^1_2 gains e^3 and omega^2_1 loses it, so de^1 + omega^1_j ^ e^j
    # gains -e^23 and de^2 + omega^2_j ^ e^j gains e^13
    residuals = edited_sheet(sheet, SKEW_SHIFT).cartan_residuals()
    n = sheet.frame.algebra.dimension
    assert residuals[:2] == [form(n, ("23", -1)), form(n, ("13", 1))]
    assert all(r.is_zero() for r in residuals[2:])


def test_cartan_residuals_match_the_fraction_oracle():
    sheets = [(name, catalog_sheet(name)[0]) for name in HOLONOMY_ENTRIES]
    sheets += [("slow growth", slow_growth_sheet()), ("non-unit", non_unit_sheet()),
               ("Levi-Civita", levi_civita(iwasawa_frame()[0]))]
    ex43 = dict(sheets)["ex4.3"]
    perturbed_gamma = edited_sheet(ex43, SKEW_SHIFT)
    assert any(not r.is_zero() for r in perturbed_gamma.cartan_residuals())
    sheets.append(("perturbed gamma", perturbed_gamma))
    bismut = bismut_connection(*iwasawa_frame())
    components = dict(bismut.torsion_components)
    components[(1, 3, 5)] += F(1, 7)
    perturbed = dataclasses.replace(bismut, torsion_components=components)
    sheets.append(("perturbed torsion", perturbed))
    assert len(sheets) == 17
    for name, sheet in sheets:
        assert sheet.cartan_residuals() == cartan_residuals_oracle(sheet), name
    # T_135 enters tau^1, tau^3 and tau^5, each with its sign
    zero = Form.zero(6, 2)
    assert perturbed.cartan_residuals() == [
        form(6, ("35", F(-1, 7))), zero, form(6, ("15", F(1, 7))), zero,
        form(6, ("13", F(-1, 7))), zero]


def test_bismut_connection_forms_iwasawa():
    frame, kf = iwasawa_frame()
    sheet = bismut_connection(frame, kf)
    expected = {
        (1, 5): form(6, ("3", -1)),
        (1, 6): form(6, ("4", -1)),
        (2, 5): form(6, ("4", 1)),
        (2, 6): form(6, ("3", -1)),
        (3, 5): form(6, ("1", 1)),
        (3, 6): form(6, ("2", 1)),
        (4, 5): form(6, ("2", -1)),
        (4, 6): form(6, ("1", 1)),
    }
    for i in range(1, 7):
        for j in range(i + 1, 7):
            want = expected.get((i, j), Form.zero(6, 1))
            assert sheet.omega(i, j) == want, (i, j, sheet.omega(i, j).render())
    assert is_metric(sheet)
    assert all(r.is_zero() for r in sheet.cartan_residuals())
    assert sheet.preserves_j()


def test_bismut_equals_levi_civita_plus_half_torsion():
    frame, kf = iwasawa_frame()
    sheet = bismut_connection(frame, kf)
    lc = levi_civita(frame)
    _, components = torsion_form(frame, kf)
    for i in range(6):
        for j in range(6):
            for k in range(6):
                want = lc.gamma[i][j][k] + torsion_lookup(
                    components, k + 1, j + 1, i + 1) / 2
                assert sheet.gamma[i][j][k] == want


def test_cartan_direct_solution_matches_koszul_route():
    frame, kf = iwasawa_frame()
    _, components = torsion_form(frame, kf)
    direct = connection_from_cartan(frame, components)
    sheet = bismut_connection(frame, kf)
    assert direct.gamma == sheet.gamma
    # and with zero torsion it reproduces Levi-Civita
    assert connection_from_cartan(frame, {}).gamma == levi_civita(frame).gamma


def test_bismut_paths_read_their_inputs_separately(monkeypatch):
    # the Koszul path reads the structure constants, the Cartan path the
    # differentials: a misread on one side alone must trip the cross-check
    frame, kf = iwasawa_frame()
    read = LieAlgebra.structure_constants

    def misread(self):
        s, c = read(self)
        c[0][2], c[2][0] = c[2][0], c[0][2]  # [e1, e3] read with the wrong sign
        return s, c

    monkeypatch.setattr(LieAlgebra, "structure_constants", misread)
    with pytest.raises(AssertionError, match="paths disagree"):
        bismut_connection(frame, kf)


def test_curvature_iwasawa():
    frame, kf = iwasawa_frame()
    sheet = bismut_connection(frame, kf)
    curv = curvature(sheet)
    assert curv.omega_form(1, 2) == form(6, ("34", 2))
    assert curv.omega_form(1, 3) == form(6, ("13", -1), ("24", -1))
    assert curv.omega_form(2, 3) == form(6, ("14", 1), ("23", -1))
    assert curv.omega_form(3, 4) == form(6, ("12", 2))
    listed = [curv.omega_form(1, 2), curv.omega_form(1, 3),
              curv.omega_form(2, 3), curv.omega_form(3, 4)]
    assert span_rank(listed) == 4


def test_covariant_derivatives_iwasawa():
    frame, kf = iwasawa_frame()
    sheet = bismut_connection(frame, kf)
    curv = curvature(sheet)
    nabla1 = nabla_matrices(sheet, curv, 1)
    assert nabla1[(1, 2)] == form(6, ("36", -2), ("45", 2))
    nabla2 = nabla_matrices(sheet, curv, 2)
    assert nabla2[(1, 2)] == form(6, ("35", 2), ("46", 2))
    nabla3 = nabla_matrices(sheet, curv, 3)
    assert nabla3[(3, 4)] == form(6, ("16", 2), ("25", -2))
    nabla4 = nabla_matrices(sheet, curv, 4)
    assert nabla4[(3, 4)] == form(6, ("15", -2), ("26", -2))


def test_holonomy_iwasawa_is_su3():
    frame, kf = iwasawa_frame()
    sheet = bismut_connection(frame, kf)
    curv = curvature(sheet)
    report = holonomy_algebra(sheet, curv)
    assert report.generation_dimensions[0] == 4
    assert report.generation_dimensions[1] == 8
    assert report.span_dimension == 8
    assert report.contained_in_u_n
    assert report.contained_in_su_n
    assert report.stabilized_at_order == 1


def test_holonomy_basis_matrices_are_skew():
    frame, kf = iwasawa_frame()
    sheet = bismut_connection(frame, kf)
    report = holonomy_algebra(sheet, curvature(sheet))
    for mat in report.basis:
        for i in range(6):
            for j in range(6):
                assert mat[i][j] == -mat[j][i]


def test_holonomy_span_is_enumeration_invariant():
    frame, kf = iwasawa_frame()
    sheet = bismut_connection(frame, kf)
    curv = curvature(sheet)
    base = holonomy_algebra(sheet, curv).span_dimension
    tensor = curv.tensor()
    rng = random.Random(5)
    n = 6
    for _ in range(4):
        keys = list(tensor)
        rng.shuffle(keys)
        echelon, pivots = [], []
        for key in keys:
            mat = tensor[key]
            insert_echelon_row(echelon, pivots, {i * n + j: mat[i][j] for i in range(n)
                                                 for j in range(n) if mat[i][j]})
        # generation-0 span must not depend on enumeration order
        assert len(echelon) == holonomy_algebra(sheet, curv).generation_dimensions[0]
    assert base == 8


SOLV6D = parse_equations("""
[algebra]
dim = 6
d e3 = e13
d e4 = -e14
d e5 = e15
d e6 = -e16
""", name="solv6d").algebra

SOLV6D_J = CoframeMap.from_rows([
    [0, -1, 0, 0, 0, 0],
    [1, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, -1, 0],
    [0, 0, 0, 0, 0, -1],
    [0, 0, 1, 0, 0, 0],
    [0, 0, 0, 1, 0, 0],
])


def solv6d_frame():
    # the Kaehler form adapted to J (pairs (1,2), (3,5), (4,6))
    return MetricFrame(SOLV6D, SOLV6D_J), form(6, ("12", 1), ("35", 1), ("46", 1))


def test_solv6d_torsion_components():
    frame, kf = solv6d_frame()
    assert frame.algebra.d(kf) == form(6, ("135", 2), ("146", -2))
    torsion, components = torsion_form(frame, kf)
    assert torsion == form(6, ("235", -2), ("246", 2))
    assert components[(2, 3, 5)] == -2
    assert components[(2, 4, 6)] == 2
    assert frame.algebra.d(wedge_power(kf, 2)).is_zero()


def test_solv6d_connection_table():
    frame, kf = solv6d_frame()
    sheet = bismut_connection(frame, kf)
    expected = {
        (1, 3): form(6, ("3", -1)),
        (1, 4): form(6, ("4", 1)),
        (1, 5): form(6, ("5", -1)),
        (1, 6): form(6, ("6", 1)),
        (2, 3): form(6, ("5", 1)),
        (2, 4): form(6, ("6", -1)),
        (2, 5): form(6, ("3", -1)),
        (2, 6): form(6, ("4", 1)),
        (3, 5): form(6, ("2", 1)),
        (4, 6): form(6, ("2", -1)),
    }
    # the printed table also claims omega^3_4 = e5, but that contradicts the
    # first structure equation (residual -e45) and the printed curvature;
    # the verified value is 0
    for i in range(1, 7):
        for j in range(i + 1, 7):
            want = expected.get((i, j), Form.zero(6, 1))
            assert sheet.omega(i, j) == want, (i, j, sheet.omega(i, j).render())
    assert all(r.is_zero() for r in sheet.cartan_residuals())
    assert sheet.preserves_j()


def test_solv6d_curvature_table():
    frame, kf = solv6d_frame()
    sheet = bismut_connection(frame, kf)
    curv = curvature(sheet)
    expected = {
        (1, 2): form(6, ("35", 2), ("46", 2)),
        (1, 3): form(6, ("13", -1), ("25", -1)),
        (1, 4): form(6, ("14", -1), ("26", -1)),
        (1, 5): form(6, ("15", -1), ("23", 1)),
        (1, 6): form(6, ("16", -1), ("24", 1)),
        (2, 3): form(6, ("15", 1), ("23", -1)),
        (2, 4): form(6, ("16", 1), ("24", -1)),
        (2, 5): form(6, ("13", -1), ("25", -1)),
        (2, 6): form(6, ("14", -1), ("26", -1)),
        (3, 4): form(6, ("34", 1), ("56", 1)),
        (3, 5): form(6, ("35", -2)),
        (3, 6): form(6, ("36", 1), ("45", 1)),
        (4, 5): form(6, ("36", 1), ("45", 1)),
        (4, 6): form(6, ("46", -2)),
        (5, 6): form(6, ("34", 1), ("56", 1)),
    }
    for (i, j), want in expected.items():
        assert curv.omega_form(i, j) == want, (i, j, curv.omega_form(i, j).render())


def test_solv6d_holonomy_su3():
    frame, kf = solv6d_frame()
    sheet = bismut_connection(frame, kf)
    report = holonomy_algebra(sheet, curvature(sheet))
    assert report.span_dimension == 8
    assert report.contained_in_su_n


def test_metric_frame_rejects_bad_j():
    with pytest.raises(ValueError):
        MetricFrame(IWASAWA, CoframeMap.from_rows([[1, 0, 0, 0, 0, 0],
                                                   [0, 1, 0, 0, 0, 0],
                                                   [0, 0, 1, 0, 0, 0],
                                                   [0, 0, 0, 1, 0, 0],
                                                   [0, 0, 0, 0, 1, 0],
                                                   [0, 0, 0, 0, 0, 1]]))
    scaled = CoframeMap.from_rows([
        [0, -2, 0, 0, 0, 0],
        [Fraction(1, 2), 0, 0, 0, 0, 0],
        [0, 0, 0, -1, 0, 0],
        [0, 0, 1, 0, 0, 0],
        [0, 0, 0, 0, 0, -1],
        [0, 0, 0, 0, 1, 0],
    ])
    with pytest.raises(ValueError, match="preserve"):
        MetricFrame(IWASAWA, scaled)


def catalog_sheet(name):
    sf = parse_equations(get_entry(name).payload, name=name)
    sheet = bismut_connection(MetricFrame(sf.algebra, sf.coframe_map), sf.forms["F"])
    return sheet, curvature(sheet)


@pytest.mark.parametrize("name", ["thm4.1-I", "ex4.3"])  # thm4.1-I is the Iwasawa group
def test_nabla_matrices_match_first_order_tensor(name):
    sheet, curv = catalog_sheet(name)
    n = sheet.frame.algebra.dimension
    first = covariant_derivative_curvature(sheet, curv, order=1)[0]
    for m in range(1, n + 1):
        want = {}
        for (k, l, direction), mat in first.items():
            for i, j in itertools.combinations(range(1, n + 1), 2):
                if direction == m and mat[i - 1][j - 1]:
                    want[(i, j)] = (want.get((i, j), Form.zero(n, 2))
                                    + form(n, (f"{k}{l}", mat[i - 1][j - 1])))
        assert nabla_matrices(sheet, curv, m) == want, m


def test_nabla_matrices_rejects_a_direction_outside_the_frame():
    sheet, curv = catalog_sheet("ex4.3")
    n = sheet.frame.algebra.dimension
    for direction in (0, n + 1):
        with pytest.raises(ValueError, match=rf"direction must be in 1\.\.{n}, got {direction}"):
            nabla_matrices(sheet, curv, direction)


HOLONOMY_ENTRIES = [e.name for e in catalog_manifest() if "holonomy_dim" in e.expected]


def assert_generations_match_tensor_spans(sheet, curv, order):
    """Kostant's bracket spans against the spans of R, nabla R, ..., nabla^order R."""
    gens = holonomy_algebra(sheet, curv).generation_dimensions
    echelon, pivots, ranks = [], [], []
    for tensor in [curv.tensor()] + covariant_derivative_curvature(sheet, curv, order):
        for mat in tensor.values():
            insert_echelon_row(echelon, pivots,
                               {c: v for c, v in enumerate(v for row in mat for v in row) if v})
        ranks.append(len(echelon))
    # once the span stops growing it stays put, so shorter generation lists extend
    assert ranks == [gens[min(k, len(gens) - 1)] for k in range(order + 1)]


@pytest.mark.parametrize("name", HOLONOMY_ENTRIES)
def test_holonomy_generations_match_tensor_derivatives(name):
    assert_generations_match_tensor_spans(*catalog_sheet(name), order=2)


def test_first_bianchi_identity_holds_on_catalog_connections():
    # with torsion: d tau^i + omega^i_j ^ tau^j = Omega^i_j ^ e^j, exactly
    assert len(HOLONOMY_ENTRIES) == 12
    for name in HOLONOMY_ENTRIES:
        sheet, curv = catalog_sheet(name)
        residuals = first_bianchi_residuals(sheet, curv)
        assert len(residuals) == sheet.frame.algebra.dimension
        assert all(r.is_zero() for r in residuals), name
    # torsion-free: Levi-Civita satisfies the classical first Bianchi identity
    lc = levi_civita(iwasawa_frame()[0])
    assert all(r.is_zero() for r in first_bianchi_residuals(lc, curvature(lc)))


def slow_growth_sheet():
    frame = MetricFrame(parse_compact("(0,0,0,12,14-23,15+34)"), STANDARD_J6)
    return bismut_connection(frame, form(6, ("12", 1), ("34", 1), ("56", 1)))


def non_unit_sheet():
    # d e4 = 1/3 e12 + 1/5 e13: the curvature matrices have different contents
    sf = parse_equations("""
    [algebra]
    dim = 4
    d e4 = 1/3*e12 + 1/5*e13
    [structure]
    F = e12 + e34
    J: e1 -> -e2, e2 -> e1, e3 -> -e4, e4 -> e3
    """)
    return bismut_connection(MetricFrame(sf.algebra, sf.coframe_map), sf.forms["F"])


def test_holonomy_generations_match_tensor_derivatives_slow_growth():
    # J is not integrable here, but the skew-torsion connection is still metric,
    # and its span grows over three orders: generations 8, 14, 15, 15
    sheet = slow_growth_sheet()
    curv = curvature(sheet)
    assert holonomy_algebra(sheet, curv).generation_dimensions == (8, 14, 15, 15)
    assert_generations_match_tensor_spans(sheet, curv, order=3)


def holonomy_algebra_oracle(sheet, curv, max_order=6):
    """Kostant's iteration with every bracket [Lambda, X] built as a full skew
    matrix before the echelon is asked whether it grows the span."""
    n = sheet.frame.algebra.dimension
    upper = [(r, i, j) for r, (i, j) in enumerate(itertools.combinations(range(n), 2))]
    lams = [_integral(_direction(sheet.gamma, m)) for m in range(n)]
    directions = [entries for entries in map(_nonzero_entries, lams) if entries]
    echelon, pivots, basis, generations = [], [], [], []

    def absorb(mats):
        grew = [mat for mat in mats if insert_echelon_row(
            echelon, pivots, {r: v for r, i, j in upper if (v := mat[i][j])})]
        basis.extend(grew)
        generations.append(len(basis))
        return grew

    new = absorb([_reduced(curv.den, [mat])[1][0] for _, mat in sorted(curv.matrices.items())])
    stabilized = None
    for order in range(1, max_order + 1):
        new = absorb([_bracket(entries, mat, n) for mat in new for entries in directions])
        if not new:
            stabilized = order - 1
            break
    j_entries = _nonzero_entries(_integral([[c.as_fraction() for c in row]
                                            for row in sheet.frame.J.matrix]))
    in_u = not any(any(row) for mat in basis for row in _bracket(j_entries, mat, n))
    in_su = in_u and all(sum(v * mat[r][i] for i, r, v in j_entries) == 0 for mat in basis)
    return HolonomyReport(len(basis), tuple(generations),
                          tuple(tuple(tuple(row) for row in mat) for mat in basis),
                          in_u, in_su, stabilized)


def test_holonomy_matches_the_full_bracket_oracle():
    sheets = [(name, catalog_sheet(name)[0]) for name in HOLONOMY_ENTRIES]
    sheets += [("slow growth", slow_growth_sheet()), ("non-unit", non_unit_sheet())]
    sheets += [*rotated_sheets(1), *rotated_sheets(7)]
    assert len(sheets) == 38
    for name, sheet in sheets:
        curv = curvature(sheet)
        assert holonomy_algebra(sheet, curv) == holonomy_algebra_oracle(sheet, curv), name
    # generations 8, 14, 15, 15: cut off before, at and after the span stops growing
    sheet = slow_growth_sheet()
    curv = curvature(sheet)
    for order in range(5):
        assert holonomy_algebra(sheet, curv, order) == holonomy_algebra_oracle(sheet, curv, order)


def levi_civita_sheet(name):
    sf = parse_equations(get_entry(name).payload, name=name)
    return levi_civita(MetricFrame(sf.algebra, sf.coframe_map))


@pytest.mark.parametrize("name, generations", [("ex4.3", (24, 28, 28)), ("thm4.2-h2", (15, 15))])
def test_levi_civita_holonomy_reaches_so_n_as_the_oracle_does(name, generations):
    # Levi-Civita does not preserve J here, so the scan's ceiling is so(n)
    sheet = levi_civita_sheet(name)
    curv = curvature(sheet)
    assert holonomy_algebra(sheet, curv).generation_dimensions == generations
    for order in range(4):
        assert holonomy_algebra(sheet, curv, order) == holonomy_algebra_oracle(sheet, curv, order)


def test_holonomy_inserts_no_bracket_once_the_span_is_su_n(monkeypatch):
    # the curvature of ex4.4-c1 already spans su(4): no order-1 product is eliminated
    sheet, curv = catalog_sheet("ex4.4-c1")
    rows = []
    real = connection.insert_echelon_row
    monkeypatch.setattr(connection, "insert_echelon_row",
                        lambda echelon, pivots, row: rows.append(row) or real(echelon, pivots, row))
    report = holonomy_algebra(sheet, curv)
    assert report.generation_dimensions == (15, 15) and report.stabilized_at_order == 0
    upper = list(itertools.combinations(range(sheet.frame.algebra.dimension), 2))
    curvature_rows = [{r: mat[i][j] for r, (i, j) in enumerate(upper) if mat[i][j]}
                      for mat in (_reduced(curv.den, [m])[1][0]
                                  for _, m in sorted(curv.matrices.items()))]
    assert rows == curvature_rows[:len(rows)]


def test_sheet_rejects_a_non_metric_connection():
    sheet = bismut_connection(*iwasawa_frame())
    with pytest.raises(ValueError, match="metric connection"):
        edited_sheet(sheet, {(0, 0, 0): 1})  # nabla_{e_1} e_1 gains an e_1 part: not skew
    lams = [list(lam) for lam in sheet.lams]
    lams[2][0] = (1, *lams[2][0][1:])
    with pytest.raises(ValueError, match="metric connection"):
        dataclasses.replace(sheet, lams=tuple(map(tuple, lams)))
    # a skew edit is still a metric connection
    assert edited_sheet(sheet, SKEW_SHIFT) != sheet


def test_connection_layer_reads_its_ints_not_the_gamma_view(monkeypatch):
    def no_view(self):
        raise AssertionError("the rational gamma view was read")

    monkeypatch.setattr(ConnectionSheet, "gamma", property(no_view))
    assert len(HOLONOMY_ENTRIES) == 12
    for name in HOLONOMY_ENTRIES:
        sheet, curv = catalog_sheet(name)
        assert all(r.is_zero() for r in sheet.cartan_residuals()), name
        assert sheet.preserves_j(), name
        sheet.render()
        for m in range(1, sheet.frame.algebra.dimension + 1):
            nabla_matrices(sheet, curv, m)
        holonomy_algebra(sheet, curv)


def test_from_table_keeps_the_lcm_scaling_and_freezes_the_sheet():
    sheets = [catalog_sheet(name)[0] for name in HOLONOMY_ENTRIES]
    sheets += [slow_growth_sheet(), non_unit_sheet(), levi_civita(iwasawa_frame()[0])]
    for sheet in sheets:
        n = sheet.frame.algebra.dimension
        table = [[[lam[i][j] for lam in sheet.lams] for j in range(n)] for i in range(n)]
        args = (sheet.torsion, sheet.torsion_components)
        assert ConnectionSheet.from_table(sheet.frame, sheet.den, table, *args) == sheet
        scaled = [[[6 * v for v in row] for row in plane] for plane in table]
        assert ConnectionSheet.from_table(sheet.frame, 6 * sheet.den, scaled, *args) == sheet
        assert sheet.den == _denominator(sheet.gamma)
        assert all(sheet.gamma[i][j][k] == F(table[i][j][k], sheet.den)
                   for i in range(n) for j in range(n) for k in range(n))
    sheet = non_unit_sheet()
    assert sheet.den > 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        sheet.den = 1
    with pytest.raises(TypeError):
        sheet.gamma[0][0][0] = F(1)


def test_metric_frame_rejects_non_lie_algebra():
    with pytest.raises(ValueError, match=r"Jacobi identity fails: d\^2 e5 = -e123"):
        MetricFrame(parse_compact("(0,0,0,12,34,0)"), STANDARD_J6)


def cartan_curvature(sheet):
    """Oracle: Omega^i_j = d omega^i_j + sum_r omega^i_r ^ omega^r_j with ``wedge``,
    and the matrices [Omega^i_j(e_k, e_l)] read back from those forms."""
    algebra = sheet.frame.algebra
    n = algebra.dimension
    forms = {}
    for i, j in itertools.combinations(range(1, n + 1), 2):
        acc = algebra.d(sheet.omega(i, j))
        for r in range(1, n + 1):
            acc = acc + wedge(sheet.omega(i, r), sheet.omega(r, j))
        if not acc.is_zero():
            forms[(i, j)] = acc
    tensor = {}
    for k, l in itertools.combinations(range(1, n + 1), 2):
        mat = [[F(0)] * n for _ in range(n)]
        for (i, j), omega in forms.items():
            val = omega.coefficient((k, l)).as_fraction()
            mat[i - 1][j - 1], mat[j - 1][i - 1] = val, -val
        if any(any(row) for row in mat):
            tensor[(k, l)] = mat
    return forms, tensor


def rotated_sheets(seed):
    import lieforms
    from perfbench.workloads import rotated_file, sun_entries
    for entry in sun_entries(lieforms):
        sf = parse_equations(rotated_file(lieforms, entry, random.Random(seed)))
        sheet = bismut_connection(MetricFrame(sf.algebra, sf.coframe_map), sf.forms["F"])
        yield f"{entry.name} at seed {seed}", sheet


def test_curvature_matches_second_cartan_equation_oracle():
    sheets = [(name, catalog_sheet(name)[0]) for name in HOLONOMY_ENTRIES]
    sheets += [*rotated_sheets(1), *rotated_sheets(7)]
    assert len(sheets) == 36
    for name, sheet in sheets:
        curv = curvature(sheet)
        forms, tensor = cartan_curvature(sheet)
        assert curv.forms == forms, name
        assert curv.tensor() == tensor, name
    # torsion-free too
    lc = levi_civita(iwasawa_frame()[0])
    assert curvature(lc).forms == cartan_curvature(lc)[0]


def test_curvature_builds_no_scalar(monkeypatch):
    name, sheet = next(rotated_sheets(1))
    made = []
    rational = Scalar.rational

    def counted(*args):
        made.append(args)
        return rational(*args)

    monkeypatch.setattr(Scalar, "rational", staticmethod(counted))
    curv = curvature(sheet)
    assert curv.matrices, name
    assert made == []
    # the forms are a view, built on first read
    assert curv.forms and made


def test_curvature_tensor_is_built_once_per_sheet(monkeypatch):
    sheet, curv = catalog_sheet("ex4.3")
    n = sheet.frame.algebra.dimension
    built = []
    scale = CurvatureSheet.scaled_tensor.func

    def spy(self):
        built.append(scale(self))
        return built[-1]

    def no_fractions(self):
        raise AssertionError("curvature integers rebuilt from the Fraction matrices")

    def no_lookup(self, indices):
        raise AssertionError("curvature matrices re-read from the forms")

    scaled_tensor = functools.cached_property(spy)
    scaled_tensor.__set_name__(CurvatureSheet, "scaled_tensor")
    monkeypatch.setattr(CurvatureSheet, "scaled_tensor", scaled_tensor)
    monkeypatch.setattr(CurvatureSheet, "tensor", no_fractions)
    monkeypatch.setattr(Form, "coefficient", no_lookup)
    holonomy_algebra(sheet, curv)
    for m in range(1, n + 1):
        nabla_matrices(sheet, curv, m)
    # holonomy reads curvature's integers; one int scaling serves all directions
    assert len(built) == 1


def test_curvature_hands_its_integers_to_holonomy_and_nabla():
    sheets = [catalog_sheet(name)[0] for name in HOLONOMY_ENTRIES]
    sheets += [slow_growth_sheet(), non_unit_sheet()]
    for sheet in sheets:
        curv = curvature(sheet)
        tensor = curv.tensor()
        r = _denominator(tensor.values())
        scaled = {}
        for (k, l), mat in tensor.items():
            scaled[(k - 1, l - 1)] = _integral(mat, r)
            scaled[(l - 1, k - 1)] = [[-v for v in row] for row in _integral(mat, r)]
        assert curv.scaled_tensor == (r, scaled)
        # holonomy scales each curvature matrix by the lcm of its own denominators
        assert ([_reduced(curv.den, [mat])[1][0] for mat in curv.matrices.values()]
                == [_integral(mat) for mat in tensor.values()])
        lcm_scaled = CurvatureSheet(curv.frame, 1,
                                    {key: _integral(mat) for key, mat in tensor.items()})
        assert holonomy_algebra(sheet, curv) == holonomy_algebra(sheet, lcm_scaled)


def second_bianchi_holds(sheet, curv, torsion_sign=1):
    """Cyclic sum over (e_k, e_l, e_m) of (nabla_{e_m} R)(e_k, e_l) + R(T(e_m, e_k), e_l).

    T(e_a, e_b) = nabla_{e_a} e_b - nabla_{e_b} e_a - [e_a, e_b], read from
    gamma and the structure constants; ``torsion_sign=-1`` flips it.
    """
    n = sheet.frame.algebra.dimension
    gamma, (s, c) = sheet.gamma, sheet.frame.algebra.structure_constants()
    zero = [[F(0)] * n for _ in range(n)]
    tensor = curv.tensor()
    r = {}  # R(e_a, e_b), 0-based, every ordered pair
    for a, b in itertools.product(range(n), repeat=2):
        if a < b:
            r[(a, b)] = tensor.get((a + 1, b + 1), zero)
        elif a > b:
            r[(a, b)] = [[-v for v in row] for row in tensor.get((b + 1, a + 1), zero)]
        else:
            r[(a, b)] = zero
    torsion = {(a, b): [torsion_sign * (gamma[x][b][a] - gamma[x][a][b] - F(c[a][b][x], s))
                        for x in range(n)]
               for a, b in itertools.product(range(n), repeat=2)}
    nabla = [nabla_matrices(sheet, curv, m + 1) for m in range(n)]

    def term(m, k, l, i, j):
        val = nabla[m].get((i + 1, j + 1), Form.zero(n, 2)).coefficient((k + 1, l + 1))
        val = val.as_fraction()
        for x, t in enumerate(torsion[(m, k)]):
            if t:
                val += t * r[(x, l)][i][j]
        return val

    return all(term(m, k, l, i, j) + term(k, l, m, i, j) + term(l, m, k, i, j) == 0
               for k, l, m in itertools.combinations(range(n), 3)
               for i, j in itertools.combinations(range(n), 2))


def test_second_bianchi_identity_holds_on_catalog_connections():
    assert len(HOLONOMY_ENTRIES) == 12
    for name in HOLONOMY_ENTRIES:
        sheet, curv = catalog_sheet(name)
        assert second_bianchi_holds(sheet, curv), name
        # the torsion term carries weight: with T flipped the sum no longer vanishes
        assert not second_bianchi_holds(sheet, curv, torsion_sign=-1), name


def test_holonomy_separates_u_n_from_su_n_and_so_2n():
    # H^2 x H^2 is Kaehler with nonzero Ricci form: holonomy u(1)+u(1), in u(2), not su(2)
    j4 = CoframeMap.from_rows([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]])
    frame = MetricFrame(parse_compact("(0,12,0,34)"), j4)
    sheet = bismut_connection(frame, form(4, ("12", 1), ("34", 1)))
    assert sheet.torsion.is_zero()
    report = holonomy_algebra(sheet, curvature(sheet))
    assert (report.span_dimension, report.contained_in_u_n, report.contained_in_su_n) == (
        2, True, False)
    # the Levi-Civita connection of the Iwasawa metric leaves u(3)
    lc = levi_civita(iwasawa_frame()[0])
    report = holonomy_algebra(lc, curvature(lc))
    assert (report.span_dimension, report.contained_in_u_n, report.contained_in_su_n) == (
        15, False, False)


# ---------------------------------------------------------------------------
# Balanced, a second path: *F = F^{n-1}/(n-1)!, so d(F^{n-1}) = 0 exactly when
# the codifferential of F vanishes (Michelsohn, Acta Math. 149, 1982).
# ---------------------------------------------------------------------------


def codifferential(sheet, kaehler_form):
    """delta F(e_b) = -sum_k (nabla_{e_k} F)(e_k, e_b) for the Levi-Civita sheet,
    where (nabla_{e_k} F)(e_a, e_b) = -sum_i (G[i][a][k] F_ib + G[i][b][k] F_ai)."""
    n = sheet.frame.algebra.dimension
    g = sheet.gamma
    f = [[kaehler_form.coefficient((a, b)).as_fraction() for b in range(1, n + 1)]
         for a in range(1, n + 1)]

    def nabla_f(k, a, b):
        return -sum(g[i][a][k] * f[i][b] + g[i][b][k] * f[a][i] for i in range(n))

    return [-sum(nabla_f(k, k, b) for k in range(n)) for b in range(n)]


def hermitian_structures():
    import lieforms
    from perfbench.workloads import rotated_file, sun_entries
    for entry in sun_entries(lieforms):
        yield entry.name, parse_equations(entry.payload)
        for seed in (1, 7):
            yield f"{entry.name} at seed {seed}", parse_equations(
                rotated_file(lieforms, entry, random.Random(seed)))
    # d e5 = e12, d e6 = e13: dF = e126 + e135 and dF ^ F = e12346, not balanced
    yield "(0,0,0,0,12,13)", parse_equations("""
    [algebra]
    compact = (0,0,0,0,12,13)
    [structure]
    F = e12 + e34 + e56
    psi_plus = e135 - e146 - e236 - e245
    psi_minus = e136 + e145 + e235 - e246
    J: e1 -> -e2, e2 -> e1, e3 -> -e4, e4 -> e3, e5 -> -e6, e6 -> e5
    """)


def test_balanced_agrees_with_the_codifferential():
    verdicts = []
    for label, sf in hermitian_structures():
        s = SUnStructure(sf.algebra, sf.forms["F"], sf.forms["psi_plus"],
                         sf.forms["psi_minus"], sf.coframe_map)
        balanced = is_balanced_sun(s).value(f"dF^{s.n - 1}").is_zero()
        delta = codifferential(levi_civita(MetricFrame(sf.algebra, sf.coframe_map)), s.F)
        assert (not any(delta)) == balanced, label
        verdicts.append((label, balanced))
    assert len(verdicts) == 37
    assert [label for label, balanced in verdicts if not balanced] == ["(0,0,0,0,12,13)"]
