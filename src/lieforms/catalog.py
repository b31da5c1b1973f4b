"""Built-in catalog of reproduced computations: the entry runner.

The entries are data in ``catalog.json``, read by ``manifest``;
``run_entry`` checks one against the engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from typing import Callable

from .algebras import (
    StructureFile,
    ce_cohomology,
    check_jacobi,
    parse_equations,
    parse_form_expr,
    parse_scalar_expr,
    verify_basis_change,
)
from .connection import (
    ConnectionSheet,
    CurvatureSheet,
    MetricFrame,
    bismut_connection,
    curvature,
    holonomy_algebra,
    nabla_matrices,
)
from .evolution import (
    ParamFamily,
    SuspendedStructure,
    family_from_section,
    family_volume,
    suspend_family,
    validate_family,
    verify_balanced_evolution,
    verify_hypo_evolution,
    verify_orthonormal_coframe,
)
from .exterior import Form, Report, span_rank, wedge
from .structures import (
    SU2Structure,
    SUnStructure,
    check_conformal_couple,
    circle_bundle_structure,
    is_balanced_su2,
    is_balanced_sun,
    is_hypo,
    restrict_to_hypersurface,
    restrictable_directions,
    validate_su2,
    validate_sun,
)
# re-exported: perfbench reads lieforms.catalog.get_entry and .catalog_manifest
from .manifest import CatalogEntry, catalog_manifest, get_entry


@dataclass
class EntryReport:
    name: str
    source: str
    passed: bool
    lines: list[str]
    source_states: dict

    def render(self) -> str:
        out = [f"{'PASS' if self.passed else 'FAIL'}  {self.name}  [{self.source}]"] + self.lines
        for key in sorted(self.source_states):
            out.append(f"  note: source states {key}: {self.source_states[key]}")
        return "\n".join(out)


# ---------------------------------------------------------------------------
# Structure files: the one path from a file to the structures it declares.
# ---------------------------------------------------------------------------


class StructureContext:
    """The structures one structure file declares, each built on first use.

    ``su2`` needs eta and omega1..omega3 on a 5-dimensional algebra, ``sun``
    needs F, psi_plus, psi_minus and J, and ``frame`` needs F and J; the
    frame carries the Bismut connection ``sheet``, its curvature ``curv`` and
    the derivatives ``nabla(m)``.  ``family`` needs a [family] section, and
    ``suspension`` is its lift with the closedness report.  Each is None when
    the file lacks what it needs.  The CLI and the catalog both read their
    structures from here, so each is computed at most once per file.
    """

    def __init__(self, sf: StructureFile):
        self.sf = sf
        self.name = sf.algebra.name
        self._nabla: dict[int, dict[tuple[int, int], Form]] = {}

    @cached_property
    def su2(self) -> SU2Structure | None:
        forms, alg = self.sf.forms, self.sf.algebra
        if not {"eta", "omega1", "omega2", "omega3"} <= set(forms) or alg.dimension != 5:
            return None
        return SU2Structure(alg, forms["eta"], forms["omega1"], forms["omega2"],
                            forms["omega3"], name=self.name)

    @cached_property
    def sun(self) -> SUnStructure | None:
        forms, cmap = self.sf.forms, self.sf.coframe_map
        if not {"F", "psi_plus", "psi_minus"} <= set(forms) or cmap is None:
            return None
        return SUnStructure(self.sf.algebra, forms["F"], forms["psi_plus"],
                            forms["psi_minus"], cmap, name=self.name)

    @cached_property
    def frame(self) -> MetricFrame | None:
        if self.sf.coframe_map is None or "F" not in self.sf.forms:
            return None
        return MetricFrame(self.sf.algebra, self.sf.coframe_map, name=self.name)

    @cached_property
    def sheet(self) -> ConnectionSheet | None:
        return None if self.frame is None else bismut_connection(self.frame,
                                                                 self.sf.forms["F"])

    @cached_property
    def curv(self) -> CurvatureSheet | None:
        return None if self.sheet is None else curvature(self.sheet)

    def nabla(self, direction: int) -> dict[tuple[int, int], Form]:
        if direction not in self._nabla:
            self._nabla[direction] = nabla_matrices(self.sheet, self.curv, direction)
        return self._nabla[direction]

    @cached_property
    def family(self) -> ParamFamily | None:
        if self.sf.family is None:
            return None
        return family_from_section(self.sf.algebra, self.sf.family, name=self.name)

    @cached_property
    def suspension(self) -> tuple[SuspendedStructure, Report] | None:
        return None if self.family is None else suspend_family(self.family)


# ---------------------------------------------------------------------------
# Entry runner: every expected assertion maps to one engine operation.
# ---------------------------------------------------------------------------


def run_entry(entry: CatalogEntry) -> EntryReport:
    lines: list[str] = []
    passed = True
    exp = entry.expected

    def check(label: str, ok: bool, detail: Callable[[], str] = str) -> None:
        nonlocal passed
        passed = passed and bool(ok)
        suffix = f"   ({text})" if not ok and (text := detail()) else ""
        lines.append(f"  [{'ok' if ok else 'FAIL'}] {label}{suffix}")

    def verdict(key: str, label: str, report: Report, show: bool = False) -> Report:
        """Check ``report`` against ``exp[key]``; ``{}`` in the label shows that value,
        and ``show`` adds the render as the failure detail."""
        check(label.replace("{}", str(exp[key])), report.passed == exp[key],
              report.render if show else str)
        return report

    def same(label: str, got: Form, expr: str) -> None:
        """Check ``got`` against the form ``expr``, where "0" is the zero form."""
        ok = got.is_zero() if expr == "0" else got == parse_form_expr(expr, n)
        check(f"{label} = {expr}", ok, got.render)

    sf = parse_equations(entry.payload, name=entry.name)
    ctx = StructureContext(sf)
    alg = sf.algebra
    n = alg.dimension

    jac = check_jacobi(alg)
    want_jac = exp.get("jacobi", True)
    check(f"jacobi = {'pass' if want_jac else 'fail'}", jac.passed == want_jac)
    for gen, expr in sorted(exp.get("jacobi_residuals", {}).items()):
        same(f"d^2 e{gen}", jac.value(f"d^2 e{gen}") or Form.zero(n, 3), expr)
    if not jac.passed:
        return EntryReport(entry.name, entry.source, passed, lines, dict(entry.source_states))

    if "su2_valid" in exp:
        verdict("su2_valid", "su2 validation = {}", validate_su2(ctx.su2))
    if "balanced_su2" in exp:
        verdict("balanced_su2", "balanced = {}", is_balanced_su2(ctx.su2), show=True)
    if "hypo_su2" in exp:
        verdict("hypo_su2", "hypo = {}", is_hypo(ctx.su2))
    for name, expr in exp.get("residual_table", {}).items():  # rows "d(a^b)"
        a, b = name[2:-1].split("^")
        same(name, alg.d(wedge(getattr(ctx.su2, a), getattr(ctx.su2, b))), expr)
    if "permuted_balanced" in exp:
        su2 = ctx.su2
        verdict("permuted_balanced", "balanced with omega2 and omega3 exchanged",
                is_balanced_su2(SU2Structure(alg, su2.eta, su2.omega1, su2.omega3, su2.omega2)))

    if "betti" in exp:
        top = max(int(k) for k in exp["betti"])
        rep = ce_cohomology(alg, top)
        for deg, want in sorted(exp["betti"].items()):
            check(f"b{deg} = {want}", rep.betti[int(deg)] == want,
                  lambda: str(rep.betti[int(deg)]))
        for deg, reps in sorted(exp.get("betti_reps", {}).items()):
            got = [r.render() for r in rep.representatives[int(deg)]]
            check(f"H^{deg} representatives = {reps}", got == reps, lambda: str(got))

    if "conformal_couple" in exp:
        verdict("conformal_couple", "conformal symplectic couple",
                check_conformal_couple(alg, sf.forms["omega1"], sf.forms["omega2"],
                                       sf.forms["omega3"]))
    for expr in exp.get("eq7_generators", ()):
        gen_form = parse_form_expr(expr, n)
        ok = (wedge(gen_form, sf.forms["omega1"]).is_zero()
              and wedge(gen_form, sf.forms["omega2"]).is_zero())
        check(f"({expr}) ^ omega1 = ({expr}) ^ omega2 = 0", ok)
    if "circle_balanced" in exp:
        theta = sf.theta or (Fraction(1), Fraction(0))
        bundle = circle_bundle_structure(alg, sf.forms["omega1"], sf.forms["omega2"],
                                         sf.forms["omega3"], sf.forms["Omega"], theta)
        verdict("circle_balanced", "total space balanced", is_balanced_su2(bundle))
        if "circle_hypo" in exp:
            verdict("circle_hypo", "total space hypo = {}", is_hypo(bundle))
        if "circle_valid" in exp:
            verdict("circle_valid", "total space su2 validation", validate_su2(bundle))
        if "extension_differential" in exp:
            want = parse_form_expr(exp["extension_differential"], 5)
            check(f"d(rho) = {exp['extension_differential']}",
                  bundle.algebra.differentials[4] == want)

    if "family_valid" in exp:
        verdict("family_valid", "family is valid on its domain", validate_family(ctx.family),
                show=True)
    if "evolution" in exp:
        verdict("evolution", "balanced evolution equations",
                verify_balanced_evolution(ctx.family), show=True)
    if "hypo_evolution" in exp:
        rep = verdict("hypo_evolution", "hypo evolution = {}", verify_hypo_evolution(ctx.family))
        for name, expr in exp.get("hypo_residual", {}).items():
            same(name, rep.value(name), expr)
    if "suspension" in exp:
        susp = ctx.suspension[0]
        ok = (susp.F == sf.family.forms["F_expected"]
              and susp.psi_plus == sf.family.forms["psi_plus_expected"]
              and susp.psi_minus == sf.family.forms["psi_minus_expected"])
        check("suspension matches the listed structure", ok == exp["suspension"])
    if "closed" in exp:
        verdict("closed", "d(F^F) = d(psi+) = d(psi-) = 0 on the product", ctx.suspension[1],
                show=True)
    if "orthonormal" in exp:
        alphas = [sf.family.forms[f"alpha{i}"] for i in range(1, 7)]
        verdict("orthonormal", "listed coframe is orthonormal",
                verify_orthonormal_coframe(ctx.suspension[0], alphas), show=True)
    if "volume" in exp:
        rep = family_volume(ctx.family)
        want = parse_scalar_expr(exp["volume"])
        check(f"omega1^2 ^ eta = ({exp['volume']}) e12345", rep.coefficient == want,
              rep.coefficient.render)
        for interval, sign in sorted(exp.get("volume_signs", {}).items()):
            got = dict(rep.interval_signs).get(interval)
            check(f"orientation on {interval}: {sign:+d}", got == sign, lambda: str(got))

    if "sun_valid" in exp:
        rep = verdict("sun_valid", "su(n) validation", validate_sun(ctx.sun), show=True)
        if "volume_ratio" in exp:
            ratio = rep.value("psi+ ^ psi- proportionality constant")
            check(f"psi+ ^ psi- = ({exp['volume_ratio']}) F^n",
                  ratio == Fraction(exp["volume_ratio"]), lambda: str(ratio))
    if "balanced_sun" in exp:
        rep = verdict("balanced_sun", "balanced (dF^{n-1} = dpsi = 0)", is_balanced_sun(ctx.sun),
                      show=True)
        if "kaehler" in exp:
            check(f"kaehler = {exp['kaehler']}",
                  (rep.value("kaehler (dF = 0)") == "yes") == exp["kaehler"])
        if "half_flat" in exp:
            check(f"half-flat = {exp['half_flat']}",
                  (rep.value("half-flat (dF^2 = dpsi+ = 0)") == "yes") == exp["half_flat"])
    if "dF" in exp:
        same("dF", alg.d(sf.forms["F"]), exp["dF"])

    try:
        sheet = ctx.sheet
    except ValueError as exc:  # F and J that admit no connection, as failed Jacobi above
        check("Bismut connection", False, lambda: str(exc))
        return EntryReport(entry.name, entry.source, passed, lines, dict(entry.source_states))
    curv = ctx.curv
    pairs = list(combinations(range(1, n + 1), 2))
    if "torsion" in exp:
        same("T", sheet.torsion, exp["torsion"])
    for key, val in sorted(exp.get("torsion_components", {}).items()):
        i, j, k = (int(x) for x in key.split(","))
        check(f"T_{i}{j}{k} = {val}", sheet.torsion_components.get((i, j, k)) == Fraction(val))
    if "connection" in exp:
        for i, j in pairs:
            if f"{i},{j}" in exp["connection"]:
                same(f"omega^{i}_{j}", sheet.omega(i, j), exp["connection"][f"{i},{j}"])
            elif not sheet.omega(i, j).is_zero():
                check(f"omega^{i}_{j} = 0", False, sheet.omega(i, j).render)
        check("first Cartan structure equation",
              all(r.is_zero() for r in sheet.cartan_residuals()))
        check("connection preserves J", sheet.preserves_j())
    for key, expr in sorted(exp.get("curvature", {}).items()):
        i, j = (int(x) for x in key.split(","))
        same(f"Omega^{i}_{j}", curv.omega_form(i, j), expr)
    if "curvature_rank" in exp:
        forms = [curv.omega_form(i, j) for i, j in pairs]
        rank = span_rank([f for f in forms if not f.is_zero()]).rank
        check(f"independent curvature forms: {exp['curvature_rank']}",
              rank == exp["curvature_rank"], lambda: str(rank))
    for key, expr in sorted(exp.get("nabla", {}).items()):
        direction, pair = key.split("|")
        i, j = (int(x) for x in pair.split(","))
        m = int(direction)
        same(f"nabla_E{m} Omega^{i}_{j}", ctx.nabla(m).get((i, j), Form.zero(n, 2)), expr)
    if "holonomy_dim" in exp:
        rep = holonomy_algebra(sheet, curv)
        check(f"holonomy dimension = {exp['holonomy_dim']}",
              rep.span_dimension == exp["holonomy_dim"], rep.render)
        if "holonomy_generations" in exp:
            check(f"generation dimensions = {exp['holonomy_generations']}",
                  list(rep.generation_dimensions) == exp["holonomy_generations"],
                  lambda: str(list(rep.generation_dimensions)))
        if "su_n" in exp:
            check(f"contained in su({n // 2}) = {exp['su_n']}",
                  rep.contained_in_su_n == exp["su_n"])
        if "stabilized" in exp:
            check(f"stabilized at order {exp['stabilized']}",
                  rep.stabilized_at_order == exp["stabilized"],
                  lambda: str(rep.stabilized_at_order))
    if "basis_change" in exp:
        bc = sf.basis_change
        verdict("basis_change", "basis change reaches the target equations exactly",
                verify_basis_change(alg, bc.matrix, bc.target), show=True)
    if "restrictions_balanced" in exp:
        admissible = restrictable_directions(ctx.sun)
        check(f"admissible restriction directions = {exp['restrictions_balanced']}",
              admissible == exp["restrictions_balanced"], lambda: str(admissible))
        for k in admissible:
            unit = [1 if i == k - 1 else 0 for i in range(n)]
            restricted = restrict_to_hypersurface(ctx.sun, unit)
            check(f"restriction along e{k} is balanced",
                  is_balanced_su2(restricted).passed)

    return EntryReport(entry.name, entry.source, passed, lines, dict(entry.source_states))
