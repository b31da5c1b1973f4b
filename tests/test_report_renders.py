"""Byte-for-byte oracle of every pass/fail report: ``passed`` and ``render()``.

Each report function runs on every catalog payload, on fixed sign-flip and
doubled-line mutants of it, and on the constant family with the standard and
a wrong coframe; the catalog runner runs on each payload and each mutant
entry too, so its full render, with the failure details it embeds, is pinned
as well.  The text must equal ``tests/fixtures/report_renders.txt``.  After a
deliberate output change, rewrite the fixture with

    PYTHONPATH=src python tests/test_report_renders.py
"""

import dataclasses
from pathlib import Path

from lieforms.algebras import check_jacobi, parse_compact, parse_equations, verify_basis_change
from lieforms.catalog import EntryReport, StructureContext, catalog_manifest, run_entry
from lieforms.evolution import (
    ParamFamily,
    family_volume,
    suspend_family,
    validate_family,
    verify_balanced_evolution,
    verify_hypo_evolution,
    verify_orthonormal_coframe,
)
from lieforms.exterior import Form
from lieforms.structures import (
    check_conformal_couple,
    is_balanced_su2,
    is_balanced_sun,
    is_hypo,
    standard_quadruplet,
    suspend_su2,
    validate_su2,
    validate_sun,
)

FIXTURE = Path(__file__).parent / "fixtures" / "report_renders.txt"

# lines whose right-hand side is not a form, or whose signs are not operators
NOT_FORMS = ("dim", "param", "domain", "theta", "compact", "target", "J:", "[", "#")


def _form_lines(text):
    lines = text.splitlines()
    return lines, [k for k, line in enumerate(lines)
                   if "=" in line and not line.lstrip().startswith(NOT_FORMS)]


# edits that reach renders the generic mutants miss: a Kaehler structure, an F
# whose top power vanishes, a family not balanced at fixed t, a basis change
# off by a factor
EDITS = {
    "thm4.1-I": [("abelian algebra", "compact = (0,0,0,0,13+42,14+23)", "dim = 6"),
                 ("degenerate F", "F = e12 + e34 + e56", "F = e12 + e34")],
    "family-kodaira-thurston": [("d e4 = -e13", "d e4 = -e23", "d e4 = -e13")],
    "thm4.2-h2": [("f5 doubled", "f5 = -3^(1/2)*e5 - e6", "f5 = -2*3^(1/2)*e5 - 2*e6")],
}


def mutants(name, text):
    """(label, text) for two sign flips, one doubled form line and the EDITS."""
    lines, candidates = _form_lines(text)
    signs = [(k, p) for k in candidates
             for p, c in enumerate(lines[k]) if c in "+-" and p > lines[k].index("=")]
    out = []
    for at in sorted({len(signs) // 3, 2 * len(signs) // 3}) if signs else ():
        k, p = signs[at]
        flipped = list(lines)
        flipped[k] = lines[k][:p] + ("-" if lines[k][p] == "+" else "+") + lines[k][p + 1:]
        out.append((f"flip sign {at + 1} of {len(signs)}, line {k + 1}",
                    "\n".join(flipped) + "\n"))
    if candidates:
        k = candidates[len(candidates) // 2]
        key, expr = lines[k].split("=", 1)
        doubled = list(lines)
        doubled[k] = f"{key}= 2*({expr.strip()})"
        out.append((f"double line {k + 1}", "\n".join(doubled) + "\n"))
    for label, old, new in EDITS.get(name, ()):
        assert old in text, (name, old)
        out.append((label, text.replace(old, new)))
    return out


def _call(out, label, fn, *args):
    try:
        rep = fn(*args)
    except (ValueError, ArithmeticError) as exc:
        out.append(f"-- {label}: error: {type(exc).__name__}: {exc}")
        return
    if isinstance(rep, tuple):  # suspend_family: (structure, closedness report)
        rep = rep[1]
    passed = getattr(rep, "passed", None)
    out.append(f"-- {label}" + ("" if passed is None else f": passed={passed}"))
    out.append(rep.render())


def structure_reports(out, ctx):
    sf, alg = ctx.sf, ctx.sf.algebra
    _call(out, "check_jacobi", check_jacobi, alg)
    if sf.basis_change is not None:
        bc = sf.basis_change
        _call(out, "verify_basis_change", verify_basis_change, alg, bc.matrix, bc.target)
    if ctx.su2 is not None:
        for fn in (validate_su2, is_balanced_su2, is_hypo):
            _call(out, fn.__name__, fn, ctx.su2)
        _call(out, "validate_sun(suspend_su2)",
              lambda s: validate_sun(suspend_su2(s)), ctx.su2)
        _call(out, "is_balanced_sun(suspend_su2)",
              lambda s: is_balanced_sun(suspend_su2(s)), ctx.su2)
    if ctx.sun is not None:
        for fn in (validate_sun, is_balanced_sun):
            _call(out, fn.__name__, fn, ctx.sun)
    if alg.dimension == 4 and {"omega1", "omega2", "omega3"} <= set(sf.forms):
        _call(out, "check_conformal_couple", check_conformal_couple, alg,
              sf.forms["omega1"], sf.forms["omega2"], sf.forms["omega3"])
    if sf.family is not None:
        try:
            family = ctx.family
        except ValueError as exc:
            out.append(f"-- family: error: {type(exc).__name__}: {exc}")
            return
        family_reports(out, family, [sf.family.forms.get(f"alpha{i}") for i in range(1, 7)])


def family_reports(out, family, alphas):
    for fn in (validate_family, verify_balanced_evolution, verify_hypo_evolution,
               suspend_family, family_volume):
        _call(out, fn.__name__, fn, family)
    if all(a is not None for a in alphas):
        _call(out, "verify_orthonormal_coframe",
              lambda f: verify_orthonormal_coframe(suspend_family(f)[0], alphas), family)


def entry_report(out, entry):
    try:
        rep = run_entry(entry)
    except Exception as exc:  # a mutant may break an expectation the runner assumes
        out.append(f"-- run_entry: error: {type(exc).__name__}: {exc}")
        return
    out.append(f"-- run_entry: passed={rep.passed}")
    out.append(rep.render())


def generate() -> str:
    out: list[str] = []
    for entry in catalog_manifest():
        for label, text in [("payload", entry.payload), *mutants(entry.name, entry.payload)]:
            out.append(f"== {entry.name}: {label}")
            try:
                sf = parse_equations(text, name=entry.name)
            except ValueError as exc:
                out.append(f"-- parse: error: {exc}")
                continue
            structure_reports(out, StructureContext(sf))
            entry_report(out, dataclasses.replace(entry, payload=text))
    s = standard_quadruplet(parse_compact("(0,0,0,0,0)"))
    constant = ParamFamily(s.algebra, s.eta, s.omega1, s.omega2, s.omega3)
    standard = [Form.generator(6, i) for i in range(1, 7)]
    for label, alphas in (("standard coframe", standard),
                          ("e1 doubled", [standard[0].scale(2), *standard[1:]])):
        out.append(f"== constant family: {label}")
        family_reports(out, constant, alphas)
    return "\n".join(out) + "\n"


def test_report_renders_match_the_fixture():
    assert generate() == FIXTURE.read_text(encoding="utf-8")


def test_run_entry_ends_in_a_report_on_every_mutant():
    """A structure rejected at its input boundary is one FAIL row, not an exception."""
    bismut = "  [FAIL] Bismut connection   (F must equal g(J., .) in the orthonormal frame)"
    ends_at_bismut = 0
    for entry in catalog_manifest():
        for _, text in [("payload", entry.payload), *mutants(entry.name, entry.payload)]:
            try:
                parse_equations(text, name=entry.name)
            except ValueError:
                continue
            rep = run_entry(dataclasses.replace(entry, payload=text))
            assert isinstance(rep, EntryReport)
            assert bismut not in rep.lines[:-1]
            ends_at_bismut += rep.lines[-1] == bismut
    assert ends_at_bismut == 6


if __name__ == "__main__":
    FIXTURE.write_text(generate(), encoding="utf-8")
