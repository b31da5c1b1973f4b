import importlib
import importlib.util
import io
import subprocess
import sys
from collections import Counter
from contextlib import redirect_stdout
from pathlib import Path

import lieforms
from lieforms import catalog, connection
from lieforms.algebras import MAX_NESTING, parse_equations, verify_basis_change
from lieforms.cli import build_parser, main
from lieforms.scalars import Scalar

FIXTURES = Path(__file__).parent / "fixtures"


def run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


GOOD_ALGEBRA = "[algebra]\ncompact = (0,0,0,12,14)\n"
BAD_ALGEBRA = "[algebra]\ncompact = (0,0,0,12,34)\n"
QUADRUPLET = """\
[structure]
eta = e1
omega1 = e24 + e53
omega2 = e25 + e34
omega3 = e23 + e45
"""


def test_validate_pass_and_fail(tmp_path):
    code, out = run_cli(["validate", write(tmp_path, "good.alg", GOOD_ALGEBRA)])
    assert code == 0 and "pass" in out
    code, out = run_cli(["validate", write(tmp_path, "bad.alg", BAD_ALGEBRA)])
    assert code == 1
    assert "d^2 e5 = -e123" in out


def test_parse_error_is_exit_two(tmp_path):
    code, out = run_cli(["validate", write(tmp_path, "broken.alg",
                                           "[algebra]\ndim = 3\nd e2 = e12 +\n")])
    assert code == 2 and "error" in out
    code, _ = run_cli(["validate", str(tmp_path / "missing.alg")])
    assert code == 2
    family = write(tmp_path, "family.alg", FAMILY)
    for argv in (["validate", str(tmp_path)], ["suspend", family, "-o", str(tmp_path)]):
        code, out = run_cli(argv)
        assert code == 2 and out == f"error: [Errno 21] Is a directory: '{tmp_path}'\n"


def test_unknown_command_exits_two():
    code, _ = run_cli(["frobnicate"])
    assert code == 2


def test_check_balanced_quadruplet(tmp_path):
    path = write(tmp_path, "quad.alg", GOOD_ALGEBRA + QUADRUPLET)
    code, out = run_cli(["check", path, "--balanced"])
    assert code == 0
    assert "balanced residuals" in out
    code, out = run_cli(["check", path, "--hypo"])
    assert code == 1  # the quadruplet is balanced but not hypo
    assert "d(omega3)" in out


def test_cohomology_output(tmp_path):
    path = write(tmp_path, "solv.alg", """\
[algebra]
dim = 5
d e3 = e13
d e4 = -e14
d e5 = e34
""")
    code, out = run_cli(["cohomology", path, "--max-degree", "2"])
    assert code == 0
    assert "b1 = 2" in out and "[e1]" in out and "[e12]" in out


FAMILY = """\
[algebra]
dim = 5
d e4 = -e23

[family]
param = t
eta = e5
omega1 = e12 + e3^(e4 - t*e5)
omega2 = e13 + (e4 - t*e5)^e2
omega3 = e1^(e4 - t*e5) + e23
"""


def test_evolve_verify_and_suspend(tmp_path):
    path = write(tmp_path, "family.alg", FAMILY)
    code, out = run_cli(["evolve-verify", path])
    assert code == 0
    assert "evolution equations: pass" in out
    out_path = tmp_path / "suspended.alg"
    code, out = run_cli(["suspend", path, "-o", str(out_path)])
    assert code == 0
    text = out_path.read_text()
    assert "psi_plus" in text
    # the emitted file parses back through the same grammar
    from lieforms.algebras import parse_equations
    sf = parse_equations(text)
    assert sf.algebra.dimension == 6
    assert not sf.forms["F"].is_zero()
    # without -o the file goes to stdout, followed by the same closedness report
    report = out.removeprefix(f"wrote {out_path}\n")
    assert run_cli(["suspend", path]) == (0, text + report)


def test_evolve_verify_samples_a_bounded_domain_at_its_quarter_points(tmp_path):
    payload = catalog.get_entry("family-nil5-12-14").payload
    assert "domain = (-inf, 2/3) | (2/3, inf)" in payload
    path = write(tmp_path, "bounded.alg",
                 payload.replace("(-inf, 2/3) | (2/3, inf)", "(0, 2/3)"))
    code, out = run_cli(["evolve-verify", path])
    assert code == 0
    assert [line for line in out.splitlines() if "metric positive" in line] == [
        f"  metric positive at t = {t0}: ok" for t0 in ("1/6", "1/3", "1/2")]
    assert "  orientation on (0, 2/3): positive\n" in out


IWASAWA_STRUCTURE = """\
[algebra]
compact = (0,0,0,0,13+42,14+23)

[structure]
F = e12 + e34 + e56
psi_plus = e135 - e146 - e236 - e245
psi_minus = e136 + e145 + e235 - e246
J: e1 -> -e2, e2 -> e1, e3 -> -e4, e4 -> e3, e5 -> -e6, e6 -> e5
"""


def test_bismut_and_holonomy(tmp_path):
    path = write(tmp_path, "iwasawa.alg", IWASAWA_STRUCTURE)
    code, out = run_cli(["bismut", path, "--show", "connection", "--show", "torsion"])
    assert code == 0
    assert "omega^1_5 = -e3" in out
    assert "T = -e135 - e146 - e236 + e245" in out
    code, out = run_cli(["bismut", path, "--show", "curvature"])
    assert "Omega^1_2 = 2*e34" in out
    code, out = run_cli(["holonomy", path])
    assert code == 0
    assert "dim=8" in out and "su(n)=yes" in out
    code, out = run_cli(["check", path, "--su3", "--balanced"])
    assert code == 0


def test_connections_reject_non_lie_algebra(tmp_path):
    path = write(tmp_path, "nonlie.alg", """\
[algebra]
compact = (0,0,0,12,34,0)

[structure]
F = e12 + e34 + e56
J: e1 -> -e2, e2 -> e1, e3 -> -e4, e4 -> e3, e5 -> -e6, e6 -> e5
""")
    for command in (["holonomy", path], ["bismut", path]):
        code, out = run_cli(command)
        assert code == 2, command
        assert out == "error: connections need a Lie algebra, but the Jacobi identity " \
                      "fails: d^2 e5 = -e123\n"


def test_connections_reject_f_that_is_not_the_metric_kaehler_form(tmp_path):
    # J fixes F, but F != g(J., .) for the declared orthonormal frame
    path = write(tmp_path, "badf.alg", """\
[algebra]
dim = 6

[structure]
F = 3 e12 - e34 + e56
J: e1 -> -e2, e2 -> e1, e3 -> -e4, e4 -> e3, e5 -> -e6, e6 -> e5
""")
    for command in (["holonomy", path], ["bismut", path]):
        code, out = run_cli(command)
        assert code == 2, command
        assert out == "error: F must equal g(J., .) in the orthonormal frame\n"


NON_UNIT_DENOMINATORS = """\
[algebra]
dim = 4
d e4 = 1/3*e12 + 1/5*e13

[structure]
F = e12 + e34
J: e1 -> -e2, e2 -> e1, e3 -> -e4, e4 -> e3
"""


def test_connection_output_on_non_unit_denominators(tmp_path):
    # the curvature matrices have lcm denominators 90, 300, 100 and 300, the
    # whole tensor 900: holonomy's per-matrix scaling and nabla R's differ
    path = write(tmp_path, "thirds.alg", NON_UNIT_DENOMINATORS)
    code, out = run_cli(["bismut", path])
    assert code == 0
    assert out == """\
T = 1/3*e124
  T_124 = 1/3
omega^1_2 = -1/3*e4
omega^1_3 = -1/10*e4
omega^1_4 = -1/10*e3
omega^3_4 = 1/10*e1
Omega^1_2 = -1/9*e12 - 1/15*e13
Omega^1_3 = -1/30*e12 - 3/100*e13
Omega^1_4 = 1/100*e14
Omega^2_4 = 1/30*e34
Omega^3_4 = 1/100*e34
nabla_E1 Omega^1_2 = 1/150*e14
nabla_E1 Omega^1_3 = 1/250*e14
nabla_E1 Omega^1_4 = 1/300*e12 + 1/250*e13
nabla_E1 Omega^2_3 = 1/300*e34
nabla_E3 Omega^1_2 = 1/90*e24 + 1/100*e34
nabla_E3 Omega^1_3 = 1/300*e24 + 1/250*e34
nabla_E3 Omega^2_4 = 1/90*e12 + 1/100*e13
nabla_E3 Omega^3_4 = 1/300*e12 + 1/250*e13
nabla_E4 Omega^1_2 = -1/90*e23
nabla_E4 Omega^1_3 = -1/150*e23
nabla_E4 Omega^1_4 = 1/300*e24 - 1/90*e34
nabla_E4 Omega^2_3 = -1/300*e13
"""
    code, out = run_cli(["holonomy", path])
    assert code == 0
    assert out == ("holonomy: dim=6, generations=[4, 6, 6], u(n)=no, su(n)=no, "
                   "stabilized at order 1\n")


def test_parse_errors_point_at_the_operator_or_value(tmp_path):
    cases = [
        ("[algebra]\ndim = 4\n\n[structure]\nomega = e12 + 2 + e34\n",
         "error: line 5, column 13: cannot add a scalar and a form"),  # the first '+'
        ("[algebra]\ndim = 4\n\n[structure]\nomega = e12 + e3\n",
         "error: line 5, column 13: forms have different degrees"),
        ("[algebra]\ndim = 6\n\n[structure]\nF = 0^(1/2)*e12 + e34 + e56\n",
         "error: line 5, column 6: 0 raised to a non-integer power"),  # at the '^'
        ("[algebra]\ndim = 6\nd e5 = e12/0\n",
         "error: line 3, column 11: scalar division by zero"),  # at the '/'
        ("[algebra]\ndim = 0 8\n",
         "error: line 2, column 7: dim must be a positive integer, got '0 8'"),  # the value
        ("[algebra]\ndim = 4\nd e4 = (99999999999973)^(1/2)*e12\n",
         "error: line 3, column 24: cannot factor an integer constant: it has a factor above "
         "1000000^2 with no prime factor up to 1000000"),  # trial division stops at 10^6
    ]
    for k, (text, message) in enumerate(cases):
        code, out = run_cli(["validate", write(tmp_path, f"case{k}.alg", text)])
        assert code == 2 and out == message + "\n", text


def test_number_literals_over_the_int_string_limit_point_at_the_literal(tmp_path):
    big = "1" * 5000  # CPython refuses int() of more than 4300 digits by default
    message = "number literal longer than 4300 digits"
    cases = [
        (f"[algebra]\ndim = 6\nd e5 = {big}*e12\n", "line 3, column 8"),
        (f"[algebra]\ndim = 6\nd e5 = e13 + 3/{big} e12\n", "line 3, column 16"),
        (f"[algebra]\ndim = {big}\n", "line 2, column 7"),
        (GOOD_ALGEBRA + f"[family]\nparam = t\ndomain = (0, 1) |  (-{big}/3, inf)\n",
         "line 5, column 21"),  # at the literal's sign
        (f"[algebra]\ndim = 4\n[structure]\ntheta = (3/{big}, 4/5)\n", "line 4, column 12"),
    ]
    for k, (text, where) in enumerate(cases):
        code, out = run_cli(["validate", write(tmp_path, f"case{k}.alg", text)])
        assert (code, out) == (2, f"error: {where}: {message}\n"), where


def test_deep_nesting_is_an_input_error(tmp_path):
    """Past MAX_NESTING levels the parser stops at the token that is one level
    too deep instead of exhausting the interpreter's stack."""
    assert MAX_NESTING == 200
    for opener in ("(", "-"):
        rhs = opener * 1000 + "e12" + (")" * 1000 if opener == "(" else "")
        path = write(tmp_path, "deep.alg", f"[algebra]\ndim = 4\nd e4 = {rhs}\n")
        for command in ("validate", "check"):
            code, out = run_cli([command, path])
            assert code == 2, (opener, command)
            assert out == "error: line 3, column 208: expressions nest at most 200 levels deep\n"
    nested = "(" * 100 + "-" * 99 + "e12" + ")" * 100
    code, out = run_cli(["validate", write(tmp_path, "nested.alg",
                                           f"[algebra]\ndim = 4\nd e4 = {nested}\n")])
    assert code == 0 and out == "jacobi: pass (d^2 = 0 on every generator)\n"


def test_connection_is_built_once_per_file(monkeypatch, tmp_path):
    calls = Counter()
    for module, name in ((connection, "torsion_form"), (catalog, "bismut_connection"),
                         (catalog, "curvature")):
        def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    once = {"torsion_form": 1, "bismut_connection": 1, "curvature": 1}
    entry = catalog.get_entry("ex4.3")  # checks torsion, tables, nabla and holonomy
    assert catalog.run_entry(entry).passed
    assert calls == once
    path = write(tmp_path, "ex43.alg", entry.payload)
    for command in (["bismut", path], ["holonomy", path]):
        calls.clear()
        assert run_cli(command)[0] == 0
        assert calls == once, command


# the reports the catalog runner reads several verdicts or rows from
ONCE_PER_ENTRY = ("holonomy_algebra", "validate_sun", "is_balanced_sun", "ce_cohomology",
                  "validate_family", "verify_balanced_evolution", "verify_hypo_evolution",
                  "family_volume", "check_conformal_couple", "verify_basis_change")


def test_catalog_runs_each_report_at_most_once_per_entry(monkeypatch):
    calls, reached = Counter(), Counter()
    for name in ONCE_PER_ENTRY:
        def counted(*args, _fn=getattr(catalog, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(catalog, name, counted)
    for entry in catalog.catalog_manifest():
        calls.clear()
        assert catalog.run_entry(entry).passed, entry.name
        assert max(calls.values(), default=0) <= 1, (entry.name, calls)
        reached.update(calls)
    assert set(reached) == set(ONCE_PER_ENTRY)


def test_passing_catalog_entries_render_no_failure_details(monkeypatch):
    entries = catalog.catalog_manifest()
    renders = Counter()
    for cls in (lieforms.exterior.Form, lieforms.exterior.Report, connection.HolonomyReport):
        def counted(self, _fn=cls.render, _name=cls.__name__):
            renders[_name] += 1
            return _fn(self)
        monkeypatch.setattr(cls, "render", counted)
    assert all(catalog.run_entry(entry).passed for entry in entries)
    # only the H^k representatives that are compared as text get rendered
    assert renders == Counter(Form=sum(len(reps) for entry in entries
                                       for reps in entry.expected.get("betti_reps", {}).values()))


def test_catalog_list_has_all_entries():
    code, out = run_cli(["catalog", "list"])
    assert code == 0
    lines = [l for l in out.strip().splitlines()]
    assert len(lines) >= 16
    assert any(l.startswith("thm4.1-I ") for l in lines)
    assert any(l.startswith("ex4.6") for l in lines)


def test_catalog_run_single():
    code, out = run_cli(["catalog", "run", "thm4.1-I"])
    assert code == 0
    assert out.startswith("PASS  thm4.1-I")
    assert "holonomy dimension = 8" in out
    code, out = run_cli(["catalog", "run", "no-such-entry"])
    assert code == 2


def test_catalog_run_all_deterministic_and_sequential():
    code1, out1 = run_cli(["catalog", "run-all"])
    code2, out2 = run_cli(["catalog", "run-all"])
    assert code1 == code2 == 0
    assert out1 == out2
    assert "22/22 entries passed" in out1
    code3, _ = run_cli(["catalog", "run-all", "--jobs", "4"])
    assert code3 == 2


def test_report_includes_source_annotations():
    code, out = run_cli(["report", "family-nil5-12-13-23"])
    assert code == 0
    assert "source states volume" in out
    assert "structure file:" in out


def test_golden_run_all_summary():
    golden = FIXTURES / "catalog_run_all.txt"
    _, out = run_cli(["catalog", "run-all"])
    assert out == golden.read_text(encoding="utf-8")


def test_golden_entry_report():
    golden = FIXTURES / "report_thm4_1_I.txt"
    _, out = run_cli(["catalog", "run", "thm4.1-I"])
    assert out == golden.read_text(encoding="utf-8")


def test_bismut_show_nabla(tmp_path):
    path = write(tmp_path, "iwasawa.alg", IWASAWA_STRUCTURE)
    code, out = run_cli(["bismut", path, "--show", "nabla"])
    assert code == 0
    assert "nabla_E1 Omega^1_2 = -2*e36 + 2*e45" in out


def test_cohomology_rejects_parametric_algebra(tmp_path):
    path = write(tmp_path, "param.alg", """\
[algebra]
dim = 3
d e3 = t*e12
""")
    code, out = run_cli(["cohomology", path])
    assert code == 2 and "error" in out


def test_suspend_without_family_is_input_error(tmp_path):
    path = write(tmp_path, "nofam.alg", GOOD_ALGEBRA)
    code, out = run_cli(["suspend", path])
    assert code == 2
    code, out = run_cli(["evolve-verify", path])
    assert code == 2


def test_check_rejects_an_f_that_is_not_a_two_form(tmp_path):
    payload = catalog.get_entry("thm4.1-I").payload
    assert "F = e12 + e34 + e56" in payload
    path = write(tmp_path, "f3.alg", payload.replace("F = e12 + e34 + e56", "F = e123"))
    for command in (["check", path], ["check", path, "--su3", "--balanced"]):
        code, out = run_cli(command)
        assert code == 2, command
        assert out == "error: (F, psi_plus, psi_minus) has wrong degrees or dimension\n"


def test_check_without_structure_is_input_error(tmp_path):
    path = write(tmp_path, "bare.alg", GOOD_ALGEBRA)
    code, out = run_cli(["check", path])
    assert code == 2 and "no checkable structure" in out


H2_ALGEBRA = "[algebra]\ndim = 6\nd e5 = e13 - e24\nd e6 = -2 e12 + e14 + e23 + 2 e34\n"
IDENTITY_6 = "".join(f"f{i} = e{i}\n" for i in range(1, 7))


def test_check_reads_the_basis_change(tmp_path):
    """check prints the basis-change report and folds its verdict into the
    exit code; a singular matrix stays an input error."""
    payload = catalog.get_entry("thm4.2-h2").payload
    section = payload[payload.index("[basis_change]"):]
    bc = parse_equations(H2_ALGEBRA + "\n" + section).basis_change
    code, out = run_cli(["check", write(tmp_path, "h2.alg", H2_ALGEBRA + "\n" + section)])
    assert code == 0
    assert out == verify_basis_change(parse_equations(H2_ALGEBRA).algebra, bc.matrix,
                                      bc.target).render() + "\n"
    assert out.startswith("basis change: pass\n")
    identity = H2_ALGEBRA + "\n[basis_change]\n" + IDENTITY_6 + "target = (0,0,0,0,12,34)\n"
    code, out = run_cli(["check", write(tmp_path, "id.alg", identity)])
    assert code == 1 and out.startswith("basis change: FAIL\n")
    assert "  d f5 = e13 - e24\n" in out
    singular = identity.replace("f6 = e6", "f6 = e5")
    code, out = run_cli(["check", write(tmp_path, "singular.alg", singular)])
    assert (code, out) == (2, "error: basis-change matrix is singular\n")
    # with a structure, the basis change is reported after it
    code, out = run_cli(["check", write(tmp_path, "full.alg", payload)])
    assert code == 0 and out.index("balanced: yes") < out.index("basis change: pass")


def test_evolve_verify_fails_a_sample_beyond_the_float_range(tmp_path):
    # the metric at t = 10^400 + k has entries too large for a float: its
    # positivity row fails and the orientation is undetermined, with no traceback
    big = 10**400
    payload = catalog.get_entry("family-nil5-12-13-23").payload
    assert "domain = (-inf, 2) | (2, inf)" in payload
    path = write(tmp_path, "far.alg", payload.replace("(-inf, 2) | (2, inf)", f"({big}, inf)"))
    proc = subprocess.run([sys.executable, "-m", "lieforms.cli", "evolve-verify", path],
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (1, "")
    for k in (1, 2, 3):
        assert f"  metric positive at t = {big + k}: FAIL\n" in proc.stdout
    assert f"  orientation on ({big}, inf): undetermined\n" in proc.stdout


def test_console_entry_point_runs():
    proc = subprocess.run([sys.executable, "-m", "lieforms.cli", "catalog", "list"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "thm4.2-h2" in proc.stdout


def test_compact_errors_point_into_the_file(tmp_path):
    cases = [
        ("# header\n[algebra]\ncompact = (0,0,0,12,1x)\n",
         "error: line 3, column 21: malformed compact entry '1x'"),
        ("[algebra]\n  compact =  ( 0, 0, 0, 12 + 15)\n",
         "error: line 2, column 28: index out of range in compact entry '12 + 15'"),
        ("[algebra]\ncompact = (0,0,0,0,0,0,0,0,0,0)\n",
         "error: line 2, column 11: compact notation supports dimension <= 9; "
         "use the rich grammar"),
        ("[algebra]\ndim = 3\nd e3 = e12\n\n[basis_change]\nf1 = e1\nf2 = e2\nf3 = e3\n"
         "target = (0,0,1 2)\n",
         "error: line 9, column 15: malformed compact entry '1 2'"),
        ("[algebra]\ncompact = (0,,0,12)\n",
         "error: line 2, column 14: empty compact entry"),
        ("[algebra]\ncompact = (0,0,0,12,)\n",
         "error: line 2, column 21: empty compact entry"),
        ("[algebra]\ndim = 5\ncompact = (0,0,0,12)\n",
         "error: line 3, column 11: dim contradicts the compact declaration"),
        ("# header\n[algebra]\n  compact =  (0,0,0,12)\nd e4 = e13\n",
         "error: line 3, column 14: cannot mix compact and explicit differentials"),
        ("[algebra]\ndim = 3\ndim = 3\n",
         "error: line 3, column 1: duplicate dim declaration"),
        ("[algebra]\nd e3 = e12\n",
         "error: line 1, column 1: missing dim declaration"),
        ("[algebra]\nname = heisenberg\ncompact = (0,0,12)\n",
         "error: line 2, column 1: unknown algebra statement 'name'"),
        ("[algebra]\ndim = 5\n\n[structure]\ntheta = 1\n",
         "error: line 5, column 9: theta must be 0, pi/2, pi, 3pi/2 or a rational "
         "(cos, sin) pair"),
        ("[algebra]\ndim = 5\n\n[structure]\n  theta =  (1, 1)\n",
         "error: line 5, column 12: theta pair must satisfy cos^2 + sin^2 = 1"),
        ("[algebra]\ndim = 5\n\n[family]\nparam = s\n",
         "error: line 5, column 9: the family parameter must be t"),
        ("[algebra]\ndim = 5\n\n[family]\ndomain = (1, 0)\n",
         "error: line 5, column 10: empty interval"),
        ("[algebra]\ndim = 5\n\n[family]\ndomain = (0, 1\n",
         "error: line 5, column 10: bad interval '(0, 1'"),
        ("[algebra]\ndim = 5\n\n[family]\ndomain = (0, 1) | (3, 2)\n",
         "error: line 5, column 19: empty interval"),
    ]
    for k, (text, message) in enumerate(cases):
        code, out = run_cli(["validate", write(tmp_path, f"case{k}.alg", text)])
        assert code == 2 and out == message + "\n", text


def test_malformed_families_are_input_errors(tmp_path):
    # a family is an SU(2) quadruplet in t, so both commands check it
    family = "\n[family]\nparam = t\n"
    quadruplet = "eta = e1\nomega1 = e24 + e53\nomega2 = e25 + e34\nomega3 = e23 + e45\n"
    cases = [
        (GOOD_ALGEBRA + family + quadruplet.replace("eta = e1", "eta = e12"),
         "error: quadruplet has wrong degrees or dimension"),
        ("[algebra]\ncompact = (0,0,0,12)\n" + family
         + "eta = e1\nomega1 = t*e24\nomega2 = e23\nomega3 = e34\n",
         "error: families live on 5-dimensional algebras"),
        (GOOD_ALGEBRA + family + quadruplet.replace("omega2 = e25 + e34\n", ""),
         "error: family section is missing omega2"),
        (GOOD_ALGEBRA + family + quadruplet.replace("eta = e1", "eta = e1 + dt"),
         "error: eta may not involve dt"),
        ("[algebra]\ndim = 5\nd e4 = -2^(1/2)*e23\n" + family + quadruplet,
         "error: the algebra of a family must have rational structure constants"),
    ]
    for k, (text, message) in enumerate(cases):
        path = write(tmp_path, f"case{k}.alg", text)
        for command in ("evolve-verify", "suspend"):
            code, out = run_cli([command, path])
            assert (code, out) == (2, message + "\n"), (command, text)


def test_commands_reject_files_without_what_they_check(tmp_path):
    files = {name: write(tmp_path, f"{name}.alg", catalog.get_entry(name).payload)
             for name in ("thm4.1-I", "ex4.3")}
    files["su2"] = write(tmp_path, "su2.alg", GOOD_ALGEBRA + QUADRUPLET)
    files["hermitian5"] = write(tmp_path, "hermitian5.alg", GOOD_ALGEBRA + """
[structure]
F = e12 + e34
J: e1 -> -e2, e2 -> e1, e3 -> -e4, e4 -> e3, e5 -> e5
""")
    cases = [
        (["check", "--su2", files["thm4.1-I"]],
         "error: no SU(2) quadruplet (eta, omega1..omega3) in the file"),
        (["check", "--su3", files["su2"]],
         "error: no (F, psi_plus, psi_minus, J) structure in the file"),
        (["check", "--su3", files["ex4.3"]], "error: --su3 needs a 6-dimensional algebra"),
        (["check", "--su4", files["thm4.1-I"]], "error: --su4 needs an 8-dimensional algebra"),
        (["catalog", "run"], "error: catalog run needs an entry name"),
        (["bismut", files["hermitian5"]], "error: Hermitian frames need even dimension"),
    ]
    for argv, message in cases:
        code, out = run_cli(argv)
        assert (code, out) == (2, message + "\n"), argv


def test_benchmark_traced_names_exist():
    # the benchmark's --trace wraps these by name; a missing one would break it
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", Path(__file__).parents[1] / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for module, funcs in tracer.LAYERS.items():
        importlib.import_module(f"lieforms.{module}")
        mod = getattr(lieforms, module)  # the tracer reads the modules off the package
        for func in funcs:
            assert callable(getattr(mod, func, None)), f"{module}.{func}"
    assert all(callable(vars(Scalar).get(op)) for op in tracer.SCALAR_OPS)
    # cohomology's echelon calls are counted through this alias
    assert lieforms.algebras._insert_row is lieforms._linalg.insert_echelon_row


def test_parser_is_built_once_and_parses_afresh(tmp_path):
    path = write(tmp_path, "iwasawa.alg", IWASAWA_STRUCTURE)
    assert build_parser() is build_parser()
    code, out = run_cli(["bismut", path, "--show", "torsion"])
    assert code == 0 and out.startswith("T = ") and "Omega^" not in out
    code, out = run_cli(["bismut", path])
    assert code == 0
    for section in ("T = ", "omega^1_5 = -e3", "Omega^1_2 = 2*e34", "nabla_E1 Omega^1_2"):
        assert section in out
    first = build_parser().parse_args(["bismut", path, "--show", "curvature"])
    second = build_parser().parse_args(["holonomy", path, "--max-order", "2"])
    third = build_parser().parse_args(["bismut", path])
    assert first is not third and first.show == ["curvature"] and third.show is None
    assert (second.command, second.max_order) == ("holonomy", 2)
    assert not hasattr(first, "max_order")


def test_cohomology_rejects_a_negative_max_degree(tmp_path):
    path = write(tmp_path, "good.alg", GOOD_ALGEBRA)
    code, out = run_cli(["cohomology", path, "--max-degree", "-1"])
    assert (code, out) == (2, "error: the maximum degree must be nonnegative, got -1\n")
    code, out = run_cli(["cohomology", path, "--max-degree", "0"])
    assert (code, out) == (0, "b0 = 1  representatives: [1]\n")


def test_holonomy_rejects_a_negative_max_order(tmp_path):
    path = write(tmp_path, "iwasawa.alg", IWASAWA_STRUCTURE)
    code, out = run_cli(["holonomy", path, "--max-order", "-1"])
    assert (code, out) == (2, "error: the maximum order must be nonnegative, got -1\n")


def test_catalog_list_rejects_an_entry_name():
    code, out = run_cli(["catalog", "list", "x"])
    assert (code, out) == (2, "error: catalog list takes no entry name\n")


def test_catalog_run_all_rejects_an_entry_name():
    code, out = run_cli(["catalog", "run-all", "x"])
    assert (code, out) == (2, "error: catalog run-all takes no entry name\n")


def test_large_scalar_exponents_are_input_errors(tmp_path):
    # each used to run for seconds to minutes; the bound stops it at the '^'
    bound = "scalar exponents are limited to 1000 in absolute value"
    for k, (eta, column) in enumerate([("(t+1)^10000*e1", 12), ("(3/5)^3000000*e1", 12),
                                       ("(t+1)^(3001/3)*e1", 12), ("2^(-1001)*e1", 8)]):
        text = GOOD_ALGEBRA + f"\n[family]\nparam = t\neta = {eta}\n"
        code, out = run_cli(["validate", write(tmp_path, f"pow{k}.alg", text)])
        assert (code, out) == (2, f"error: line 6, column {column}: {bound}\n"), eta
    # form powers vanish above the dimension, so they stay unbounded
    text = GOOD_ALGEBRA + "\n[structure]\nG = e12^1000000000\n"
    code, out = run_cli(["validate", write(tmp_path, "formpow.alg", text)])
    assert code == 0
