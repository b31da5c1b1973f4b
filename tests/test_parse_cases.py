"""Byte-for-byte oracle of the parser: every parsed value and every ParseError.

Each structure file (the catalog payloads, the SU(n) entries in rotated
coframes at seeds 1 and 7, the families under t -> t + 1/3 and t -> t - 5/2,
and a list of edited files) is parsed with ``parse_equations``; every
differential, form, J entry, basis-change entry and target differential is
written with its coefficients in ``coeffs`` order, each by ``render()``.  Each
edge expression is parsed as a form over six generators with names in scope,
as a scalar, and as a family form where dt is allowed and t is not.  The text
must equal ``tests/fixtures/parse_cases.txt``.  After a deliberate change of
the parser's output, rewrite the fixture with

    PYTHONPATH=src:. python tests/test_parse_cases.py
"""

import itertools
import random
from fractions import Fraction
from pathlib import Path

import lieforms
from lieforms.algebras import ParseError, parse_equations, parse_form_expr, parse_scalar_expr
from lieforms.catalog import catalog_manifest, get_entry
from lieforms.exterior import Form
from lieforms.scalars import Scalar
from perfbench.workloads import FAMILY_ENTRIES, rotated_file, shift_payload, sun_entries

FIXTURE = Path(__file__).parent / "fixtures" / "parse_cases.txt"

# names in scope for the form context: forms of two degrees and of another
# dimension, a rational Scalar and a radical one
ENV = {
    "F": parse_form_expr("e12 + e34 + e56", 6),
    "G": parse_form_expr("1/2*e135 - t*e246", 6),
    "H": parse_form_expr("e12", 7),
    "c": parse_scalar_expr("3/5"),
    "s": parse_scalar_expr("(t+1)^(1/2)"),
}

EDGE_EXPRESSIONS = [
    # monomials
    "e1", "e6", "e7", "e12", "e21", "e123", "e132", "e321", "e213", "e11", "e121",
    "e10", "e01", "e0", "e", "E1", "e1a", "e123456", "e654321", "e1234567", "e99",
    # numbers
    "0", "00", "007", "-0", "3/5", "2/4", "-3/5", "1/3 + 1/6", "12345678901234567890*e12",
    "٣*e12",
    # unary chains
    "+e1", "-e1", "--e1", "---e1", "-+-e1", "+-+e12", "- - 2", "-(-(-e12))", "--3",
    "-2^2", "(-2)^2", "-e1^e2", "-e12^2", "-t", "--t*e12", "-(e12 - e34)", "-0*e12",
    "-" * 100 + "e12", "-" * 101 + "3",
    # parentheses
    "(e12)", "((e12))", "(" * 100 + "e12" + ")" * 100, "(" * 100 + "t" + ")" * 100,
    "((e12 + e34))*(2)", "(2)(3)", "2(3)", "t(t+1)",
    # juxtaposition
    "2 e12", "2 3 e12", "2e12", "1/2 e12", "1/2e12", "3(e12 + e34)", "(e12 + e34)3",
    "t e12", "2 t e12", "e12 2", "e12 t", "e1 e2", "e12(2)", "c e12", "s e12", "F 2",
    "2 F", "c F", "e1 2 e2",
    # right-associative powers
    "2^3^2", "(2^3)^2", "2^-1", "2^-2^2", "(1/2)^-3", "0^0", "0^2", "e1^e2^e3",
    "e1^e2^e1", "(e1^e2)^e3", "e12^2", "(e12 + e34)^2", "(e12 + e34 + e56)^3",
    "F^2", "F^3", "F^4", "(e12 + e34)^0", "e12^(1/2)", "e12^-1", "e12^t", "t^e1",
    "2^e1", "e12^e34^e56", "G^G", "e1^F", "e12^(2-1)", "e12^100000", "1^" * 99 + "1",
    "2^1000 - 2^1000", "2^1001", "t^1001", "(t+1)^-1000 * (t+1)^1000",
    # terms that cancel, and later re-enter
    "e12 - e12 + e34 + e12", "e12 + e34 - e12 + e12", "t*e12 - t*e12 + e34 + e12",
    "(e12 + e34) - (e12 + e34)", "e12 + e34 - e34 - e12", "e21 + e12", "e13 + e31 + e24",
    "2*e12 - e12 - e12 + e56 - e56 + e12", "e12 - e12", "e12 + e21 + e34 + e12",
    "s*e12 - s*e12 + e34 + s*e12", "c*e12 - 3/5*e12 + e34 + e12",
    "e12 + t*e12 - e12 - t*e12 + e56 + e12", "e12 + (t - t)*e34 + e34",
    "F - e12 + e12", "F - F + e34 + F", "e34 + e12 - F", "(e12 - e12)^e34 + e56",
    # scalars and forms mixed
    "e12 + 1", "1 + e12", "e12 + 0", "0 + e12", "0 - e12", "e12 - 0", "e12 + (t - t)",
    "(t - t) - e12", "e12 + 0*t", "e12 + t", "e12 * e34", "e12 / e34", "2 / e12",
    "t / e12", "e12 / 2", "e12 / t", "e12/(t+1)", "e12/(2*t)", "e12 * t / t",
    "e12 + e123", "e1 + e12", "0*e12", "e12*0", "(t-t)*e12", "0*e12 + e34",
    "e12 + H", "H + e12", "F + G", "c*F - F", "s*F/s", "F/c", "c/F", "e12*c*s",
    "3/5*e12 - c*e12", "(1 + 2^(1/2))*e12 - 2^(1/2)*e12",
    # division by zero
    "1/0", "3/0*e1", "e1/0", "e12/0", "t/0", "e12/(2-2)", "1/(t-t)", "(1/0)*e1", "0/0",
    "e12/(t-t)", "0^-1", "(t-t)^-1", "c/0",
    # roots, even roots of negatives
    "(-1)^(1/2)", "(-4)^(1/2)", "(-8)^(1/3)", "(-1)^(1/4)", "(1-t)^(1/2)", "(t-1)^(1/2)",
    "(-t)^(1/2)", "(-2*t)^(1/2)", "(2-3*t)^(1/3)", "((2-3*t)/2)^(1/3)", "4^(1/2)",
    "8^(2/3)", "(9/4)^(1/2)", "2^(1/2)*2^(1/2)", "2^(1/2) + 3^(1/2)",
    "(2^(1/2) + 3^(1/2))^(1/2)", "(t^2 + 1)^-1", "1/(t^2 + 1)", "1/(t^2 - 1)",
    "1/(t^2 + 2*t + 1)", "(t+1)^(1/2)*e12 + (t+1)^(1/2)*e12", "(t+1)^(-1/2)*e12",
    "0^(1/2)", "(-0)^(1/2)", "0^(-1/2)", "(t-t)^(1/2)", "(2^(1/2))^2", "3^(1/2)*e12/3^(1/2)",
    "(1-t)^(1/2)*e12 - (1-t)^(1/2)*e12", "((t+1)^(1/3))^3", "1/(t-3)^5",
    "1/((t+1)^3*(2*t-3)^2)", "(t+1)^(1/2)/(t+1)", "1/(2^(1/2) + 3^(1/2))",
    # malformed input
    "", "   ", "(", ")", "e12)", "(e12", "e12 +", "+", "* e12", "e12 **2", "e12 ^", "2 ^",
    "e12 $", "e12$", "e12 #c", "e12#c", "#", "->", "e1 -> e2", ":", "=", "|", "e12,",
    ",e12", "x", "dt", "t", "dt^e1", "e1^dt", "(2-3*t)^(1/3)*e1^dt", "e12 + t*e34",
    "1 2", "e12\t+\te34", "e12\r", "e12 \x0b", "e12 ", "e12  + e34", "()",
    "(e12 + )", "e12 + + e34", "e12 - - e34", "e12 */ e34", "2 ^ ^ 3", "F(", "e12))",
]

# (operand, operand) pairs under every binary operator, juxtaposition included
OPERANDS = ["e12", "e34", "e123", "3/5", "0", "t", "F", "(t+1)^(1/2)"]
OPERATORS = [" + ", " - ", "*", "/", "^", " "]


def binary_expressions():
    return [a + op + b for a, b in itertools.product(OPERANDS, repeat=2) for op in OPERATORS]


HEAD = "[algebra]\ndim = 4\nd e4 = e12\n"

# files that reach the statement-level errors and the J and basis-change parsers
EDGE_FILES = [
    HEAD,
    "[algebra]\ndim = 4\nde4 = e12\nd  e3 = 2 e12\n",
    "[algebra]\ndim = 4\nd e10 = e12\n",
    "[algebra]\ndim = 4\nd e0 = e12\n",
    "[algebra]\ndim = 4\nd e5 = e12\n",
    "[algebra]\ndim = 4\nd e4 = e12\nd e4 = e13\n",
    "[algebra]\ndim = 4\nd e4 = e1\n",
    "[algebra]\ndim = 4\nd e4 = 0\nd e3 = t - t\n",
    "[algebra]\ndim = 4\nd e4 = 3\n",
    "[algebra]\ndim = 4\nd e4 = e12 - e12 + e23 + e12\n",
    "[algebra]\ndim = 4\nd e4 = t*e12 + 1/(t+1)*e13\n",
    "[algebra]\ndim = 4\nd e4 = e12 +\n",
    "[algebra]\ndim = 4\nd e4 = (e12\n",
    "[algebra]\ndim = 4\nx e4 = e12\n",
    "[algebra]\ndim = x\n",
    "[algebra]\ncompact = (0,0,0,12)\ndim = 5\n",
    "[algebra]\ncompact = (0,0,0,12)\nd e4 = e12\n",
    "[algebra]\ncompact = (0, 0, 0, 12 - 13, 14 + 23)\n",
    HEAD + "[structure]\nF = e12 + e34\nJ: e1 -> e2, e2 -> -e1, e3 -> e4, e4 -> -e3\n",
    HEAD + "[structure]\nJ: e1 -> e2, e2 -> -e1, e3 -> e4\n",
    HEAD + "[structure]\nJ: e1 -> e2 + e12, e2 -> -e1, e3 -> e4, e4 -> -e3\n",
    HEAD + "[structure]\nJ: e1 -> 2, e2 -> -e1, e3 -> e4, e4 -> -e3\n",
    HEAD + "[structure]\nJ: x -> e2, e2 -> -e1, e3 -> e4, e4 -> -e3\n",
    HEAD + "[structure]\nJ: e1 -> 3/5 e1 - 4/5 e2, e2 -> 4/5 e1 + 3/5 e2, e3 -> e4, "
           "e4 -> -e3\n",
    HEAD + "[structure]\nJ e1 -> e2\n",
    HEAD + "[structure]\nJ: e1 -> e2 +, e2 -> -e1, e3 -> e4, e4 -> -e3\n",
    HEAD + "[structure]\nc = 2/3\nF = c*e12 + c^2*e34\nG = F^F - c*F\nH = G + F\n",
    HEAD + "[structure]\nF = e12\nG = F + e123\n",
    HEAD + "[structure]\nF = e12\nF = F + e34\nG = F - F + e12\n",
    HEAD + "[structure]\ntheta = pi/2\nF = e12\n",
    HEAD + "[structure]\ntheta = (3/5, 4/5)\n",
    HEAD + "[structure]\ntheta = (1, 1)\n",
    HEAD + "[family]\nparam = t\ndomain = (0, 1) | (2, inf)\neta = t*e1 + dt\n"
           "omega = (2-3*t)^(1/3)*e12^dt - e34\n",
    HEAD + "[family]\nparam = s\n",
    HEAD + "[family]\neta = 2\n",
    HEAD + "[family]\ndomain = (1, 0)\n",
    HEAD + "[family]\ndomain = (0, 1\n",
    HEAD + "[structure]\nF = e12\n[family]\neta = F + dt\n",
    HEAD + "[basis_change]\ntarget = (0,0,0,12)\nf1 = e1\nf2 = e2\nf3 = e3\n"
           "f4 = e4 + 1/2 e1\n",
    HEAD + "[basis_change]\ntarget = (0,0,0,12)\nf1 = e1\nf2 = 2^(1/2)*e2 - e3\n"
           "f3 = e3\nf4 = e4\n",
    HEAD + "[basis_change]\ntarget = (0,0,0,12)\nf1 = e1\nf2 = e2\nf3 = e3\n",
    HEAD + "[basis_change]\ntarget = (0,0,0,12)\nf0 = e1\n",
    HEAD + "[basis_change]\ntarget = (0,0,0,12)\nf10 = e1\n",
    HEAD + "[basis_change]\ntarget = (0,0,0,12)\ng1 = e1\n",
    HEAD + "[basis_change]\ntarget = (0,0,0,12)\nf1 = e12\n",
    HEAD + "[basis_change]\nf1 = e1\nf2 = e2\nf3 = e3\nf4 = e4\n",
    HEAD + "[other]\n",
    HEAD + "[structure\n",
    HEAD + "F\n",
]


def coeffs(form: Form) -> str:
    """(dimension, degree) then each index: coefficient, in coeffs order."""
    sep = "" if form.dimension < 10 else "."
    terms = "; ".join(f"e{sep.join(map(str, idx))}: {c.render()}"
                      for idx, c in form.coeffs.items())
    assert all(isinstance(c, Scalar) for c in form.coeffs.values())
    return f"({form.dimension}, {form.degree}) {terms or '0'}"


def row(values) -> str:
    assert all(isinstance(c, Scalar) for c in values)
    return "[" + ", ".join(c.render() for c in values) + "]"


def structure_lines(sf) -> list[str]:
    alg = sf.algebra
    out = [f"algebra {alg.name!r} dim {alg.dimension}"]
    out += [f"d e{i} = {coeffs(d)}" for i, d in enumerate(alg.differentials, start=1)]
    out += [f"{key} = {coeffs(f)}" for key, f in sf.forms.items()]
    if sf.coframe_map is not None:
        out += [f"J e{i} = {row(r)}" for i, r in enumerate(sf.coframe_map.matrix, start=1)]
    if sf.theta is not None:
        out.append(f"theta = {sf.theta[0]}, {sf.theta[1]}")
    if sf.family is not None:
        fam = sf.family
        out.append(f"family t on {' | '.join(iv.render() for iv in fam.domain)}")
        out += [f"  {key} = {coeffs(f)}" for key, f in fam.forms.items()]
    if sf.basis_change is not None:
        bc = sf.basis_change
        out += [f"f{i} = {row(r)}" for i, r in enumerate(bc.matrix, start=1)]
        out += [f"target d e{i} = {coeffs(d)}"
                for i, d in enumerate(bc.target.differentials, start=1)]
    return out


def parse_file(text: str) -> list[str]:
    try:
        return structure_lines(parse_equations(text))
    except ParseError as exc:
        return [f"error: {exc}"]


def outcome(parse, text: str) -> str:
    try:
        value = parse(text)
    except ParseError as exc:
        return f"error: {exc}"
    return coeffs(value) if isinstance(value, Form) else value.render()


CONTEXTS = (
    ("form", lambda text: parse_form_expr(text, 6, dict(ENV))),
    ("scalar", parse_scalar_expr),
    ("dt", lambda text: parse_form_expr(text, 7, None, allow_dt=True, param_allowed=False)),
)


def files() -> list[tuple[str, str]]:
    out = [(f"payload {e.name}", e.payload) for e in catalog_manifest()]
    out += [(f"rotated {e.name} seed {seed}", rotated_file(lieforms, e, random.Random(seed)))
            for seed in (1, 7) for e in sun_entries(lieforms)]
    out += [(f"family {name} t+{s}", shift_payload(get_entry(name).payload, s))
            for name in FAMILY_ENTRIES for s in (Fraction(1, 3), Fraction(-5, 2))]
    out += [(f"edge file {k}", text) for k, text in enumerate(EDGE_FILES, start=1)]
    return out


def generate() -> str:
    out: list[str] = []
    for label, text in files():
        out.append(f"== {label}")
        out += parse_file(text)
    for text in EDGE_EXPRESSIONS + binary_expressions():
        out.append(f"-- {text!r}")
        out += [f"{name}: {outcome(parse, text)}" for name, parse in CONTEXTS]
    return "\n".join(out) + "\n"


def test_parse_cases_match_the_fixture():
    assert len(catalog_manifest()) == 22 and len(sun_entries(lieforms)) == 12
    assert len(EDGE_EXPRESSIONS) >= 150
    assert generate() == FIXTURE.read_text(encoding="utf-8")


if __name__ == "__main__":
    FIXTURE.write_text(generate(), encoding="utf-8")
