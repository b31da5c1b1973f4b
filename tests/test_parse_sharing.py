"""Parenthesized groups shared within one ``parse_equations`` call.

A group of numbers, operators, t, dt and generators is evaluated once per
file and context; later equal groups take a private copy of its value.
"""

from collections import Counter

import pytest

from lieforms import algebras
from lieforms.algebras import MAX_NESTING, ParseError, parse_equations, parse_form_expr
from lieforms.catalog import get_entry
from perfbench.workloads import FAMILY_ENTRIES


@pytest.fixture
def evaluated(monkeypatch):
    """Counts the groups the parser evaluates: the expressions begun just after '('."""
    calls = Counter()

    def expression(self, min_prec, _fn=algebras._ExprParser.expression):
        if min_prec == 0 and self.pos and self.tokens[self.pos - 1][1] == "(":
            calls["groups"] += 1
        return _fn(self, min_prec)

    monkeypatch.setattr(algebras._ExprParser, "expression", expression)
    return calls


def test_a_group_naming_an_earlier_line_is_not_shared():
    sf = parse_equations("[algebra]\ndim = 4\n[structure]\n"
                         "G = e12\nF = (G + e34)\nG = e13\nH = (G + e34)\n")
    assert sf.forms["F"] == parse_form_expr("e12 + e34", 4)
    assert sf.forms["H"] == parse_form_expr("e13 + e34", 4)


def test_a_shared_group_is_a_private_copy():
    sf = parse_equations("[algebra]\ndim = 4\n[structure]\n"
                         "F = (e12 + e34)*2 + (e12 + e34)\n"
                         "A = (e1 + e2)\n"
                         "B = -(e1 + e2) + (e1 + e2)*t - (e1 + e2)\n"
                         "C = (e1 + e2)\n"
                         "D = (t - 1/3)*(e1 + e2) + (t - 1/3)*e3\n"
                         "E = (e1 + e2)\n")
    assert sf.forms["F"] == parse_form_expr("3*e12 + 3*e34", 4)
    assert sf.forms["B"] == parse_form_expr("(t - 2)*e1 + (t - 2)*e2", 4)
    assert sf.forms["D"] == parse_form_expr("(t - 1/3)*e1 + (t - 1/3)*e2 + (t - 1/3)*e3", 4)
    for name in ("A", "C", "E"):
        assert sf.forms[name] == parse_form_expr("e1 + e2", 4), name


def outcome(text):
    try:
        return parse_equations(text).forms["B"]
    except ParseError as exc:
        return exc.message, exc.line, exc.column


def test_a_reused_group_still_stops_at_the_nesting_limit():
    """A group first met shallow and met again too deep raises where a file
    without the first occurrence raises, at the same column."""
    group = "(" * 5 + "e1 + e2" + ")" * 5
    outer = f"(e1 + {group})"  # its levels count those of the group it reuses
    for first, again in ((f"{group}\nC = e2", group), (f"{group}\nC = {outer}", outer)):
        outcomes = set()
        for signs in range(MAX_NESTING - 12, MAX_NESTING + 2):
            deep = "-" * signs + again
            alone = outcome(f"[algebra]\ndim = 2\n[structure]\nA = e1\nC = e2\nB = {deep}\n")
            shared = outcome(f"[algebra]\ndim = 2\n[structure]\nA = {first}\nB = {deep}\n")
            assert shared == alone, (again, signs)
            outcomes.add(type(alone))
        assert len(outcomes) == 2  # both sides of the limit are covered
    with pytest.raises(ParseError, match="expressions nest at most 200 levels deep"):
        parse_equations("[algebra]\ndim = 2\n[structure]\n"
                        f"A = {group}\nB = {'-' * MAX_NESTING}{group}\n")


def test_groups_are_not_shared_across_contexts():
    """The same text in [algebra] (dim n), [family] (dim n+1, dt) and
    [basis_change] (dim n) is evaluated in each context of its own."""
    text = ("[algebra]\ndim = 4\nd e4 = (e12 + e13)\n"
            "[family]\neta = (e12 + e13)^e5\nomega1 = (e5 + dt)\n"
            "[basis_change]\ntarget = (0,0,0,12+13)\n"
            "f1 = (e1)\nf2 = e2\nf3 = e3\nf4 = (e5 + dt)\n")
    with pytest.raises(ParseError) as exc:
        parse_equations(text)
    assert (exc.value.line, exc.value.message) == (12, "generator e5 exceeds dimension 4")
    sf = parse_equations(text.replace("f4 = (e5 + dt)", "f4 = (e4)"))
    assert sf.algebra.differentials[3] == parse_form_expr("e12 + e13", 4)
    assert sf.family.forms["eta"] == parse_form_expr("e125 + e135", 5)
    assert sf.family.forms["omega1"].dimension == 5
    groups = {}  # one dict for two dimensions: the key tells them apart
    assert algebras._parse_expr("(e1 + e2)", 2, {}, False, True, 1, 1, groups).dimension == 2
    assert algebras._parse_expr("(e1 + e2)", 3, {}, False, True, 1, 1, groups).dimension == 3


def test_each_distinct_group_of_a_family_file_is_evaluated_once(evaluated):
    """The unshifted family payloads spell 3, 13 and 12 distinct groups; each is
    evaluated once per parse_equations call, and no value outlives the call."""
    counts = {}
    for name in FAMILY_ENTRIES:
        payload = get_entry(name).payload
        for _ in range(2):
            evaluated.clear()
            sf = parse_equations(payload)
            counts.setdefault(name, []).append(evaluated["groups"])
        n = sf.algebra.dimension
        body = payload.split("[family]")[1]
        for line in body.splitlines():
            key, _, rhs = line.partition("=")
            if key.strip() in sf.family.forms:
                alone = parse_form_expr(rhs, n + 1, allow_dt=True)
                assert sf.family.forms[key.strip()] == alone, (name, key)
    assert counts == {"family-kodaira-thurston": [3, 3], "family-nil5-12-13-23": [12, 12],
                      "family-nil5-12-14": [13, 13]}
