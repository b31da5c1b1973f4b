"""The linear lane of the parser.

A right-hand side that is wholly a sum of terms ``[+|-] [p[/q]] [*] eIJK`` is
read by ``algebras._linear_form`` without the tokenizer; any other text, and
any term the Pratt parser rejects, goes through the tokenizer and the Pratt
parser.  Both must give the same form, with its coefficients in the same
order, or the same ParseError.
"""

import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lieforms
from lieforms import algebras
from lieforms.algebras import ParseError, parse_equations, parse_form_expr
from lieforms.catalog import catalog_manifest
from perfbench.workloads import FAMILY_ENTRIES, rotated_file, sun_entries

LONG = "1" * 4301  # one digit over CPython's default int-string limit


def outcome(text, dimension):
    try:
        form = parse_form_expr(text, dimension)
    except ParseError as exc:
        return exc.message, exc.line, exc.column
    return form.dimension, form.degree, list(form.coeffs.items())


def assert_same(text, dimension):
    """The lane's reading equals the Pratt parser's, order included."""
    lane = outcome(text, dimension)
    with mock.patch.object(algebras, "_linear_form", lambda text, dimension: None):
        assert lane == outcome(text, dimension), (text, dimension)


# (text, dimension, whether the lane reads it)
EDGES = [
    ("1/2e12", 8, True), ("3/4 e1", 8, True), ("3/4\t*\te1", 8, True), ("+e12", 8, True),
    ("- 2 / 3 * e53 +\t1/2 e35", 8, True), ("e11 + e121", 8, False), ("e11 + e34", 8, True),
    ("e12 - e12 + e34 + e12", 8, True), ("1/2 e12 + e34 - 2/4 e12 + 1/3 e12", 8, True),
    ("0*e12", 8, True), ("0/5*e12", 8, True), ("e12 + 0*e12", 8, True), ("007 e12", 8, True),
    ("3/0*e1", 8, False), ("3/00 e1", 8, False), ("e9", 8, False), ("e18", 8, True),
    ("e1 + e12", 8, False), ("0*e1 + e12", 8, False), ("٣*e12", 8, False),
    ("e12\n", 8, True), ("e12 # note", 8, True), ("e12#", 8, True), ("\ne12", 8, False),
    (LONG + "*e12", 8, False), ("e12 + 3/" + LONG + " e13", 8, False),
    ("e12 e34", 8, False), ("e12 + + e34", 8, False), ("2 3 e12", 8, False),
    ("e12 2", 8, False), ("e10", 8, False), ("e12x", 8, False), ("* e12", 8, False),
    ("", 8, False), ("1/2", 8, False), ("e12 + t*e34", 8, False), ("(e12)", 8, False),
]


def test_the_lane_reads_linear_sums_as_the_parser_does():
    for text, dimension, read in EDGES:
        assert (algebras._linear_form(text, dimension) is not None) is read, text
        assert_same(text, dimension)


# rejected or differently read parts (a literal over the limit, a non-ASCII
# digit, a zero denominator, a generator above the dimension, another degree, a
# missing sign) are drawn now and then among ordinary ones
SPACES = st.sampled_from(["", " ", "\t", " \t "])
SIGNS = st.sampled_from(["+", "-"] * 4 + [""])
NUMERATORS = st.sampled_from(["0", "1", "2", "3", "12", "007"] * 3 + ["٣", LONG])
DENOMINATORS = st.sampled_from(["1", "2", "4", "6", "05"] * 3 + ["0", LONG])
GENERATORS = {1: ["e1", "e2", "e3", "e5"] * 3 + ["e9"],
              2: ["e12", "e21", "e34", "e53", "e11"] * 3 + ["e19"],
              3: ["e123", "e321", "e121", "e345"] * 3 + ["e369"]}


@st.composite
def terms(draw, degree, signs=SIGNS):
    coefficient = ""
    kind = draw(st.sampled_from(["unit", "integer", "ratio"]))
    if kind != "unit":
        coefficient = draw(NUMERATORS)
        if kind == "ratio":
            coefficient += draw(SPACES) + "/" + draw(SPACES) + draw(DENOMINATORS)
        coefficient += draw(SPACES) + draw(st.sampled_from(["*", ""])) + draw(SPACES)
    if draw(st.integers(0, 19)) == 0:
        degree = draw(st.sampled_from(sorted(GENERATORS)))
    generator = draw(st.sampled_from(GENERATORS[degree]))
    return draw(SPACES) + draw(signs) + draw(SPACES) + coefficient + generator


@st.composite
def linear_sums(draw):
    degree = draw(st.sampled_from(sorted(GENERATORS)))
    parts = [draw(terms(degree, st.sampled_from(["", "+", "-"])))]
    parts += draw(st.lists(terms(degree), max_size=5))
    if draw(st.booleans()):  # a term that cancels, then re-enters at the end
        body = draw(terms(degree, st.just("")))
        k = draw(st.integers(0, len(parts)))
        parts[k:k] = [f" + {body}", f" - {body}"]
        parts.append(f" + {body}")
    return "".join(parts) + draw(st.sampled_from(["", "\n", " ", " # note", "#"]))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(linear_sums(), st.sampled_from([5, 8]))
def test_the_lane_equals_the_parser_on_generated_sums(text, dimension):
    assert_same(text, dimension)


@pytest.fixture
def tokenized(monkeypatch):
    """The texts handed to the tokenizer."""
    texts = []

    def tokenize(text, lineno, col, _fn=algebras._tokenize):
        texts.append(text)
        return _fn(text, lineno, col)

    monkeypatch.setattr(algebras, "_tokenize", tokenize)
    return texts


def test_rotated_files_never_reach_the_tokenizer(tokenized):
    files = [rotated_file(lieforms, e, random.Random(seed))
             for seed in (1, 7) for e in sun_entries(lieforms)]
    tokenized.clear()  # rotated_file parses the catalog payload it starts from
    for text in files:
        parse_equations(text)
    assert tokenized == []


def test_catalog_payloads_tokenize_only_their_nonlinear_right_hand_sides(tokenized):
    by_entry = {}
    for entry in catalog_manifest():
        tokenized.clear()
        parse_equations(entry.payload, name=entry.name)
        by_entry[entry.name] = list(tokenized)
    families = [text for name in FAMILY_ENTRIES for text in by_entry.pop(name)]
    assert {name: len(texts) for name, texts in by_entry.items() if texts} == {"thm4.2-h2": 6}
    assert all("3^(1/2)" in text for text in by_entry["thm4.2-h2"])
    # 6 of the 34 right-hand sides of the family payloads are linear sums
    assert len(families) == 28
    assert all(set(text) & set("t^(") for text in families)
