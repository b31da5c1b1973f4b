"""The catalog data file against the engine that generated it.

``catalog.json`` is canonical JSON with one object per entry.  The
Example 4.4 entries and every psi_plus/psi_minus line are rebuilt here from
their definitions and compared with the file field by field.  To add or
change an entry, edit the file and rewrite it canonically with

    PYTHONPATH=src python tests/test_catalog_data.py
"""

import json
import re
from fractions import Fraction
from pathlib import Path

import lieforms
from lieforms.catalog import run_entry
from lieforms.exterior import Form
from lieforms.manifest import CatalogEntry, catalog_manifest
from lieforms.structures import complex_volume_forms

DATA = Path(lieforms.__file__).parent / "catalog.json"

J_STANDARD_8 = ("J: e1 -> -e2, e2 -> e1, e3 -> -e4, e4 -> e3, "
                "e5 -> -e6, e6 -> e5, e7 -> -e8, e8 -> e7")


def canonical(data) -> str:
    return json.dumps(data, indent=1, ensure_ascii=False) + "\n"


def _gen(dim: int, i: int, sign: int = 1) -> Form:
    return Form.from_terms(dim, 1, [((i,), sign)])


def psi_lines(dim: int, pairs) -> str:
    """psi_plus/psi_minus lines for the complex volume form of signed pairs."""
    built = [(_gen(dim, abs(a), 1 if a > 0 else -1), _gen(dim, abs(b), 1 if b > 0 else -1))
             for a, b in pairs]
    plus, minus = complex_volume_forms(built)
    return f"psi_plus = {plus.render()}\npsi_minus = {minus.render()}"


def ex44_entry(c: Fraction, label: str) -> CatalogEntry:
    """Example 4.4 at parameter c: structure equations, connection and curvature."""
    one_c = 1 + c

    def two(a, ca, b, cb):
        return Form.from_terms(8, 2, [([int(a[0]), int(a[1])], ca),
                                      ([int(b[0]), int(b[1])], cb)]).render()

    payload = f"""\
[algebra]
dim = 8
d e3 = e13 - e24
d e4 = e14 + e23
d e5 = {two('15', c, '26', -c)}
d e6 = {two('16', c, '25', c)}
d e7 = {two('17', -one_c, '28', one_c)}
d e8 = {two('18', -one_c, '27', -one_c)}

[structure]
F = e12 + e34 + e56 + e78
{psi_lines(8, [(1, 2), (3, 4), (5, 6), (7, 8)])}
{J_STANDARD_8}
"""
    df = (Form.from_terms(8, 3, [([1, 3, 4], 2)])
          + Form.from_terms(8, 3, [([1, 5, 6], 2 * c)])
          + Form.from_terms(8, 3, [([1, 7, 8], -2 * one_c)]))
    torsion = (Form.from_terms(8, 3, [([2, 3, 4], -2)])
               + Form.from_terms(8, 3, [([2, 5, 6], -2 * c)])
               + Form.from_terms(8, 3, [([2, 7, 8], 2 * one_c)]))
    connection = {
        "1,3": "-e3", "1,4": "-e4",
        "1,5": _gen(8, 5).scale(-c).render(), "1,6": _gen(8, 6).scale(-c).render(),
        "1,7": _gen(8, 7).scale(one_c).render(), "1,8": _gen(8, 8).scale(one_c).render(),
        "2,3": "e4", "2,4": "-e3",
        "2,5": _gen(8, 6).scale(c).render(), "2,6": _gen(8, 5).scale(-c).render(),
        "2,7": _gen(8, 8).scale(-one_c).render(), "2,8": _gen(8, 7).scale(one_c).render(),
        "3,4": "2*e2",
        "5,6": _gen(8, 2).scale(2 * c).render(),
        "7,8": _gen(8, 2).scale(-2 * one_c).render(),
    }
    curvature_listed = {
        "1,3": two("13", -1, "24", -1),
        "1,4": two("14", -1, "23", 1),
        "1,5": two("15", -c * c, "26", -c * c),
        "1,6": two("16", -c * c, "25", c * c),
        "1,7": two("17", -one_c * one_c, "28", -one_c * one_c),
        "1,8": two("18", -one_c * one_c, "27", one_c * one_c),
        "3,4": "-2*e34",
        "3,5": two("35", -c, "46", -c),
        "3,6": two("36", -c, "45", c),
        "3,7": two("37", one_c, "48", one_c),
        "3,8": two("38", one_c, "47", -one_c),
        "5,6": Form.from_terms(8, 2, [([5, 6], -2 * c * c)]).render(),
        "5,7": two("57", c * one_c, "68", c * one_c),
        "5,8": two("58", c * one_c, "67", -c * one_c),
        "7,8": Form.from_terms(8, 2, [([7, 8], -2 * one_c * one_c)]).render(),
    }
    return CatalogEntry(
        name=label,
        source=f"Example 4.4, c = {c}",
        description=f"8d solvable algebra with parameter c = {c}; Bismut holonomy su(4)",
        payload=payload,
        expected={
            "jacobi": True,
            "sun_valid": True,
            "volume_ratio": "2/3",
            "balanced_sun": True,
            "kaehler": False,
            "dF": df.render(),
            "torsion": torsion.render(),
            "connection": connection,
            "curvature": curvature_listed,
            "curvature_rank": 15,
            "holonomy_dim": 15,
            "holonomy_generations": [15, 15],
            "su_n": True,
            "stabilized": 0,
        },
        source_states={
            "omega^3_5, omega^3_6": "printed as 2c e2 and -2(1+c) e2; the verified "
                                    "entries are omega^5_6 = 2c e2 and omega^7_8 = "
                                    "-2(1+c) e2 (first structure equation)",
            "curvature symbols": "printed with alpha^{ij}; read as e^{ij}",
        },
    )


EX44 = {"ex4.4-c1": Fraction(1), "ex4.4-c2": Fraction(2),
        "ex4.4-cneg1half": Fraction(-1, 2), "ex4.4-cneg3": Fraction(-3)}


def test_the_data_file_is_canonical():
    text = DATA.read_text(encoding="utf-8")
    data = json.loads(text)
    assert canonical(data) == text
    assert all(tuple(entry) == CatalogEntry._fields for entry in data)
    names = [entry["name"] for entry in data]
    assert names == sorted(set(names)) and len(names) == 22
    assert [e._asdict() for e in catalog_manifest()] == data


def test_example_4_4_entries_match_their_generator():
    entries = {e.name: e for e in catalog_manifest()}
    assert sorted(n for n in entries if n.startswith("ex4.4")) == sorted(EX44)
    for name, c in EX44.items():
        built = ex44_entry(c, name)
        for field in CatalogEntry._fields:
            assert getattr(entries[name], field) == getattr(built, field), (name, field)


def test_every_complex_volume_form_matches_its_f_line():
    """psi_plus + i psi_minus is the wedge of the re + i im over the terms
    re ^ im of F, and the two lines follow the F line."""
    checked = 0
    for entry in catalog_manifest():
        lines = entry.payload.splitlines()
        for k in (k for k, line in enumerate(lines) if line.startswith("psi_plus = ")):
            f_rhs = lines[k - 1].removeprefix("F = ").replace(" ", "")
            assert re.fullmatch(r"([+-]?e\d\d)+", f_rhs), entry.name
            pairs = [(int(a), -int(b) if sign == "-" else int(b))
                     for sign, a, b in re.findall(r"([+-]?)e(\d)(\d)", f_rhs)]
            assert "\n".join(lines[k:k + 2]) == psi_lines(2 * len(pairs), pairs), entry.name
            checked += 1
    assert checked == 12


class ReadRecorder(dict):
    """A dict that records every key looked up or tested."""

    def __init__(self, *args):
        super().__init__(*args)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def __contains__(self, key):
        self.read.add(key)
        return super().__contains__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


def test_run_entry_reads_every_expectation_key():
    # a misspelled or unused key in the data file would otherwise be skipped silently
    for entry in catalog_manifest():
        expected = ReadRecorder(entry.expected)
        assert run_entry(entry._replace(expected=expected)).passed, entry.name
        assert set(expected) <= expected.read, (entry.name, set(expected) - expected.read)


if __name__ == "__main__":
    DATA.write_text(canonical(json.loads(DATA.read_text(encoding="utf-8"))), encoding="utf-8")
