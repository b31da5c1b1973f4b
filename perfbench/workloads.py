"""The benchmark's workloads: seeded inputs, and items whose verdicts are checked.

Each workload is a closed loop with one caller: an item runs to its verdict,
the verdict is checked against the expected value, and only then does the
next item start.  ``prepare(k)`` builds the inputs of pass k outside the
timed region and ``run(inputs)`` runs them, returning one ``Sample`` per
item; an item that raises or whose verdict is wrong is a failed sample,
never a dropped one.  ``trace_passes`` is how many passes the traced run
makes, a second or more of untraced work.

catalog
    ``lieforms catalog run-all`` in process, stdout compared byte for byte with
    ``tests/fixtures/catalog_run_all.txt``.  One item is one catalog entry.
    The corpus is fixed, so the seed is not used.
families
    The three evolution families reparametrized by t -> t + s for seeded
    rationals s, domain endpoints and expected volumes shifted to match.  One
    item is one family taken through every check its catalog entry expects.
rotated-frames
    The 6d and 8d SU(n) entries written in a coframe changed by a seeded
    rational unitary matrix (see ``rotation``).  One item is one CLI command
    (validate, cohomology, check --balanced, holonomy) on one file.

Passes after the first get fresh seeded inputs where the workload has any, so
that a cache kept across calls does not turn later passes into lookups.
"""

from __future__ import annotations

import contextlib
import io
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from . import rotation
from .tracer import rebind, restore

FAMILY_ENTRIES = ("family-kodaira-thurston", "family-nil5-12-13-23", "family-nil5-12-14")

# Invariants of the unrotated SU(n) entries: Betti numbers b0..bn, holonomy
# dimension and the span dimension after each derivative generation.  The
# holonomy values repeat the catalog's expectations (a self-test keeps them in
# step); the Betti numbers are not in the catalog and were computed once with
# exact cohomology of the unrotated algebras.
SUN_REFERENCE: dict[str, tuple[tuple[int, ...], int, tuple[int, ...]]] = {
    "ex4.3": ((1, 4, 8, 12, 14, 12, 8, 4, 1), 15, (9, 15, 15)),
    "ex4.4-c1": ((1, 2, 1, 2, 4, 2, 1, 2, 1), 15, (15, 15)),
    "ex4.4-c2": ((1, 2, 1, 2, 4, 2, 1, 2, 1), 15, (15, 15)),
    "ex4.4-cneg1half": ((1, 2, 1, 2, 4, 2, 1, 2, 1), 15, (15, 15)),
    "ex4.4-cneg3": ((1, 2, 1, 2, 4, 2, 1, 2, 1), 15, (15, 15)),
    "ex4.5": ((1, 2, 1, 2, 4, 2, 1, 2, 1), 15, (15, 15)),
    "ex4.6": ((1, 2, 1, 2, 4, 2, 1, 2, 1), 6, (6, 6)),
    "solv6d": ((1, 2, 5, 8, 5, 2, 1), 8, (8, 8)),
    "thm4.1-I": ((1, 4, 8, 10, 8, 4, 1), 8, (4, 8, 8)),
    "thm4.1-II": ((1, 2, 3, 4, 3, 2, 1), 8, (8, 8)),
    "thm4.2-h19m": ((1, 3, 5, 6, 5, 3, 1), 8, (8, 8)),
    "thm4.2-h2": ((1, 4, 8, 10, 8, 4, 1), 8, (8, 8)),
}

# Mixing rotations between pairs, by real dimension.  Each one makes the
# structure constants denser; two of them on an 8d entry multiply its
# holonomy time by about eight, so 8d entries get none.
MIXES = {6: 1, 8: 0}


@dataclass(frozen=True)
class Sample:
    label: str
    seconds: float
    ok: bool


def timed(clock, label: str, check: Callable[[], bool]) -> Sample:
    """Run one item to its verdict; an exception is a failed item."""
    def verdict() -> bool:
        try:
            return bool(check())
        except Exception:  # an item that raises is counted as failed, not dropped
            return False
    ok, seconds = clock.call(verdict)
    return Sample(label, seconds, ok)


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------


class CatalogWorkload:
    name = "catalog"
    trace_passes = 1

    def __init__(self, lf, clock, root: Path, seed: int, workdir: Path):
        del seed, workdir  # fixed corpus
        self.lf = lf
        self.clock = clock
        self.fixture = (root / "tests" / "fixtures" / "catalog_run_all.txt").read_text(
            encoding="utf-8")
        self.entries = [e.name for e in lf.catalog.catalog_manifest()]

    def prepare(self, k: int) -> None:
        del k

    def run(self, inputs: None) -> list[Sample]:
        del inputs
        lf = self.lf
        times: list[tuple[str, float]] = []
        original = lf.catalog.run_entry

        def run_entry(entry, *args, **kwargs):
            report, seconds = self.clock.call(lambda: original(entry, *args, **kwargs))
            times.append((entry.name, seconds))
            return report

        out = io.StringIO()
        with patched(lf.modules(), original, run_entry), contextlib.redirect_stdout(out):
            try:
                rc = lf.cli.main(["catalog", "run-all"])
            except Exception:
                rc = None
        return score_catalog(out.getvalue(), rc, self.fixture, self.entries, times)


def score_catalog(stdout: str, rc, fixture: str, entries: list[str],
                  times: list[tuple[str, float]]) -> list[Sample]:
    """One sample per entry; a pass is right when stdout equals the fixture.

    A line that differs fails the entry the fixture has on that line.  A wrong
    exit code, entry count or summary line, or a difference outside the entry
    lines, fails every entry of the pass: the run then gave a wrong answer.
    """
    seconds = dict(times)
    got, want = stdout.splitlines(), fixture.splitlines()
    bad = set(entries)
    if (rc == 0 and sorted(seconds) == sorted(entries) and len(got) == len(want)
            and got[-1:] == want[-1:]):
        differ = {w.split()[1] for g, w in zip(got[:-1], want[:-1]) if g != w}
        if differ or stdout == fixture:
            bad = differ
    return [Sample(name, seconds.get(name, 0.0), name not in bad) for name in entries]


@contextlib.contextmanager
def patched(modules, original, replacement):
    """Rebind ``original`` to ``replacement`` in every module that holds it."""
    done = rebind(modules, {id(original): (original, replacement)})
    try:
        yield
    finally:
        restore(done)


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------

_PARAM = re.compile(r"\bt\b")
_INTERVAL = re.compile(r"\(\s*([^,]+?)\s*,\s*([^)]+?)\s*\)")


def shift_text(expr: str, s: Fraction) -> str:
    """expr with t replaced by t + s."""
    term = f"(t + {s})" if s >= 0 else f"(t - {-s})"
    return _PARAM.sub(term, expr)


def shift_domain(text: str, s: Fraction) -> str:
    """Intervals of t become intervals of t - s: each finite endpoint moves by -s."""
    def move(end: str) -> str:
        return end if end in ("-inf", "inf") else str(Fraction(end) - s)
    return " | ".join(f"({move(m.group(1))}, {move(m.group(2))})"
                      for m in _INTERVAL.finditer(text))


def shift_payload(payload: str, s: Fraction) -> str:
    """The [family] section of a structure file under t -> t + s."""
    out = []
    section = ""
    for line in payload.splitlines():
        stripped = line.strip()
        if stripped.startswith("["):
            section = stripped
        elif section == "[family]" and "=" in line:
            key, _, rhs = line.partition("=")
            if key.strip() == "domain":
                rhs = " " + shift_domain(rhs, s)
            elif key.strip() != "param":
                rhs = shift_text(rhs, s)
            line = f"{key}={rhs}"
        out.append(line)
    return "\n".join(out) + "\n"


def family_shifts(seed: int, k: int) -> list[Fraction]:
    """One nonzero shift per family for pass k, with denominators 2..7."""
    rng = random.Random(f"families:{seed}:{k}")
    shifts = []
    for _ in FAMILY_ENTRIES:
        q = rng.randint(2, 7)
        p = rng.choice([p for p in range(-2 * q, 2 * q + 1) if p % q])
        shifts.append(Fraction(p, q))
    return shifts


class FamiliesWorkload:
    name = "families"
    trace_passes = 20

    def __init__(self, lf, clock, root: Path, seed: int, workdir: Path):
        del root, workdir
        self.lf = lf
        self.clock = clock
        self.seed = seed
        self.entries = [lf.catalog.get_entry(name) for name in FAMILY_ENTRIES]

    def inputs(self, k: int) -> list[tuple[str, str, dict]]:
        """(label, structure file, expectations) for each family in pass k."""
        out = []
        for entry, s in zip(self.entries, family_shifts(self.seed, k)):
            exp = dict(entry.expected)
            exp["volume"] = shift_text(exp["volume"], s)
            exp["volume_signs"] = {shift_domain(iv, s): sign for iv, sign
                                   in exp.get("volume_signs", {}).items()}
            out.append((f"{entry.name}@t+{s}", shift_payload(entry.payload, s), exp))
        return out

    def prepare(self, k: int) -> list[tuple]:
        """Inputs of pass k with their expected volume and residuals parsed."""
        lf = self.lf
        prepared = []
        for label, text, exp in self.inputs(k):
            volume = lf.algebras.parse_scalar_expr(exp["volume"])
            hypo = {name: lf.algebras.parse_form_expr(expr, 5)
                    for name, expr in exp.get("hypo_residual", {}).items()}
            prepared.append((label, text, exp, volume, hypo))
        return prepared

    def run(self, inputs: list[tuple]) -> list[Sample]:
        return [timed(self.clock, label, lambda: self.verdicts(label, text, exp, volume, hypo))
                for label, text, exp, volume, hypo in inputs]

    def verdicts(self, label: str, text: str, exp: dict, volume, hypo: dict) -> bool:
        ev = self.lf.evolution
        sf = self.lf.algebras.parse_equations(text, name=label)
        fam = ev.family_from_section(sf.algebra, sf.family, name=label)
        ok = ev.validate_family(fam).passed == exp["family_valid"]
        ok &= ev.verify_balanced_evolution(fam).passed == exp["evolution"]
        if "hypo_evolution" in exp:
            rep = ev.verify_hypo_evolution(fam)
            ok &= rep.passed == exp["hypo_evolution"]
            residuals = dict(rep.residuals)
            ok &= all(residuals[name] == want for name, want in hypo.items())
        susp, closed = ev.suspend_family(fam)
        ok &= closed.passed == exp["closed"]
        listed = (susp.F == sf.family.forms["F_expected"]
                  and susp.psi_plus == sf.family.forms["psi_plus_expected"]
                  and susp.psi_minus == sf.family.forms["psi_minus_expected"])
        ok &= listed == exp["suspension"]
        if "orthonormal" in exp:
            alphas = [sf.family.forms[f"alpha{i}"] for i in range(1, 7)]
            ok &= ev.verify_orthonormal_coframe(susp, alphas).passed == exp["orthonormal"]
        vol = ev.family_volume(fam)
        ok &= vol.coefficient == volume
        signs = dict(vol.interval_signs)
        ok &= all(signs.get(iv) == sign for iv, sign in exp["volume_signs"].items())
        return ok


# ---------------------------------------------------------------------------
# rotated-frames
# ---------------------------------------------------------------------------

_BETTI = re.compile(r"^b(\d+) = (\d+)", re.M)
_HOLONOMY = re.compile(r"^holonomy: dim=(\d+), generations=\[([\d, ]*)\]", re.M)


def sun_entries(lf) -> list:
    """Catalog entries that declare an SU(n) structure with its J."""
    return [e for e in lf.catalog.catalog_manifest()
            if any(line.startswith("J:") for line in e.payload.splitlines())]


def rational_form(form) -> rotation.RationalForm:
    return {idx: c.as_fraction() for idx, c in form.coeffs.items()}


def rotated_file(lf, entry, rng: random.Random, rotate: bool = True) -> str:
    """The entry's structure in a seeded unitary coframe, as a structure file."""
    sf = lf.algebras.parse_equations(entry.payload, name=entry.name)
    n = sf.algebra.dimension
    j_line = next(line for line in entry.payload.splitlines() if line.startswith("J:"))
    j = rotation.parse_j_line(j_line, n)
    if rotate:
        q = rotation.unitary_rotation(j, n, rng, MIXES[n])
    else:
        q = rotation.identity(n)
    diffs = [rational_form(d) for d in sf.algebra.differentials]
    forms = {name: rational_form(sf.forms[name]) for name in ("F", "psi_plus", "psi_minus")}
    new_diffs, new_forms = rotation.rotate_structure(diffs, forms, q)
    return rotation.structure_file(f"{entry.name} in a rotated unitary coframe",
                                   new_diffs, new_forms, j_line)


def run_cli(lf, argv: list[str]) -> tuple[int | None, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = lf.cli.main(argv)
    return rc, out.getvalue()


def cli_items(path: str, ref) -> list[tuple[list[str], Callable[[int | None, str], bool]]]:
    """(argv, verdict check) for the four commands run on one rotated file."""
    betti, hol_dim, generations = ref

    def validate(rc, out):
        return rc == 0 and out.startswith("jacobi: pass")

    def cohomology(rc, out):
        return rc == 0 and tuple(int(b) for _, b in _BETTI.findall(out)) == betti

    def balanced(rc, out):
        return (rc == 0 and "su(n) validation: pass" in out
                and re.search(r"^balanced: yes$", out, re.M) is not None)

    def holonomy(rc, out):
        m = _HOLONOMY.search(out)
        return (rc == 0 and m is not None and int(m.group(1)) == hol_dim
                and tuple(int(g) for g in m.group(2).split(",")) == generations)

    return [(["validate", path], validate), (["cohomology", path], cohomology),
            (["check", "--balanced", path], balanced), (["holonomy", path], holonomy)]


class RotatedFramesWorkload:
    name = "rotated-frames"
    trace_passes = 1

    def __init__(self, lf, clock, root: Path, seed: int, workdir: Path, rotate: bool = True,
                 reference: dict | None = None):
        del root
        self.lf = lf
        self.clock = clock
        self.seed = seed
        self.workdir = workdir
        self.rotate = rotate
        self.reference = reference or SUN_REFERENCE
        self.entries = sun_entries(lf)

    def prepare(self, k: int) -> list[tuple[str, Path]]:
        """Write the rotated structure files of pass k."""
        folder = self.workdir / f"rotated-{self.seed}" / f"pass{k}"
        folder.mkdir(parents=True, exist_ok=True)
        out = []
        for entry in self.entries:
            rng = random.Random(f"rotated-frames:{self.seed}:{k}:{entry.name}")
            path = folder / f"{entry.name}.alg"
            path.write_text(rotated_file(self.lf, entry, rng, rotate=self.rotate),
                            encoding="utf-8")
            out.append((entry.name, path))
        return out

    def run(self, inputs: list[tuple[str, Path]]) -> list[Sample]:
        samples = []
        for name, path in inputs:
            for argv, check in cli_items(str(path), self.reference[name]):
                label = f"{argv[0]} {name}"
                samples.append(timed(self.clock, label, lambda: check(*run_cli(self.lf, argv))))
        return samples


WORKLOADS = {w.name: w for w in (CatalogWorkload, FamiliesWorkload, RotatedFramesWorkload)}
