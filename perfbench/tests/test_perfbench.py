"""Self-tests of the benchmark: deterministic inputs, sound checks, clean tracing.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import random
import re
import shutil
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from perfbench import hostclock, quantile, rotation, workloads  # noqa: E402
from perfbench.run import END_TO_END, Program  # noqa: E402
from perfbench.tracer import Tracer, metric_names  # noqa: E402

SIX_D = ("solv6d", "thm4.1-II", "thm4.2-h19m")
CLOCK = hostclock.RawClock()


@pytest.fixture(scope="module")
def lf():
    return Program()


def rotated(lf, tmp_path, seed=3, names=SIX_D, **kwargs):
    w = workloads.RotatedFramesWorkload(lf, CLOCK, ROOT, seed, tmp_path, **kwargs)
    w.entries = [e for e in w.entries if e.name in names]
    return w


def test_benchmark_json_lists_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in spec[key]]
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert len(set(names)) == len(names)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == (
        metric_names() + [("trace.overhead_ratio", "ratio")])


def test_family_inputs_are_deterministic_and_shifted(lf):
    a = workloads.FamiliesWorkload(lf, CLOCK, ROOT, 11, ROOT).inputs(2)
    b = workloads.FamiliesWorkload(lf, CLOCK, ROOT, 11, ROOT).inputs(2)
    c = workloads.FamiliesWorkload(lf, CLOCK, ROOT, 12, ROOT).inputs(2)
    assert a == b and a != c
    assert workloads.shift_domain("(-inf, 2/3) | (2/3, inf)", Fraction(1, 3)) == (
        "(-inf, 1/3) | (1/3, inf)")
    assert workloads.shift_text("(2-3*t)/dt", Fraction(-5, 7)) == "(2-3*(t - 5/7))/dt"


def test_families_pass_at_several_shifts_and_fail_on_a_wrong_volume(lf):
    w = workloads.FamiliesWorkload(lf, CLOCK, ROOT, 0, ROOT)
    for k in range(3):
        assert all(s.ok for s in w.run(w.prepare(k)))
    inputs = w.prepare(0)
    label, text, exp, volume, hypo = inputs[1]
    inputs[1] = (label, text, exp, volume + 1, hypo)
    assert [s.ok for s in w.run(inputs)] == [True, False, True]


def test_rotated_files_are_byte_identical_per_seed(lf, tmp_path):
    first = [p.read_bytes() for _, p in rotated(lf, tmp_path / "a").prepare(0)]
    again = [p.read_bytes() for _, p in rotated(lf, tmp_path / "b").prepare(0)]
    other = [p.read_bytes() for _, p in rotated(lf, tmp_path / "c", seed=4).prepare(0)]
    assert first == again and first != other


def j_of(entry) -> tuple[dict, int]:
    line = next(x for x in entry.payload.splitlines() if x.startswith("J:"))
    n = line.count("->")
    return rotation.parse_j_line(line, n), n


def test_rotations_commute_with_the_declared_j(lf):
    for entry in workloads.sun_entries(lf):
        j, n = j_of(entry)
        q = rotation.unitary_rotation(j, n, random.Random(entry.name), mixes=2)
        rotation.check_unitary(q, rotation.j_matrix(j, n))
    # h19m pairs e1 with e3 and solv6d pairs e3 with e5: a rotation built for
    # the standard J does not commute with theirs
    standard, _ = j_of(lf.catalog.get_entry("thm4.1-I"))
    q = rotation.unitary_rotation(standard, 6, random.Random(0), mixes=0)
    for name in ("thm4.2-h19m", "solv6d"):
        j, n = j_of(lf.catalog.get_entry(name))
        with pytest.raises(rotation.GeneratorError):
            rotation.check_unitary(q, rotation.j_matrix(j, n))


def test_identity_rotation_reproduces_the_catalog(lf, tmp_path):
    w = rotated(lf, tmp_path, names=tuple(workloads.SUN_REFERENCE), rotate=False)
    for name, path in w.prepare(0):
        sf = lf.algebras.parse_equations(path.read_text())
        src = lf.algebras.parse_equations(lf.catalog.get_entry(name).payload)
        assert sf.algebra.differentials == src.algebra.differentials
        assert all(sf.forms[k] == src.forms[k] for k in ("F", "psi_plus", "psi_minus"))
    w.entries = [e for e in w.entries if e.name in SIX_D]
    assert all(s.ok for s in w.run(w.prepare(0)))


def test_rotated_pass_is_correct_and_wrong_expectations_fail(lf, tmp_path):
    assert all(s.ok for s in rotated(lf, tmp_path).run(rotated(lf, tmp_path).prepare(0)))
    wrong = dict(workloads.SUN_REFERENCE)
    betti, dim, gens = wrong["solv6d"]
    wrong["solv6d"] = ((1, 2, 4, 8, 4, 2, 1), dim + 1, gens)
    w = rotated(lf, tmp_path, names=("solv6d",), reference=wrong)
    failed = [s.label for s in w.run(w.prepare(0)) if not s.ok]
    assert failed == ["cohomology solv6d", "holonomy solv6d"]


def test_reference_agrees_with_the_catalog(lf):
    assert sorted(e.name for e in workloads.sun_entries(lf)) == sorted(workloads.SUN_REFERENCE)
    for name, (betti, dim, gens) in workloads.SUN_REFERENCE.items():
        exp = lf.catalog.get_entry(name).expected
        assert exp["balanced_sun"] is True
        assert exp["holonomy_dim"] == dim
        assert list(gens) == exp.get("holonomy_generations", list(gens))
        assert betti == betti[::-1]  # Poincare duality of unimodular algebras


def test_catalog_scoring_counts_each_wrong_line(lf):
    w = workloads.CatalogWorkload(lf, CLOCK, ROOT, 0, ROOT)
    times = [(name, 0.01) for name in w.entries]
    assert all(s.ok for s in workloads.score_catalog(w.fixture, 0, w.fixture, w.entries, times))
    broken = w.fixture.replace("PASS  ex4.5 ", "FAIL  ex4.5 ")
    samples = workloads.score_catalog(broken, 0, w.fixture, w.entries, times)
    assert [s.label for s in samples if not s.ok] == ["ex4.5"]
    for stdout, rc in ((w.fixture, 1), (w.fixture + "\n", 0), (w.fixture[:-1], 0)):
        samples = workloads.score_catalog(stdout, rc, w.fixture, w.entries, times)
        assert not any(s.ok for s in samples)


def test_tracer_wraps_every_binding_and_restores_them(lf):
    before = {(m.__name__, k): v for m in lf.modules() for k, v in vars(m).items()}
    scalar_before = dict(vars(lf.scalars.Scalar))
    tracer = Tracer()
    tracer.install(lf.package, lf.modules(), lf.scalars.Scalar)
    try:
        assert lf.algebras._insert_row is lf._linalg.insert_echelon_row
        assert lf.cli.holonomy_algebra is lf.connection.holonomy_algebra
        assert hasattr(lf.cli.holonomy_algebra, "__wrapped__")
        sf = lf.algebras.parse_equations(lf.catalog.get_entry("thm4.1-II").payload)
        lf.algebras.ce_cohomology(sf.algebra)
    finally:
        tracer.uninstall()
    after = {(m.__name__, k): v for m in lf.modules() for k, v in vars(m).items()}
    assert after == before and dict(vars(lf.scalars.Scalar)) == scalar_before
    m = tracer.metrics(1)
    assert m["algebras.ce_cohomology.calls"] == 1
    assert m["linalg.insert_echelon_row.calls"] > 0  # reached through algebras._insert_row
    assert 0 < m["linalg.insert_echelon_row.absorbed_ratio"] <= 1
    assert m["scalars.ops.calls"] > 0 and m["connection.holonomy_algebra.calls"] == 0
    cohom = m["algebras.ce_cohomology.self_ms"]
    assert 0 <= cohom < sum(v for k, v in m.items() if k.endswith("self_ms"))


def test_host_clock_samples_the_kernel_after_each_call():
    clock = hostclock.HostClock()
    result, seconds = clock.call(lambda: sum(range(1000)))
    assert result == 499500 and seconds > 0 and len(clock.kernel_samples) == 2
    ratio = hostclock.REFERENCE_MS / statistics.median(clock.kernel_samples)
    assert clock.factor() == ratio ** hostclock.ELASTICITY


def test_harrell_davis_quantiles():
    assert abs(quantile.beta_cdf(2, 3, 0.4) - 0.5248) < 1e-12
    assert abs(quantile.quantile([4.0] * 30, 0.9) - 4.0) < 1e-12
    values = [float(i) for i in range(101)]
    assert abs(quantile.quantile(values, 0.5) - 50.0) < 1e-9
    assert 88 < quantile.quantile(values, 0.9) < 92


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "catalog",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0 and '"correct"' not in done.stdout
