"""Benchmark for the lieforms engine.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.  The
workloads (``catalog``, ``families``, ``rotated-frames``) are described in
``workloads.py``.  One process, one thread, one caller in a closed loop.

With ``--trace 0`` the run measures whole passes over the workload's items
until ``--seconds`` of timed work is done and reports the end-to-end metrics,
with times scaled to a reference host speed (see ``hostclock.py``).
With ``--trace 1`` it does the same untraced measurement, then runs the first
``trace_passes`` passes again with the layer tracer installed and reports the
per-layer metrics and the tracing overhead instead; the spans go to
``.bench_build/perfbench/``.

Every item's verdict is checked.  Human-readable lines come first; the last
line of stdout is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``; the failed ratio is ``failed / attempted`` there, since a
metric that is 0 on a correct run cannot carry a relative bound.  The exit
code is 0 only when every item was correct.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if __package__ in (None, ""):  # run as a script: make the benchmark package importable
    sys.path.insert(0, str(ROOT))

from perfbench.hostclock import REFERENCE_MS, HostClock, RawClock  # noqa: E402
from perfbench.quantile import quantile  # noqa: E402
from perfbench.tracer import Tracer, metric_names  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_build" / "perfbench"
MODULES = ("scalars", "exterior", "_linalg", "algebras", "structures", "evolution",
           "connection", "catalog", "cli")

# Set-up is probed in fresh interpreters spread over the run, so that the
# median is not taken from one moment of a noisy host.
SETUP_PROBES = 7
SETUP_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); t0 = time.perf_counter(); "
               "import lieforms; lieforms.catalog_manifest(); print(time.perf_counter() - t0)")

# p90 is reported, so a run has at least ten samples beyond it
MIN_SAMPLES = 100

END_TO_END = (("setup_s", "s"), ("items_per_s", "1/s"), ("item_ms.p50", "ms"),
              ("item_ms.p90", "ms"), ("peak_rss_mb", "MB"))


class Program:
    """The package under test, imported from the checkout's ``src``."""

    def __init__(self) -> None:
        sys.path.insert(0, str(SRC))
        self.package = importlib.import_module("lieforms")
        for name in MODULES:
            setattr(self, name, importlib.import_module(f"lieforms.{name}"))

    def modules(self) -> list:
        return [m for name, m in list(sys.modules.items())
                if name == "lieforms" or name.startswith("lieforms.")]


def probe_setup(clock) -> float:
    """Seconds to import lieforms and build the catalog manifest in a fresh process."""
    done, _ = clock.call(lambda: subprocess.run(
        [sys.executable, "-c", SETUP_PROBE, str(SRC)], cwd=ROOT,
        capture_output=True, text=True, timeout=120, check=True))
    return float(done.stdout.strip().splitlines()[-1])


def machine_context() -> dict:
    """What the run was measured on, read without changing anything."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    lines = {p.stem: sum(1 for _ in p.open(encoding="utf-8"))
             for p in sorted((SRC / "lieforms").glob("*.py"))}
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "cpu": cpu, "loadavg": [round(x, 2) for x in os.getloadavg()],
            "src_lines": lines, "src_lines_total": sum(lines.values())}


def measure(workload, seconds: float):
    """Whole passes until ``seconds`` of timed work and ``MIN_SAMPLES`` items;
    set-up probes in between."""
    samples, walls, setups = [], [], []
    k = 0
    while sum(walls) < seconds or len(samples) < MIN_SAMPLES:
        inputs = workload.prepare(k)
        t0 = time.perf_counter()
        samples += workload.run(inputs)
        walls.append(time.perf_counter() - t0)
        if len(setups) < SETUP_PROBES:
            setups.append(probe_setup(workload.clock))
        k += 1
    while len(setups) < SETUP_PROBES:
        setups.append(probe_setup(workload.clock))
    return samples, walls, setups


def percentiles(ms: list[float]) -> tuple[float, float]:
    return quantile(ms, 0.5), quantile(ms, 0.9)


def end_to_end(samples, setups, factor: float) -> dict[str, float]:
    """Times scaled by ``factor`` (see hostclock).  The closed loop's
    throughput is one over the mean time per verdict."""
    p50, p90 = percentiles([s.seconds * 1000 * factor for s in samples])
    return {
        "setup_s": statistics.median(setups) * factor,
        "items_per_s": len(samples) / (sum(s.seconds for s in samples) * factor),
        "item_ms.p50": p50,
        "item_ms.p90": p90,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def traced(lf, workload, untraced, seed: int):
    """Per-layer metrics from a traced rerun of the first passes.

    The overhead is the mean item time traced over the same mean untraced,
    both unscaled.
    """
    passes = workload.trace_passes
    inputs = [workload.prepare(k) for k in range(passes)]
    untraced_clock, workload.clock = workload.clock, RawClock()
    tracer = Tracer()
    tracer.install(lf.package, lf.modules(), lf.scalars.Scalar)
    try:
        samples = [s for batch in inputs for s in workload.run(batch)]
    finally:
        tracer.uninstall()
        workload.clock = untraced_clock
    tracer.dump(WORKDIR / f"trace-{workload.name}-{seed}.jsonl")
    metrics = tracer.metrics(passes)
    metrics["trace.overhead_ratio"] = (statistics.fmean(s.seconds for s in samples)
                                       / statistics.fmean(s.seconds for s in untraced))
    return metrics, samples


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    if not (SRC / "lieforms" / "__init__.py").is_file():
        print(f"error: no lieforms package under {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    args = parse_args(argv)
    context = machine_context()
    lf = Program()
    clock = HostClock()
    workload = WORKLOADS[args.workload](lf, clock, ROOT, args.seed, WORKDIR)
    samples, walls, setups = measure(workload, args.seconds)
    raw_p50, raw_p90 = percentiles([s.seconds * 1000 for s in samples])
    if args.trace:
        metrics, traced_samples = traced(lf, workload, samples, args.seed)
        units = dict(metric_names() + [("trace.overhead_ratio", "ratio")])
        samples += traced_samples
    else:
        metrics = end_to_end(samples, setups, clock.factor())
        units = dict(END_TO_END)
    failed = [s.label for s in samples if not s.ok]

    print(f"context: {json.dumps(context)}")
    print(f"workload: {workload.name}  seed: {args.seed}  passes: {len(walls)}  "
          f"samples: {len(samples)}  failed: {len(failed)}  "
          f"failed_ratio: {len(failed) / len(samples):.4f}")
    print(f"host: kernel median {statistics.median(clock.kernel_samples):.3f} ms against "
          f"{REFERENCE_MS} ms, factor {clock.factor():.4f}; unscaled item_ms p50 "
          f"{raw_p50:.2f} p90 {raw_p90:.2f}, setup_s {statistics.median(setups):.4f}")
    for label in sorted(set(failed)):
        print(f"FAILED {label}")
    for name, value in metrics.items():
        print(f"{name:48s} {value:14.4f} {units[name]}")
    if args.trace:
        self_ms = {k[:-len(".self_ms")]: v for k, v in metrics.items() if k.endswith(".self_ms")}
        total = sum(self_ms.values()) or 1.0
        top = sorted(self_ms.items(), key=lambda kv: -kv[1])[:6]
        print("self-time shares: " + ", ".join(f"{k} {v / total:.0%}" for k, v in top))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(samples),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main())
