"""Functions and lines of ``src/lieforms`` that no benchmark workload executes.

    python3 tools/line_trace.py [--tests]

Run from a checkout.  Each benchmark workload is built as
``perfbench/run.py`` builds it, with seed 1, and runs one pass (``prepare(0)``,
then ``run``) under ``sys.settrace``; ``--tests`` also runs the tier-1 suite
(``tests/``) in-process under the same tracer.  The output lists the functions
of which no line ran, then the lines that did not run in the other functions.
Module and class bodies run at import, before the tracer is installed, so only
function bodies are counted.  Before deleting what this lists, grep ``src/``,
``tests/``, ``perfbench/`` and the README for its callers.  The tracer slows
Python code several times, so a test that asserts a time bound may fail
under ``--tests``; the suite's exit code is reported as a warning.
"""

from __future__ import annotations

import argparse
import inspect
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "lieforms"
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.hostclock import RawClock  # noqa: E402
from perfbench.run import Program  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402


class LineTracer:
    """Records each (file, line) of ``src/lieforms`` that runs while it is entered;
    a call records the function's first line."""

    def __init__(self) -> None:
        self.ran: dict[str, set[int]] = defaultdict(set)
        self._ours: dict[str, str | None] = {}  # co_filename -> resolved path, or None

    def _file(self, filename: str) -> str | None:
        if filename not in self._ours:
            path = Path(filename).resolve()
            self._ours[filename] = str(path) if path.parent == PACKAGE else None
        return self._ours[filename]

    def _call(self, frame, event, arg):
        path = self._file(frame.f_code.co_filename)
        if path is None:
            return None
        self.ran[path].add(frame.f_code.co_firstlineno)
        return self._line

    def _line(self, frame, event, arg):
        if event == "line":
            self.ran[self._ours[frame.f_code.co_filename]].add(frame.f_lineno)
        return self._line

    def __enter__(self) -> LineTracer:
        self._previous = sys.gettrace()
        sys.settrace(self._call)
        return self

    def __exit__(self, *exc) -> None:
        sys.settrace(self._previous)


def trace(workloads: list[str], tests: bool = False) -> dict[str, set[int]]:
    """The lines each named workload's pass, and the tier-1 suite if asked, ran."""
    tracer = LineTracer()
    lf = Program()
    with tempfile.TemporaryDirectory() as workdir:
        for name in workloads:
            with tracer:
                workload = WORKLOADS[name](lf, RawClock(), ROOT, 1, Path(workdir))
                samples = workload.run(workload.prepare(0))
            for label in sorted({s.label for s in samples if not s.ok}):
                print(f"warning: {name}: wrong verdict on {label}", file=sys.stderr)
    if tests:
        import pytest

        with tracer:
            code = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests"),
                                "-k", "not line_trace"])
        if code:
            print(f"warning: the tier-1 suite exited with {code}", file=sys.stderr)
    return tracer.ran


COMPREHENSIONS = {"<listcomp>", "<setcomp>", "<dictcomp>", "<genexpr>"}


def functions(path: Path) -> list[tuple[str, int, int, set[int]]]:
    """(qualified name, first line, last line, own executable lines) of each
    function in a source file.  The def line is not an own line; nested
    functions are listed apart, and their lines count in their parents' spans."""
    out = []

    def walk(code, prefix: str) -> int:
        # the qualified name as Python builds it: the children of a def or a
        # lambda sit under ``<locals>``, those of a class or comprehension do not
        name = prefix + code.co_name
        function = bool(code.co_flags & inspect.CO_OPTIMIZED)
        scope = function and code.co_name not in COMPREHENSIONS
        inner = name + (".<locals>." if scope else ".")
        own = {line for _, _, line in code.co_lines() if line is not None}
        last = max(own, default=code.co_firstlineno)
        for const in code.co_consts:
            if inspect.iscode(const):
                last = max(last, walk(const, inner))
        if function:
            out.append((name, code.co_firstlineno, last, own - {code.co_firstlineno}))
        return last

    module = compile(path.read_text(encoding="utf-8"), str(path), "exec")
    for const in module.co_consts:
        if inspect.iscode(const):
            walk(const, "")
    return out


def unexecuted(ran: dict[str, set[int]]
               ) -> tuple[dict[str, tuple[str, int]], dict[str, list[int]]]:
    """The named functions of which no line ran, as ``module.qualname`` ->
    (file, first line), and per file the lines that did not run outside them."""
    not_run: dict[str, tuple[str, int]] = {}
    missed: dict[str, list[int]] = {}
    for path in sorted(PACKAGE.glob("*.py")):
        hit = ran.get(str(path), set())
        funcs = functions(path)
        dead = []
        for name, first, last, own in funcs:
            if first not in hit and not own & hit and not name.endswith(">"):
                not_run[f"{path.stem}.{name}"] = (path.name, first)
                dead.append((first, last))
        lines = sorted({line for _, _, _, own in funcs for line in own - hit
                        if not any(a <= line <= b for a, b in dead)})
        if lines:
            missed[path.name] = lines
    return not_run, missed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tests", action="store_true", help="also run the tier-1 suite")
    args = parser.parse_args(argv)
    not_run, missed = unexecuted(trace(sorted(WORKLOADS), args.tests))
    print(f"functions not run: {len(not_run)}")
    for name, (file, line) in sorted(not_run.items(), key=lambda kv: kv[1]):
        print(f"  {name}  ({file}:{line})")
    print("lines not run in the other functions:")
    for name, lines in missed.items():
        print(f"  {name}: {', '.join(map(str, lines))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
