"""Every Scalar the engine makes on the benchmark's paths is canonical.

Exact zero tests and ``==`` are right only if each Scalar is in canonical form
(see ``lieforms.scalars``).  The sweep wraps Scalar construction and checks,
with ``test_scalars.assert_canonical``, each distinct Scalar made by an
in-process ``catalog run-all`` and by one prepared pass of the ``families``
and ``rotated-frames`` workloads, their inputs included.
"""

import contextlib
import io
from pathlib import Path
from types import SimpleNamespace

import pytest
from test_scalars import assert_canonical

from lieforms import algebras, catalog, cli, evolution
from lieforms.scalars import Scalar
from perfbench.hostclock import RawClock
from perfbench.workloads import FamiliesWorkload, RotatedFramesWorkload

ROOT = Path(__file__).resolve().parents[1]
FIXTURE = ROOT / "tests" / "fixtures" / "catalog_run_all.txt"
LF = SimpleNamespace(algebras=algebras, catalog=catalog, cli=cli, evolution=evolution)


def catalog_run_all():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["catalog", "run-all"]) == 0
    assert out.getvalue() == FIXTURE.read_text(encoding="utf-8")


def workload_pass(workload):
    assert all(sample.ok for sample in workload.run(workload.prepare(0)))


@pytest.mark.parametrize("run", [
    lambda tmp: catalog_run_all(),
    lambda tmp: workload_pass(FamiliesWorkload(LF, RawClock(), ROOT, 1, tmp)),
    lambda tmp: workload_pass(RotatedFramesWorkload(LF, RawClock(), ROOT, 1, tmp)),
], ids=["catalog", "families", "rotated-frames"])
def test_the_engine_makes_only_canonical_scalars(run, tmp_path, monkeypatch):
    made = set()  # the terms of each distinct Scalar constructed
    init = Scalar.__init__

    def recording(self, terms=None):
        init(self, terms)
        made.add(tuple(self._terms.items()))

    monkeypatch.setattr(Scalar, "__init__", recording)
    run(tmp_path)
    monkeypatch.undo()
    assert len(made) > 100
    for terms in made:
        assert_canonical(Scalar(dict(terms)))
