import importlib.util
import os
import sys
from pathlib import Path


def load_tool():
    spec = importlib.util.spec_from_file_location(
        "line_trace", Path(__file__).parents[1] / "tools" / "line_trace.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_line_trace_reports_what_the_catalog_workload_runs():
    tool = load_tool()
    before = sys.gettrace()
    not_run, missed = tool.unexecuted(tool.trace(["catalog"]))
    assert sys.gettrace() is before
    assert "catalog.run_entry" not in not_run
    assert not_run["connection.levi_civita"][0] == "connection.py"
    # the Koszul oracle's lines are listed with the function, not line by line
    first = not_run["connection.levi_civita"][1]
    assert not any(first < line <= first + 3 for line in missed.get("connection.py", []))


def test_the_suite_runs_with_src_on_the_child_pythonpath(monkeypatch):
    tool = load_tool()
    src = str(tool.ROOT / "src")
    for old in (None, "elsewhere"):
        if old is None:
            monkeypatch.delenv("PYTHONPATH", raising=False)
        else:
            monkeypatch.setenv("PYTHONPATH", old)
        with tool.src_on_pythonpath():
            assert os.environ["PYTHONPATH"].split(os.pathsep) == [src, *filter(None, [old])]
        assert os.environ.get("PYTHONPATH") == old
