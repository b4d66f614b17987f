"""``tools/bench_guard.py compare``: every benchmark is both run and guarded."""

import importlib.util
import json
from pathlib import Path

import pytest

GUARD_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_guard.py"


@pytest.fixture(scope="module")
def bench_guard():
    spec = importlib.util.spec_from_file_location("bench_guard", GUARD_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_export(path, medians):
    """A minimal pytest-benchmark export: one entry per (name, median)."""
    benchmarks = [
        {"name": name, "stats": {"median": median}, "extra_info": {}}
        for name, median in medians.items()
    ]
    path.write_text(json.dumps({"benchmarks": benchmarks}))
    return str(path)


def write_baseline(path, medians):
    entries = {
        name: {"median_wall_seconds": median} for name, median in medians.items()
    }
    path.write_text(json.dumps({"bench": "simcore", "benchmarks": entries}))
    return str(path)


def compare(bench_guard, tmp_path, ran, baselined):
    export = write_export(tmp_path / "raw.json", ran)
    baseline = write_baseline(tmp_path / "baseline.json", baselined)
    return bench_guard.main(["compare", export, "--baseline", baseline])


class TestCompareCoverage:
    def test_matching_sets_pass(self, bench_guard, tmp_path, capsys):
        both = {"a": 1.0, "b": 2.0}
        assert compare(bench_guard, tmp_path, both, both) == 0
        assert "all 2 benchmark(s) within guard" in capsys.readouterr().out

    def test_missing_from_run_fails(self, bench_guard, tmp_path, capsys):
        assert compare(bench_guard, tmp_path, {"a": 1.0}, {"a": 1.0, "b": 2.0}) == 1
        assert "b: missing from the current run" in capsys.readouterr().err

    def test_ran_but_unbaselined_fails(self, bench_guard, tmp_path, capsys):
        assert compare(bench_guard, tmp_path, {"a": 1.0, "new": 0.5}, {"a": 1.0}) == 1
        err = capsys.readouterr().err
        assert "new: ran but has no baseline entry" in err
        assert "a:" not in err

    def test_counters_only_still_requires_a_baseline(
        self, bench_guard, tmp_path, capsys
    ):
        export = write_export(tmp_path / "raw.json", {"a": 9.0, "new": 0.5})
        baseline = write_baseline(tmp_path / "baseline.json", {"a": 1.0})
        args = ["compare", export, "--baseline", baseline, "--counters-only"]
        assert bench_guard.main(args) == 1
        assert "new: ran but has no baseline entry" in capsys.readouterr().err
