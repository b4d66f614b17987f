"""Tests for the ``python -m repro.analysis`` CLI and repo cleanliness."""

import json
import os
import time

import pytest

from repro.analysis.cli import main
from repro.analysis.sarif import validate_sarif

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO_ROOT, "src")


class TestCli:
    def test_repo_tree_is_clean(self, capsys):
        """The acceptance gate: the shipped tree has zero violations."""
        assert main([SRC]) == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_json_format(self, capsys):
        assert main([SRC, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["errors"] == 0
        assert payload["diagnostics"] == []

    def test_violating_file_fails(self, tmp_path, capsys):
        bad = tmp_path / "repro" / "sim" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import time\nstamp = time.time()\nCHUNK = 4096\n")
        assert main([str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "SIM101" in out and "SIM106" in out

    def test_select_restricts_codes(self, tmp_path, capsys):
        bad = tmp_path / "repro" / "sim" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import time\nstamp = time.time()\nCHUNK = 4096\n")
        assert main([str(bad), "--select", "SIM106"]) == 1
        out = capsys.readouterr().out
        assert "SIM106" in out and "SIM101" not in out

    def test_ignore_suppresses_codes(self, tmp_path, capsys):
        bad = tmp_path / "repro" / "sim" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("CHUNK = 4096\n")
        assert main([str(bad), "--ignore", "SIM106"]) == 0

    def test_unknown_code_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main([str(tmp_path), "--select", "NOPE1"])
        assert excinfo.value.code == 2

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ("SIM101", "SIM106", "SPEC201", "PLAT301"):
            assert code in out

    def test_platform_only(self, capsys):
        assert main(["--platform-only"]) == 0


class TestDataflowWiring:
    def test_select_dataflow_families(self, capsys):
        # The DESIGN quick-start invocation must work end to end.
        assert main([SRC, "--select", "SIM2,SVC4,UNIT6"]) == 0

    def test_taint_finding_fails_run(self, tmp_path, capsys):
        bad = tmp_path / "repro" / "obs" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text(
            "import time\n\n"
            "def f(tracer):\n"
            "    tracer.record('event', time.time())\n"
        )
        assert main([str(tmp_path), "--select", "SIM2"]) == 1
        assert "SIM201" in capsys.readouterr().out

    def test_no_dataflow_skips_taint(self, tmp_path, capsys):
        bad = tmp_path / "repro" / "obs" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text(
            "import time\n\n"
            "def f(tracer):\n"
            "    tracer.record('event', time.time())\n"
        )
        assert main([str(tmp_path), "--select", "SIM2", "--no-dataflow"]) == 0


class TestSarifFormat:
    def test_sarif_output_validates(self, capsys):
        assert main([SRC, "--format", "sarif"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert validate_sarif(document) == []

    def test_sarif_carries_findings(self, tmp_path, capsys):
        bad = tmp_path / "repro" / "sim" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("CHUNK = 4096\n")
        assert main([str(bad), "--format", "sarif", "--no-baseline"]) == 1
        document = json.loads(capsys.readouterr().out)
        assert validate_sarif(document) == []
        assert document["runs"][0]["results"][0]["ruleId"] == "SIM106"


class TestBaselineFlow:
    def _write_bad(self, tmp_path):
        bad = tmp_path / "repro" / "sim" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import time\nstamp = time.time()\n")
        return bad

    def test_baseline_accepts_existing_findings(self, tmp_path, capsys):
        bad = self._write_bad(tmp_path)
        baseline = tmp_path / "baseline.json"
        assert main([str(bad), "--write-baseline", "--baseline", str(baseline)]) == 0
        assert baseline.exists()
        assert main([str(bad), "--baseline", str(baseline)]) == 0
        assert "baselined" in capsys.readouterr().out

    def test_new_finding_still_fails(self, tmp_path, capsys):
        bad = self._write_bad(tmp_path)
        baseline = tmp_path / "baseline.json"
        assert main([str(bad), "--write-baseline", "--baseline", str(baseline)]) == 0
        bad.write_text(bad.read_text() + "CHUNK = 4096\n")
        assert main([str(bad), "--baseline", str(baseline)]) == 1
        out = capsys.readouterr().out
        assert "SIM106" in out and "SIM101" not in out

    def test_no_baseline_shows_everything(self, tmp_path, capsys):
        bad = self._write_bad(tmp_path)
        baseline = tmp_path / "baseline.json"
        assert main([str(bad), "--write-baseline", "--baseline", str(baseline)]) == 0
        assert (
            main([str(bad), "--baseline", str(baseline), "--no-baseline"]) == 1
        )

    def test_committed_baseline_matches_tree(self):
        # analysis-baseline.json is committed; regenerating it from the
        # current tree must be a no-op (no stale or missing entries).
        from repro.analysis.baseline import Baseline
        from repro.analysis.diagnostics import DiagnosticSink
        from repro.analysis.cli import _run_dataflow
        from repro.analysis.simlint import lint_paths

        sink = DiagnosticSink()
        lint_paths([SRC], sink=sink)
        _run_dataflow([SRC], sink)
        current = Baseline.from_diagnostics(sink.sorted())
        committed = Baseline.load(os.path.join(REPO_ROOT, "analysis-baseline.json"))
        def normalize(keys):
            return {
                (code, path.replace(REPO_ROOT.replace(os.sep, "/") + "/", ""), msg)
                for code, path, msg in keys
            }

        assert normalize(current.keys) == normalize(committed.keys)


class TestFixFlag:
    def test_fix_rewrites_then_passes(self, tmp_path, capsys):
        bad = tmp_path / "repro" / "sim" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("CHUNK = 4096\n")
        assert main([str(tmp_path), "--fix"]) == 0
        out = capsys.readouterr().out
        assert "fixed 1 magic literal(s)" in out
        assert "KiB" in bad.read_text()


class TestAnalysisRuntime:
    def test_full_tree_analysis_under_ten_seconds(self):
        """The CI wall guard: lint + all dataflow passes over src/."""
        from repro.analysis.cli import _run_dataflow
        from repro.analysis.diagnostics import DiagnosticSink
        from repro.analysis.simlint import lint_paths

        start = time.perf_counter()
        sink = DiagnosticSink()
        lint_paths([SRC], sink=sink)
        _run_dataflow([SRC], sink)
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"analysis took {elapsed:.1f}s (budget 10s)"
