"""Tests for the benchmark trend gate (``benchmarks/check_trend.py``).

The script is stdlib-only and not part of the installed package, so it
is loaded straight from its file.  The trend append is best-effort by
design: an unwritable trend file must warn and move on, never fail the
gate (a CI runner with a read-only checkout should still gate perf).
"""

from __future__ import annotations

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "check_trend.py"


@pytest.fixture(scope="module")
def check_trend():
    spec = importlib.util.spec_from_file_location("check_trend", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bench_json(metrics):
    """A minimal pytest-benchmark JSON with the given extra_info metrics."""
    return {
        "benchmarks": [
            {"name": name, "extra_info": info} for name, info in metrics.items()
        ]
    }


class TestThroughputs:
    def test_extracts_only_per_sec_metrics(self, check_trend):
        data = bench_json(
            {
                "bench_a": {"scenarios_per_sec": 10.5, "label": "sweep", "jobs": 4},
                "bench_b": {"note": "no throughput here"},
            }
        )
        assert check_trend.throughputs(data) == {"bench_a": {"scenarios_per_sec": 10.5}}

    def test_empty_input(self, check_trend):
        assert check_trend.throughputs({}) == {}


class TestCounters:
    def test_extracts_only_per_attempt_counters(self, check_trend):
        data = bench_json(
            {
                "bench_a": {"scenarios_per_sec": 10.5, "python_calls_per_attempt": 24.4},
                "bench_b": {"scenarios_per_sec": 3.0},
            }
        )
        assert check_trend.counters(data) == {"bench_a": {"python_calls_per_attempt": 24.4}}
        assert check_trend.throughputs(data) == {
            "bench_a": {"scenarios_per_sec": 10.5},
            "bench_b": {"scenarios_per_sec": 3.0},
        }

    def test_extracts_module_counts_as_counters(self, check_trend):
        data = bench_json(
            {"bench": {"starts_per_sec": 9.0, "cold_start_s": 0.11, "repro_modules": 4}}
        )
        assert check_trend.counters(data) == {"bench": {"repro_modules": 4.0}}
        assert check_trend.throughputs(data) == {"bench": {"starts_per_sec": 9.0}}

    def test_counters_are_recorded_in_the_trend_but_never_gated(self, check_trend, tmp_path):
        bench = tmp_path / "bench.json"
        info = {"scenarios_per_sec": 10.0, "python_calls_per_attempt": 99.0}
        bench.write_text(json.dumps(bench_json({"bench": info})))
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps({"bench": {"scenarios_per_sec": 10.0}}))
        trend = tmp_path / "trend.jsonl"
        assert check_trend.main([str(bench), "--baseline", str(baseline), "--trend", str(trend)]) == 0
        record = json.loads(trend.read_text())
        assert record["benchmarks"] == {"bench": {"scenarios_per_sec": 10.0}}
        assert record["counters"] == {"bench": {"python_calls_per_attempt": 99.0}}
        assert check_trend.main(
            [str(bench), "--baseline", str(baseline), "--no-trend", "--update"]
        ) == 0
        assert json.loads(baseline.read_text()) == {"bench": {"scenarios_per_sec": 10.0}}

    def test_a_run_without_counters_writes_no_counters_entry(self, check_trend, tmp_path):
        trend = tmp_path / "trend.jsonl"
        check_trend.append_trend(trend, {"bench": {"x_per_sec": 1.0}}, {})
        assert "counters" not in json.loads(trend.read_text())


class TestAppendTrend:
    def test_appends_one_json_line(self, check_trend, tmp_path):
        trend = tmp_path / "trend.jsonl"
        check_trend.append_trend(trend, {"bench": {"x_per_sec": 1.0}})
        check_trend.append_trend(trend, {"bench": {"x_per_sec": 2.0}})
        lines = trend.read_text().splitlines()
        assert len(lines) == 2
        record = json.loads(lines[-1])
        assert record["benchmarks"] == {"bench": {"x_per_sec": 2.0}}
        assert "recorded_at" in record and "commit" in record

    def test_commit_comes_from_github_sha_first(self, check_trend, tmp_path, monkeypatch):
        monkeypatch.setenv("GITHUB_SHA", "abc123")
        trend = tmp_path / "trend.jsonl"
        check_trend.append_trend(trend, {"bench": {"x_per_sec": 1.0}})
        assert json.loads(trend.read_text())["commit"] == "abc123"

    def test_commit_falls_back_to_git_head(self, check_trend, tmp_path, monkeypatch):
        monkeypatch.delenv("GITHUB_SHA", raising=False)
        calls = []

        def fake_run(command, **kwargs):
            calls.append(command)
            return subprocess.CompletedProcess(command, 0, stdout="f00dfeed\n", stderr="")

        monkeypatch.setattr(check_trend.subprocess, "run", fake_run)
        trend = tmp_path / "trend.jsonl"
        check_trend.append_trend(trend, {"bench": {"x_per_sec": 1.0}})
        assert calls == [["git", "rev-parse", "HEAD"]]
        assert json.loads(trend.read_text())["commit"] == "f00dfeed"

    @pytest.mark.parametrize("failure", ["missing", "not-a-checkout"])
    def test_commit_is_null_when_git_fails(self, check_trend, tmp_path, monkeypatch, failure):
        monkeypatch.delenv("GITHUB_SHA", raising=False)

        def fake_run(command, **kwargs):
            if failure == "missing":
                raise FileNotFoundError("git")
            return subprocess.CompletedProcess(command, 128, stdout="", stderr="fatal")

        monkeypatch.setattr(check_trend.subprocess, "run", fake_run)
        trend = tmp_path / "trend.jsonl"
        check_trend.append_trend(trend, {"bench": {"x_per_sec": 1.0}})
        assert json.loads(trend.read_text())["commit"] is None

    def test_unwritable_path_warns_instead_of_raising(self, check_trend, tmp_path, capsys):
        # A directory cannot be opened for append -> OSError inside.
        target = tmp_path / "trend-as-dir"
        target.mkdir()
        check_trend.append_trend(target, {"bench": {"x_per_sec": 1.0}})
        captured = capsys.readouterr()
        assert "warning: cannot append trend line" in captured.err
        assert str(target) in captured.err

    def test_unwritable_trend_never_fails_the_gate(self, check_trend, tmp_path, capsys):
        """End-to-end: exit code reflects the gate, not the trend append."""
        bench = tmp_path / "bench.json"
        bench.write_text(json.dumps(bench_json({"bench": {"x_per_sec": 10.0}})))
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps({"bench": {"x_per_sec": 10.0}}))
        unwritable = tmp_path / "trend-as-dir"
        unwritable.mkdir()
        code = check_trend.main(
            [str(bench), "--baseline", str(baseline), "--trend", str(unwritable)]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "warning: cannot append trend line" in captured.err
        assert "no throughput regressions" in captured.out


class TestGate:
    def run_main(self, check_trend, tmp_path, current, baseline, extra_args=()):
        bench = tmp_path / "bench.json"
        bench.write_text(json.dumps(bench_json(current)))
        baseline_path = tmp_path / "baseline.json"
        baseline_path.write_text(json.dumps(baseline))
        return check_trend.main(
            [str(bench), "--baseline", str(baseline_path), "--no-trend", *extra_args]
        )

    def test_regression_beyond_tolerance_fails(self, check_trend, tmp_path, capsys):
        code = self.run_main(
            check_trend,
            tmp_path,
            {"bench": {"scenarios_per_sec": 5.0}},
            {"bench": {"scenarios_per_sec": 10.0}},
        )
        assert code == 1
        assert "REGRESSED" in capsys.readouterr().out

    def test_within_tolerance_passes(self, check_trend, tmp_path, capsys):
        code = self.run_main(
            check_trend,
            tmp_path,
            {"bench": {"scenarios_per_sec": 8.0}},
            {"bench": {"scenarios_per_sec": 10.0}},
        )
        assert code == 0
        assert "no throughput regressions" in capsys.readouterr().out

    def test_new_benchmark_is_not_gated(self, check_trend, tmp_path, capsys):
        code = self.run_main(
            check_trend,
            tmp_path,
            {"brand_new": {"scenarios_per_sec": 1.0}},
            {"old": {"scenarios_per_sec": 10.0}},
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "new" in out and "missing" in out

    def test_update_rewrites_baseline(self, check_trend, tmp_path):
        bench = tmp_path / "bench.json"
        bench.write_text(json.dumps(bench_json({"bench": {"x_per_sec": 42.0}})))
        baseline = tmp_path / "baseline.json"
        code = check_trend.main(
            [str(bench), "--baseline", str(baseline), "--no-trend", "--update"]
        )
        assert code == 0
        assert json.loads(baseline.read_text()) == {"bench": {"x_per_sec": 42.0}}

    def test_update_raises_only_the_metrics_that_rose(self, check_trend, tmp_path):
        code = self.run_main(
            check_trend,
            tmp_path,
            {"bench": {"x_per_sec": 12.0, "y_per_sec": 4.0}},
            {"bench": {"x_per_sec": 10.0, "y_per_sec": 5.0}},
            extra_args=["--update"],
        )
        assert code == 0
        baseline = json.loads((tmp_path / "baseline.json").read_text())
        assert baseline == {"bench": {"x_per_sec": 12.0, "y_per_sec": 5.0}}

    def test_update_keeps_benchmarks_missing_from_the_run(self, check_trend, tmp_path, capsys):
        code = self.run_main(
            check_trend,
            tmp_path,
            {"new": {"x_per_sec": 1.0}, "slower": {"x_per_sec": 2.0}},
            {"absent": {"x_per_sec": 7.0, "z_per_sec": 3.0}, "slower": {"x_per_sec": 9.0}},
            extra_args=["--update"],
        )
        assert code == 0
        assert json.loads((tmp_path / "baseline.json").read_text()) == {
            "absent": {"x_per_sec": 7.0, "z_per_sec": 3.0},
            "new": {"x_per_sec": 1.0},
            "slower": {"x_per_sec": 9.0},
        }
        assert "1 of 3 benchmarks raised or added" in capsys.readouterr().out

    def test_update_leaves_an_invalid_baseline_alone(self, check_trend, tmp_path):
        bench = tmp_path / "bench.json"
        bench.write_text(json.dumps(bench_json({"bench": {"x_per_sec": 42.0}})))
        baseline = tmp_path / "baseline.json"
        baseline.write_text("{not json")
        code = check_trend.main(
            [str(bench), "--baseline", str(baseline), "--no-trend", "--update"]
        )
        assert code == 2
        assert baseline.read_text() == "{not json"

    def test_unreadable_bench_json_returns_2(self, check_trend, tmp_path):
        code = check_trend.main([str(tmp_path / "missing.json"), "--no-trend"])
        assert code == 2
