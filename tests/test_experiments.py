"""Tests of the experiment harness (smoke scale) and its CLI."""

from __future__ import annotations

import hashlib
import io
import json
import math
from pathlib import Path

import pytest

from repro.api import ScenarioSpec, SweepStarted, stream_specs
from repro.experiments import (
    ExperimentScale,
    ExperimentTable,
    run_figure5,
    run_table1,
    run_table2,
)
from repro.experiments.cli import (
    EXPERIMENTS,
    ProgressLine,
    UnknownExperimentError,
    _tables_of,
    build_parser,
    main,
    run_experiments,
)
from repro.experiments.common import ExperimentRow


class TestExperimentTable:
    def test_add_and_lookup(self):
        table = ExperimentTable("t", "Title", ["a", "b"])
        table.add_row("row1", {"a": 1.0, "b": 2.0})
        assert table.row("row1").value("a") == 1.0

    def test_missing_column_rejected(self):
        table = ExperimentTable("t", "Title", ["a", "b"])
        with pytest.raises(ValueError):
            table.add_row("row1", {"a": 1.0})

    def test_missing_row_raises(self):
        table = ExperimentTable("t", "Title", ["a"])
        with pytest.raises(KeyError):
            table.row("nope")

    def test_to_text_contains_values(self):
        table = ExperimentTable("t", "Title", ["a"])
        table.add_row("row1", {"a": 0.5})
        table.add_row("inf", {"a": -math.inf})
        text = table.to_text()
        assert "Title" in text
        assert "row1" in text
        assert "-inf" in text

    def test_experiment_row_value(self):
        row = ExperimentRow(label="x", values={"a": 3.0})
        assert row.value("a") == 3.0


class TestScale:
    def test_scaled_jobs_monotone(self):
        assert ExperimentScale.SMOKE.scaled_jobs(100) <= ExperimentScale.SMALL.scaled_jobs(100)
        assert ExperimentScale.SMALL.scaled_jobs(100) <= ExperimentScale.FULL.scaled_jobs(100)

    def test_minimum_respected(self):
        assert ExperimentScale.SMOKE.scaled_jobs(10, minimum=25) == 25


@pytest.fixture(scope="module")
def figure5_table():
    return run_figure5(scale=ExperimentScale.SMOKE, seed=0)


@pytest.fixture(scope="module")
def table1():
    return run_table1(scale=ExperimentScale.SMOKE, seed=0)


class TestFigure5:
    def test_has_four_rows(self, figure5_table):
        assert len(figure5_table.rows) == 4

    def test_histogram_counts_all_jobs(self, figure5_table):
        totals = {row.label: sum(row.values.values()) for row in figure5_table.rows}
        assert len(set(totals.values())) == 1  # every row sums to the job count

    def test_larger_theta_shifts_r_down(self, figure5_table):
        """The paper's headline observation for Figure 5."""

        def mean_r(label):
            row = figure5_table.row(label)
            total = sum(row.values.values())
            acc = 0.0
            for column, count in row.values.items():
                r = 7 if column == "r>=7" else int(column.split("=")[1])
                acc += r * count
            return acc / total

        assert mean_r("Clone theta=0.0001") <= mean_r("Clone theta=1e-05")
        assert mean_r("S-Resume theta=0.0001") <= mean_r("S-Resume theta=1e-05")


class TestTable1:
    def test_has_seven_rows(self, table1):
        assert len(table1.rows) == 7

    def test_pocd_and_cost_positive(self, table1):
        for row in table1.rows:
            assert 0.0 <= row.value("pocd") <= 1.0
            assert row.value("cost") > 0.0

    def test_small_tau_est_costs_more_for_speculative(self, table1):
        """Over-eager detection (small tau_est) launches more speculation."""
        early = table1.row("S-Resume @ tau_est=0.1tmin, tau_kill=0.6tmin").value("cost")
        late = table1.row("S-Resume @ tau_est=0.5tmin, tau_kill=1.0tmin").value("cost")
        assert early >= late


class TestTable2:
    def test_structure_and_cost_monotone_in_tau_kill(self):
        table = run_table2(scale=ExperimentScale.SMOKE, seed=0)
        assert len(table.rows) == 9
        resume_costs = [
            table.row(f"S-Resume @ tau_est=0.3tmin, tau_kill={factor}tmin").value("cost")
            for factor in ("0.4", "0.6", "0.8")
        ]
        # Larger tau_kill lets speculative attempts run longer before pruning.
        assert resume_costs[0] <= resume_costs[-1] * 1.05


HARNESS_TABLES = json.loads(
    (Path(__file__).parent / "data" / "harness_tables.json").read_text()
)

#: The harnesses that simulate (Figure 5 only runs the closed-form optimizer).
SIMULATION_HARNESSES = ("figure2", "figure3", "figure4", "table1", "table2")


def _harness_texts(name, **kwargs):
    """``{experiment_id: to_text()}`` of one harness at smoke scale."""
    kwargs.setdefault("seed", 0)
    result = EXPERIMENTS[name](scale=ExperimentScale.SMOKE, **kwargs)
    return {table.experiment_id: table.to_text() for table in _tables_of(result)}


class TestHarnessTables:
    @pytest.mark.parametrize("name", sorted(HARNESS_TABLES["to_text_sha256"]))
    def test_tables_match_pinned_digests(self, name):
        """Every table's text is byte-identical to the pinned capture."""
        assert HARNESS_TABLES["scale"] == ExperimentScale.SMOKE.value
        texts = _harness_texts(name, seed=HARNESS_TABLES["seed"])
        digests = {
            table_id: hashlib.sha256(text.encode()).hexdigest()
            for table_id, text in texts.items()
        }
        assert digests == HARNESS_TABLES["to_text_sha256"][name]

    @pytest.mark.parametrize("name", SIMULATION_HARNESSES)
    def test_each_harness_runs_one_sweep(self, name):
        """All of a harness's rows are one ``run_specs`` call."""
        events = []
        _harness_texts(name, on_event=events.append)
        assert sum(isinstance(event, SweepStarted) for event in events) == 1

    @pytest.mark.parametrize("name", SIMULATION_HARNESSES)
    def test_parallel_jobs_match_inline(self, name):
        """The worker-fleet path reproduces the inline tables exactly."""
        assert _harness_texts(name, jobs=2) == _harness_texts(name, jobs=1)


class TestCLI:
    def test_registry_lists_all_experiments(self):
        assert set(EXPERIMENTS) == {
            "figure2",
            "table1",
            "table2",
            "figure3",
            "figure4",
            "figure5",
        }

    def test_parser_choices_match_their_sources(self):
        """The parser restates the scale and executor names so that building
        it imports neither the harnesses nor the sweep API."""
        from repro.api import EXECUTORS
        from repro.experiments import cli

        assert cli.SCALES == tuple(scale.value for scale in ExperimentScale)
        assert cli.EXECUTORS == EXECUTORS

    def test_parser_defaults(self):
        args = build_parser().parse_args([])
        assert args.scale == "small"
        assert args.experiments == ["all"]

    def test_run_experiments_unknown_name(self):
        with pytest.raises(KeyError):
            run_experiments(["nope"], scale=ExperimentScale.SMOKE, seed=0)

    def test_main_list_option(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "figure2" in out

    def test_main_runs_single_experiment(self, capsys):
        assert main(["figure5", "--scale", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "Histogram of the optimal r" in out

    def test_main_rejects_unknown(self, capsys):
        assert main(["nope"]) == 2

    def test_unknown_experiment_message_lists_available(self, capsys):
        """Regression: exit 2 with a readable message, not a bare KeyError repr."""
        exit_code = main(["nope", "figure2"])
        err = capsys.readouterr().err
        assert exit_code == 2
        assert "unknown experiments: nope" in err
        for name in EXPERIMENTS:
            assert name in err
        assert err.strip() == str(UnknownExperimentError(["nope"], EXPERIMENTS))
        assert "'" not in err  # no repr() quoting

    def test_parser_accepts_jobs(self):
        args = build_parser().parse_args(["figure5", "--jobs", "3"])
        assert args.jobs == 3


class TestProgressLine:
    SPECS = [
        ScenarioSpec(
            workload={"kind": "benchmark", "params": {"name": "sort", "num_jobs": 3}},
            strategy="s-resume",
            cluster={"num_nodes": 0},
            seed=seed,
        )
        for seed in range(3)
    ]

    def test_plain_lines_do_not_repeat(self):
        """Off a tty, a line that says nothing new is not written again."""
        stream = io.StringIO()
        progress = ProgressLine(stream=stream, min_interval=0.0)
        for event in stream_specs(self.SPECS):
            progress(event)
        lines = stream.getvalue().splitlines()
        assert lines[0] == "sweep 0/3" and lines[-1].startswith("sweep 3/3  done in")
        assert all(line != previous for previous, line in zip(lines, lines[1:]))

    def test_tty_redraws_on_every_render(self):
        class Terminal(io.StringIO):
            def isatty(self):
                return True

        stream = Terminal()
        progress = ProgressLine(stream=stream, min_interval=0.0)
        events = list(stream_specs(self.SPECS))
        for event in events:
            progress(event)
        assert stream.getvalue().count("\r") == len(events)


class TestSweepCommand:
    def _sweep_payload(self):
        return {
            "base": {
                "workload": {
                    "kind": "benchmark",
                    "params": {"name": "sort", "num_jobs": 3},
                },
                "strategy": "s-resume",
                "strategy_params": {"tau_est": 30.0, "tau_kill": 60.0, "fixed_r": 1},
                "cluster": {"num_nodes": 0},
            },
            "grid": {"strategy": ["hadoop-ns", "s-resume"], "seed": [0, 1]},
        }

    def test_sweep_runs_from_spec_file(self, tmp_path, capsys):
        import json

        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(self._sweep_payload()))
        assert main(["sweep", "--spec", str(path), "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert "hadoop-ns" in out and "s-resume" in out
        assert "4 scenarios: 4 executed" in out

    def test_sweep_cache_dir_short_circuits_second_run(self, tmp_path, capsys):
        import json

        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(self._sweep_payload()))
        cache_dir = str(tmp_path / "cache")
        assert main(["sweep", "--spec", path.as_posix(), "--cache-dir", cache_dir]) == 0
        capsys.readouterr()
        assert main(["sweep", "--spec", path.as_posix(), "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "0 executed, 4 cache hits" in out
        assert (tmp_path / "cache" / "results.sqlite").is_file()

    def test_sweep_requires_spec(self, capsys):
        assert main(["sweep"]) == 2
        assert "--spec" in capsys.readouterr().err

    def test_sweep_rejects_bad_spec(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"base": {"workload": {"kind": "mixed"}, "strategy": "warp"}}')
        assert main(["sweep", "--spec", str(path)]) == 2
        assert "strategy" in capsys.readouterr().err

    def test_sweep_rejects_malformed_grid(self, tmp_path, capsys):
        """Regression: a list-valued grid is a diagnostic, not a traceback."""
        path = tmp_path / "bad_grid.json"
        path.write_text(
            '{"base": {"workload": {"kind": "mixed"}, "strategy": "clone"},'
            ' "grid": ["strategy"]}'
        )
        assert main(["sweep", "--spec", str(path)]) == 2
        assert "grid" in capsys.readouterr().err

    def test_sweep_rejects_malformed_overrides(self, tmp_path, capsys):
        path = tmp_path / "bad_overrides.json"
        path.write_text(
            '{"base": {"workload": {"kind": "mixed"}, "strategy": "clone"},'
            ' "overrides": [3]}'
        )
        assert main(["sweep", "--spec", str(path)]) == 2
        assert "overrides[0]" in capsys.readouterr().err


class TestDistributedCli:
    def _sweep_file(self, tmp_path):
        import json

        payload = {
            "base": {
                "workload": {
                    "kind": "benchmark",
                    "params": {"name": "sort", "num_jobs": 3},
                },
                "strategy": "s-resume",
                "strategy_params": {"tau_est": 30.0, "tau_kill": 60.0, "fixed_r": 1},
                "cluster": {"num_nodes": 0},
            },
            "grid": {"strategy": ["hadoop-ns", "s-resume"], "seed": [0, 1]},
        }
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(payload))
        return path

    def test_parser_accepts_executor_flags(self):
        args = build_parser().parse_args(
            ["sweep", "--executor", "distributed", "--workers", "3", "--db", "q.sqlite"]
        )
        assert args.executor == "distributed"
        assert args.workers == 3
        assert args.db == "q.sqlite"

    def test_sweep_distributed_rerun_served_from_store(self, tmp_path, capsys):
        path = self._sweep_file(tmp_path)
        db = str(tmp_path / "queue.sqlite")
        argv = [
            "sweep", "--spec", str(path),
            "--executor", "distributed", "--workers", "2", "--db", db,
        ]
        assert main(argv) == 0
        assert "4 scenarios: 4 executed" in capsys.readouterr().out
        assert main(argv) == 0
        assert "0 executed, 4 cache hits" in capsys.readouterr().out

    def test_db_with_the_pool_is_a_usage_error(self, tmp_path, capsys, monkeypatch):
        from repro.experiments import cli

        def no_harness(*args, **kwargs):
            raise AssertionError("a harness ran despite the usage error")

        monkeypatch.setattr(cli, "run_experiments", no_harness)
        path = self._sweep_file(tmp_path)
        db = tmp_path / "queue.sqlite"
        for argv in (
            ["sweep", "--spec", str(path), "--jobs", "2", "--executor", "pool", "--db", str(db)],
            ["figure2", "--scale", "smoke", "--executor", "pool", "--db", str(db)],
        ):
            assert main(argv) == 2
            assert "db= requires the distributed executor" in capsys.readouterr().err
        assert not db.exists()

    @pytest.mark.parametrize("target", ["db", "cache-dir"])
    def test_harness_rerun_is_served_from_the_store(self, tmp_path, capsys, target):
        """A harness re-run against the same queue or cache executes nothing."""
        queue = str(tmp_path / "q.sqlite")
        flags = {
            "db": ["--executor", "distributed", "--workers", "2", "--db", queue],
            "cache-dir": ["--cache-dir", str(tmp_path / "cache")],
        }[target]
        runs = []
        for _ in range(2):
            assert main(["table1", "--scale", "smoke", "--progress", *flags]) == 0
            out, err = capsys.readouterr()
            (final,) = [line for line in err.splitlines() if "done in" in line]
            runs.append((out.rsplit("completed 1 tables", 1)[0], final))
        (first_tables, first), (second_tables, second) = runs
        assert "table1" in first_tables and second_tables == first_tables
        assert first.startswith("sweep 7/7  done in")
        assert second.startswith("sweep 7/7  7 cached  done in")

    def test_workers_requires_action_and_db(self, capsys):
        assert main(["workers"]) == 2
        assert "start, status, drain" in capsys.readouterr().err
        assert main(["workers", "status"]) == 2
        assert "--db" in capsys.readouterr().err

    def test_workers_start_drains_prefilled_queue(self, tmp_path, capsys):
        from repro.api import ScenarioSpec
        from repro.distributed import Broker

        specs = [
            ScenarioSpec(
                workload={"kind": "benchmark", "params": {"name": "sort", "num_jobs": 3}},
                strategy="s-resume",
                cluster={"num_nodes": 0},
                seed=seed,
            )
            for seed in (0, 1)
        ]
        db = str(tmp_path / "queue.sqlite")
        with Broker(db) as broker:
            assert broker.enqueue(
                [s.to_dict() for s in specs], [s.fingerprint() for s in specs]
            ) == 2
        assert main(
            ["workers", "start", "--db", db, "--workers", "2", "--exit-when-idle"]
        ) == 0
        out = capsys.readouterr().out
        assert "done=2" in out and "failed=0" in out
        with Broker(db) as broker:
            assert broker.settled()
            assert broker.counts()["done"] == 2

    def test_workers_status_and_drain(self, tmp_path, capsys):
        db = str(tmp_path / "queue.sqlite")
        assert main(["workers", "status", "--db", db]) == 0
        out = capsys.readouterr().out
        assert "pending=0" in out and "draining: no" in out
        assert main(["workers", "drain", "--db", db]) == 0
        capsys.readouterr()
        assert main(["workers", "status", "--db", db]) == 0
        assert "draining: yes" in capsys.readouterr().out


class TestServiceCli:
    """CLI surface of the multi-host service: serve, --broker, export, status."""

    def _sweep_file(self, tmp_path):
        import json

        payload = {
            "base": {
                "workload": {
                    "kind": "benchmark",
                    "params": {"name": "sort", "num_jobs": 3},
                },
                "strategy": "s-resume",
                "strategy_params": {"tau_est": 30.0, "tau_kill": 60.0, "fixed_r": 1},
                "cluster": {"num_nodes": 0},
            },
            "grid": {"strategy": ["hadoop-ns", "s-resume"], "seed": [0, 1]},
        }
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(payload))
        return path

    @pytest.fixture
    def service_url(self, tmp_path):
        import threading

        from repro.service import make_server

        server = make_server(tmp_path / "queue.sqlite", host="127.0.0.1", port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            yield f"http://127.0.0.1:{server.server_address[1]}"
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5.0)

    def test_parser_accepts_service_flags(self):
        args = build_parser().parse_args(
            ["serve", "--db", "q.sqlite", "--host", "0.0.0.0", "--port", "9000"]
        )
        assert args.host == "0.0.0.0" and args.port == 9000
        args = build_parser().parse_args(
            ["workers", "start", "--broker", "http://h:1", "--restarts", "5"]
        )
        assert args.broker == "http://h:1" and args.restarts == 5
        # --csv keeps working as a bare flag and now accepts a file too
        assert build_parser().parse_args(["sweep", "--csv"]).csv is True
        assert build_parser().parse_args(["sweep", "--csv", "o.csv"]).csv == "o.csv"
        assert build_parser().parse_args(["sweep"]).csv is False

    def test_serve_requires_db(self, capsys):
        assert main(["serve"]) == 2
        assert "--db" in capsys.readouterr().err

    def test_sweep_unreachable_broker_is_a_diagnostic(self, tmp_path, capsys):
        """Transport failures exit 2 with a message, not a traceback."""
        path = self._sweep_file(tmp_path)
        assert main(["sweep", "--spec", str(path), "--broker", "http://127.0.0.1:9"]) == 2
        assert "cannot reach sweep service" in capsys.readouterr().err

    def test_sweep_rejects_non_http_broker(self, tmp_path, capsys):
        path = self._sweep_file(tmp_path)
        assert main(["sweep", "--spec", str(path), "--broker", "ftp://x"]) == 2
        assert "http(s)://" in capsys.readouterr().err

    def test_sweep_rejects_both_targets(self, tmp_path, capsys):
        path = self._sweep_file(tmp_path)
        argv = ["sweep", "--spec", str(path), "--broker", "http://127.0.0.1:9",
                "--db", str(tmp_path / "q.sqlite")]
        assert main(argv) == 2
        assert "not both" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "target", ["redis://localhost:6379", "shards:a.sqlite,b.sqlite"], ids=["redis", "shards"]
    )
    def test_unknown_scheme_is_an_exit_2_diagnostic(self, target, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["workers", "status", "--broker", target]) == 2
        err = capsys.readouterr().err
        assert "unknown queue target scheme" in err
        assert "sqlite path" in err and "'http://' or 'https://'" in err
        assert list(tmp_path.iterdir()) == []

    def test_workers_status_unreachable_broker_is_a_diagnostic(self, capsys):
        assert main(["workers", "status", "--broker", "http://127.0.0.1:9"]) == 2
        assert "cannot reach sweep service" in capsys.readouterr().err

    def test_sweep_and_rerun_through_broker_url(self, tmp_path, capsys, service_url):
        path = self._sweep_file(tmp_path)
        argv = ["sweep", "--spec", str(path), "--broker", service_url, "--workers", "2"]
        assert main(argv) == 0
        assert "4 scenarios: 4 executed" in capsys.readouterr().out
        # the zero-execution re-run, answered by the service's store
        assert main(argv) == 0
        assert "0 executed, 4 cache hits" in capsys.readouterr().out

    def test_workers_status_and_drain_through_broker_url(self, capsys, service_url):
        assert main(["workers", "status", "--broker", service_url]) == 0
        out = capsys.readouterr().out
        assert f"service: {service_url}" in out
        assert "pending=0" in out
        assert main(["workers", "drain", "--broker", service_url]) == 0
        capsys.readouterr()
        assert main(["workers", "status", "--broker", service_url]) == 0
        assert "draining: yes" in capsys.readouterr().out

    def test_status_shows_stuck_lease_detail(self, tmp_path, capsys):
        from repro.api import ScenarioSpec
        from repro.distributed import Broker

        spec = ScenarioSpec(
            workload={"kind": "benchmark", "params": {"name": "sort", "num_jobs": 3}},
            strategy="s-resume",
            cluster={"num_nodes": 0},
        )
        db = str(tmp_path / "queue.sqlite")
        with Broker(db) as broker:
            broker.enqueue([spec.to_dict()], [spec.fingerprint()])
            broker.claim("wedged-worker")
        assert main(["workers", "status", "--db", db]) == 0
        out = capsys.readouterr().out
        assert "leases:" in out
        assert "worker=wedged-worker" in out
        assert "attempt=1/3" in out
        assert "expires_in=" in out

    def test_export_writes_result_store_csv(self, tmp_path, capsys):
        path = self._sweep_file(tmp_path)
        db = str(tmp_path / "queue.sqlite")
        assert main(
            ["sweep", "--spec", str(path), "--executor", "distributed",
             "--workers", "2", "--db", db]
        ) == 0
        capsys.readouterr()
        out_csv = tmp_path / "results.csv"
        assert main(["export", "--db", db, "--csv", str(out_csv)]) == 0
        assert "wrote 4 result row(s)" in capsys.readouterr().out
        lines = out_csv.read_text().strip().splitlines()
        assert lines[0].startswith("fingerprint,workload,strategy")
        assert len(lines) == 5  # header + 4 scenarios
        assert sum(line.count("hadoop-ns") for line in lines) == 2
        # without a file, the CSV goes to stdout
        assert main(["export", "--db", db]) == 0
        stdout_lines = capsys.readouterr().out.strip().splitlines()
        assert stdout_lines[0] == lines[0]
        assert len(stdout_lines) == 5

    def test_export_requires_db(self, tmp_path, capsys):
        assert main(["export"]) == 2
        assert "--db" in capsys.readouterr().err
        assert main(["export", "--db", str(tmp_path / "missing.sqlite")]) == 2
        assert "no queue database" in capsys.readouterr().err

    def test_export_missing_db_with_sqlite_prefix_is_still_an_error(self, tmp_path, capsys):
        """Regression: `sqlite:` must not bypass the existence check and
        silently create an empty database."""
        missing = tmp_path / "typo.sqlite"
        assert main(["export", "--db", f"sqlite:{missing}"]) == 2
        assert "no queue database" in capsys.readouterr().err
        assert not missing.exists()

    def test_sweep_csv_to_file(self, tmp_path, capsys):
        path = self._sweep_file(tmp_path)
        out_csv = tmp_path / "sweep.csv"
        assert main(["sweep", "--spec", str(path), "--csv", str(out_csv)]) == 0
        assert "wrote 4 result row(s)" in capsys.readouterr().out
        assert len(out_csv.read_text().strip().splitlines()) == 5

    def test_serve_subprocess_end_to_end(self, tmp_path):
        """The acceptance smoke: a real `serve` process, driven over HTTP."""
        import os
        import re
        import subprocess
        import sys

        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = f"{src}{os.pathsep}{env.get('PYTHONPATH', '')}"
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.experiments.cli", "serve",
             "--db", str(tmp_path / "queue.sqlite"), "--port", "0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            env=env,
            text=True,
        )
        try:
            line = process.stdout.readline()
            match = re.search(r"http://[\d.]+:\d+", line)
            assert match, f"serve did not announce its URL: {line!r}"
            url = match.group(0)
            path = self._sweep_file(tmp_path)
            argv = ["sweep", "--spec", str(path), "--broker", url, "--workers", "2"]
            assert main(argv) == 0
            assert main(["workers", "status", "--broker", url]) == 0
        finally:
            process.terminate()
            process.wait(timeout=10.0)


class TestMultijobCommand:
    def test_harness_returns_both_tables(self):
        from repro.experiments.multijob import run_multijob

        tables = run_multijob(ExperimentScale.SMOKE, seed=0, loads=[0.6, 1.2])
        assert set(tables) == {"schedulers", "load_curve"}
        schedulers = tables["schedulers"]
        assert [row.label for row in schedulers.rows] == [
            "fifo", "deadline_edf", "spec_budget",
        ]
        for row in schedulers.rows:
            assert 0.0 <= row.values["miss_rate"] <= 1.0
            assert 0.0 <= row.values["slot_utilization"] <= 1.0
        curve = tables["load_curve"]
        assert [row.values["load"] for row in curve.rows] == [0.6, 1.2]

    def test_load_normalization_scales_inter_arrival(self):
        from repro.experiments.multijob import inter_arrival_for_load

        slow = inter_arrival_for_load(0.5, "sort", 16)
        fast = inter_arrival_for_load(1.0, "sort", 16)
        assert slow == pytest.approx(2.0 * fast)
        with pytest.raises(ValueError):
            inter_arrival_for_load(0.0, "sort", 16)

    def test_cli_runs_multijob_end_to_end(self, capsys):
        code = main(
            ["multijob", "--scale", "smoke", "--arrival", "poisson",
             "--load", "0.8", "--scheduler", "deadline_edf", "--quiet"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "multijob-schedulers" in out
        assert "multijob-load-curve" in out
        assert "deadline_edf" in out
        assert "completed 2 tables" in out

    def test_cli_rejects_unknown_scheduler(self, capsys):
        code = main(["multijob", "--scale", "smoke", "--scheduler", "lottery", "--quiet"])
        assert code == 2
        assert "lottery" in capsys.readouterr().err

    def test_cli_sweep_accepts_cluster_spec(self, tmp_path, capsys):
        import json

        payload = {
            "base": {
                "kind": "cluster",
                "arrival": {
                    "kind": "poisson",
                    "params": {"benchmark": "sort", "num_jobs": 3, "inter_arrival": 60.0},
                },
                "strategy": "s-resume",
                "scheduler": "fifo",
                "cluster": {"num_nodes": 4, "slots_per_node": 4},
            },
            "grid": {"scheduler": ["fifo", "deadline_edf"]},
        }
        path = tmp_path / "cluster_sweep.json"
        path.write_text(json.dumps(payload))
        assert main(["sweep", "--spec", str(path), "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "cluster:poisson" in out
        assert "2 scenarios: 2 executed" in out


def _python(program: str) -> str:
    """The stdout of ``program`` run by a fresh interpreter on this source tree."""
    import os
    import subprocess
    import sys

    import repro

    src = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    child = subprocess.run(
        [sys.executable, "-c", program], capture_output=True, text=True, check=True, env=env
    )
    return child.stdout.strip()


class TestCliContract:
    """Exit code and first stderr line of every usage-error path."""

    NOT_A_DATABASE = "file is not a database"
    UNKNOWN_SCHEME = (
        "unknown queue target scheme 'redis' in 'redis://x'; valid targets are a sqlite "
        "path ('queue.sqlite' or 'sqlite:queue.sqlite'), an 'http://' or 'https://' "
        "sweep-service URL"
    )

    @pytest.mark.parametrize(
        "argv, first_line",
        [
            (["sweep"], "sweep requires --spec FILE (a sweep specification JSON)"),
            (["search"], "search requires --spec FILE (a search specification JSON)"),
            (
                ["search", "--spec", "{spec}"],
                "search requires --algorithm NAME (available: "
                "frontier_bisect, successive_halving)",
            ),
            (
                ["search", "--spec", "{spec}", "--seed", "1"],
                "search does not take --seed: put the seeds in 'axes' "
                "(\"seed\": [...]) or set the base spec's \"seed\"",
            ),
            (
                ["workers"],
                "workers requires an action: start, status, drain "
                "(e.g. 'chronos-experiments workers status --db queue.sqlite')",
            ),
            (
                ["workers", "status"],
                "workers requires --db FILE (queue database) or --broker URL (sweep service)",
            ),
            (
                ["trace"],
                "trace requires a fingerprint "
                "(e.g. 'chronos-experiments trace <fingerprint> --db queue.sqlite')",
            ),
            (
                ["trace", "abc"],
                "trace requires --db FILE (queue database) or --broker URL (sweep service)",
            ),
            (["serve"], "serve requires --db FILE (the queue database to serve)"),
            (["export"], "export requires --db FILE (the queue database to read)"),
            (
                ["metrics"],
                "metrics requires --broker URL (a running 'chronos-experiments serve' service)",
            ),
            (
                ["nope"],
                "unknown experiments: nope (available: figure2, table1, table2, "
                "figure3, figure4, figure5, all)",
            ),
            # A queue or cache file that is not a sqlite database is a
            # one-line diagnostic, not a sqlite3.DatabaseError traceback.
            (["sweep", "--spec", "{spec}", "--db", "{bad}"], f"sweep: {NOT_A_DATABASE}"),
            (["sweep", "--spec", "{spec}", "--cache-dir", "{cache}"], f"sweep: {NOT_A_DATABASE}"),
            (["export", "--db", "{bad}"], f"export: {NOT_A_DATABASE}"),
            (["workers", "status", "--db", "{bad}"], f"workers: {NOT_A_DATABASE}"),
            (["trace", "abc", "--db", "{bad}"], f"trace: {NOT_A_DATABASE}"),
            (["serve", "--db", "{bad}", "--port", "0"], f"serve: {NOT_A_DATABASE}"),
            # A --db no queue backend opens is rejected before anything
            # runs, with the same diagnostic for every command that sweeps.
            (["table1", "--scale", "smoke", "--db", "redis://x"], UNKNOWN_SCHEME),
            (["all", "--scale", "smoke", "--db", "redis://x"], UNKNOWN_SCHEME),
            (["sweep", "--spec", "{spec}", "--db", "redis://x"], f"sweep: {UNKNOWN_SCHEME}"),
            (["multijob", "--scale", "smoke", "--db", "redis://x"], f"multijob: {UNKNOWN_SCHEME}"),
        ],
    )
    def test_usage_error_exit_code_and_message(self, tmp_path, capsys, argv, first_line):
        import json

        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "base": {
                "workload": {"kind": "benchmark", "params": {"name": "sort", "num_jobs": 3}},
                "strategy": "s-resume",
                "cluster": {"num_nodes": 0},
            },
            "grid": {"seed": [0, 1]},
        }))
        bad = tmp_path / "queue.sqlite"
        bad.write_text("this is a text file, not a sqlite database\n" * 20)
        cache = tmp_path / "cache"
        cache.mkdir()
        (cache / "results.sqlite").write_text(bad.read_text())
        paths = {"{spec}": str(spec), "{bad}": str(bad), "{cache}": str(cache)}
        argv = [paths.get(arg, arg) for arg in argv] + ["--quiet"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.splitlines()[0] == first_line
        assert "Traceback" not in err

    def test_sqlite_only_commands_leave_the_service_layer_unloaded(self, tmp_path):
        """``sweep`` and ``search`` import the HTTP/TLS layer only for a --broker."""
        base = {
            "workload": {"kind": "benchmark", "params": {"name": "sort", "num_jobs": 3}},
            "strategy": "s-resume",
            "cluster": {"num_nodes": 0},
        }
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"base": base, "grid": {"strategy_params.fixed_r": [0, 1]}}))
        program = (
            "import sys; from repro.experiments.cli import main; "
            f"assert main(['sweep', '--spec', {str(spec)!r}, '--quiet']) == 0; "
            f"assert main(['search', '--spec', {str(spec)!r}, "
            "'--algorithm', 'successive_halving', '--quiet']) == 0; "
            "print(sorted({'repro.service', 'ssl'} & set(sys.modules)))"
        )
        assert _python(program).splitlines()[-1] == "[]"

    #: What each command that simulates nothing runs, after the set-up in
    #: ``test_commands_that_simulate_nothing_load_no_simulator``.
    NON_SIMULATING = {
        "import service": "import repro.service.server",
        "--list": "assert main(['--list']) == 0",
        "workers status": "assert main(['workers', 'status', '--db', db]) == 0",
        "trace": "assert main(['trace', 'abc', '--db', db]) == 1",
        "metrics": "assert main(['metrics', '--broker', url]) == 0",
        "serve": (
            "ServiceHTTPServer.serve_forever = lambda self, *args, **kwargs: None; "
            "assert main(['serve', '--db', db, '--port', '0']) == 0"
        ),
    }

    @pytest.mark.parametrize("command", sorted(NON_SIMULATING))
    def test_commands_that_simulate_nothing_load_no_simulator(self, tmp_path, command):
        """The service and the queue commands never load numpy or the simulator.

        ``metrics`` scrapes a service running in the same process, so the
        service's own imports count too.
        """
        db = str(tmp_path / "queue.sqlite")
        program = "\n".join([
            "import sys, threading",
            f"db = {db!r}",
            "from repro.experiments.cli import main",
            "from repro.service.server import ServiceHTTPServer, make_server",
            "server = make_server(db, port=0)",
            "threading.Thread(target=server.serve_forever, daemon=True).start()",
            "url = 'http://127.0.0.1:%d' % server.server_address[1]",
            self.NON_SIMULATING[command],
            "server.shutdown()",
            "server.server_close()",
            "print(sorted({'numpy', 'repro.api', 'repro.simulator'} & set(sys.modules)))",
        ])
        assert _python(program).splitlines()[-1] == "[]"

    def test_sweeps_import_nothing_once_the_layers_are_loaded(self, tmp_path):
        """With the api, cluster, distributed and client layers imported, no
        sweep backend imports a ``repro`` module while it runs: the lazy
        imports stay outside a sweep's timed window."""
        program = "\n".join([
            "import sys",
            "import repro.api, repro.cluster, repro.distributed, repro.service.client",
            "from repro.api import ScenarioSpec, WorkloadSpec, run_specs",
            "def loaded():",
            "    return {name for name in sys.modules if name.startswith('repro')}",
            "before = loaded()",
            "workload = WorkloadSpec('benchmark', {'name': 'sort', 'num_jobs': 3})",
            "specs = [ScenarioSpec(workload=workload, strategy='s-resume', seed=seed,",
            "                      cluster={'num_nodes': 0}) for seed in range(4)]",
            "run_specs(specs, executor='inline')",
            "run_specs(specs, jobs=2)",
            f"db = {str(tmp_path / 'q.sqlite')!r}",
            "run_specs(specs, executor='distributed', workers=2, db=db)",
            "print(sorted(loaded() - before))",
        ])
        assert _python(program).splitlines()[-1] == "[]"
