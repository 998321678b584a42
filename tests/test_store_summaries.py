"""Tests of ``SqliteResultStore.summary_rows`` and ``export --columns``.

The result store keeps full ``ScenarioResult`` JSON blobs; a summary row
is always ``summary_row()`` of the parsed result, whoever wrote the row
(``put_payload`` or the broker's ``complete``), so ``export --columns``
prints the same cells as the full export.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sqlite3

import pytest

from repro.api import ScenarioSpec, SweepResult, WorkloadSpec, job_spec_to_dict, run, run_specs
from repro.distributed import Broker, SqliteResultStore
from repro.simulator.entities import JobSpec


def _spec(seed: int = 0) -> ScenarioSpec:
    jobs = [
        job_spec_to_dict(
            JobSpec(
                job_id=f"j{i}", num_tasks=3, deadline=90.0, tmin=15.0, beta=1.5,
                submit_time=2.0 * i,
            )
        )
        for i in range(3)
    ]
    return ScenarioSpec(
        workload=WorkloadSpec("explicit", {"jobs": jobs}),
        strategy="s-resume",
        strategy_params={"tau_est": 30.0, "tau_kill": 60.0, "fixed_r": 1},
        cluster={"num_nodes": 0},
        seed=seed,
    )


def _nan_spec() -> ScenarioSpec:
    """A run cut off before any job finishes: its ``mean_response_time`` is NaN."""
    return ScenarioSpec(
        workload=WorkloadSpec("benchmark", {"name": "sort", "num_jobs": 3}),
        strategy="s-resume",
        cluster={"num_nodes": 0},
        max_events=5,
    )


def _insert(store: SqliteResultStore, fingerprint: str, text: str) -> None:
    store._conn.execute(
        "INSERT INTO results (fingerprint, payload, created_at) VALUES (?, ?, 0.0)",
        (fingerprint, text),
    )
    store._conn.commit()


class TestSummaryRows:
    def test_matches_sweep_result_rows(self):
        """The store's rows equal SweepResult.to_rows of the same results."""
        outcome = run_specs([_spec()])
        with SqliteResultStore(":memory:") as store:
            store.put_payload(outcome.results[0].to_dict())
            assert store.summary_rows() == outcome.to_rows()

    def test_columns_are_the_sweep_result_columns(self):
        with SqliteResultStore(":memory:") as store:
            store.put(run(_spec()))
            (row,) = store.summary_rows()
        assert tuple(row) == SweepResult.COLUMNS

    def test_corrupt_payloads_are_skipped_not_an_error(self):
        with SqliteResultStore(":memory:") as store:
            for index, payload in enumerate(
                ({}, {"spec": {}, "report": {}}, {"spec": None, "report": None, "fingerprint": "f"})
            ):
                _insert(store, f"corrupt-{index}", json.dumps(payload))
            assert store.summary_rows() == []

    def test_infinite_utility_is_representable(self):
        result = run(_nan_spec())
        # no job finishes: PoCD at the SLA floor drives utility to -inf
        assert result.report.pocd == 0.0
        with SqliteResultStore(":memory:") as store:
            store.put_payload(result.to_dict())
            (row,) = store.summary_rows(["utility"])
        assert row["utility"] == -math.inf


class TestStoreSummaries:
    def test_put_payload_writes_the_summary_row(self, tmp_path):
        result = run(_spec())
        with SqliteResultStore(tmp_path / "q.sqlite") as store:
            store.put(result)
            rows = store.summary_rows()
            assert len(rows) == 1
            assert rows[0]["fingerprint"] == result.fingerprint
            assert rows[0]["strategy"] == "s-resume"
            assert rows[0]["pocd"] == result.report.pocd

    def test_broker_written_rows_are_summarized(self, tmp_path):
        """The broker's ``complete`` bypasses ``put_payload`` on purpose."""
        db = tmp_path / "q.sqlite"
        results = [run(_spec(seed)) for seed in (0, 1)]
        with Broker(db) as broker:
            broker.enqueue(
                [result.spec.to_dict() for result in results],
                [result.fingerprint for result in results],
            )
            for result in results:
                task = broker.claim("w-1")
                broker.complete(task.fingerprint, "w-1", result.to_dict())
        with SqliteResultStore(db) as store:
            rows = store.summary_rows(["fingerprint", "seed"])
        assert {row["fingerprint"] for row in rows} == {r.fingerprint for r in results}
        assert sorted(row["seed"] for row in rows) == [0, 1]

    def test_old_summaries_table_is_ignored(self, tmp_path):
        """Databases written before 7.0 keep their dead ``summaries`` table."""
        db = tmp_path / "q.sqlite"
        result = run(_spec())
        with SqliteResultStore(db) as store:
            store.put(result)
        with sqlite3.connect(str(db)) as conn:
            conn.execute("CREATE TABLE summaries (fingerprint TEXT PRIMARY KEY, pocd REAL)")
            conn.execute("INSERT INTO summaries VALUES ('stale', 0.5)")
        with SqliteResultStore(db) as store:
            assert store.summary_rows(["fingerprint"]) == [{"fingerprint": result.fingerprint}]
        with sqlite3.connect(str(db)) as conn:
            assert conn.execute("SELECT fingerprint FROM summaries").fetchall() == [("stale",)]

    def test_column_pushdown_validates_names(self, tmp_path):
        result = run(_spec())
        with SqliteResultStore(tmp_path / "q.sqlite") as store:
            store.put(result)
            assert store.summary_rows(["pocd"]) == [{"pocd": pytest.approx(result.report.pocd)}]
            with pytest.raises(ValueError, match="unknown summary column"):
                store.summary_rows(["pocd", "bogus"])
            with pytest.raises(ValueError, match="at least one"):
                store.summary_rows([])

    def test_corrupt_result_rows_are_skipped(self, tmp_path):
        db = tmp_path / "q.sqlite"
        with SqliteResultStore(db) as store:
            store.put(run(_spec()))
            _insert(store, "broken", "{not json")
            rows = store.summary_rows()
            assert len(rows) == 1  # the corrupt row has no summary


class TestExportColumnsCli:
    def test_export_columns_pushdown(self, tmp_path, capsys):
        from repro.experiments.cli import main

        db = tmp_path / "q.sqlite"
        with SqliteResultStore(db) as store:
            for seed in (0, 1):
                store.put(run(_spec(seed)))
        assert main(["export", "--db", str(db), "--columns", "fingerprint,seed,pocd"]) == 0
        out = capsys.readouterr().out
        header, *body = [line for line in out.splitlines() if line]
        assert header == "fingerprint,seed,pocd"
        assert len(body) == 2
        # unknown columns are an exit-2 diagnostic
        assert main(["export", "--db", str(db), "--columns", "nope"]) == 2
        assert "unknown summary column" in capsys.readouterr().err

    def test_export_columns_are_cut_from_the_full_export(self, tmp_path, capsys):
        """NaN cells included: ``--columns`` prints the full export's cells."""
        from repro.experiments.cli import main

        db = tmp_path / "q.sqlite"
        with SqliteResultStore(db) as store:
            store.put(run(_spec()))
            store.put(run(_nan_spec()))
        assert main(["export", "--db", str(db)]) == 0
        full = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        columns = ["fingerprint", "mean_response_time"]
        assert main(["export", "--db", str(db), "--columns", ",".join(columns)]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == ",".join(columns)
        selected = list(csv.DictReader(io.StringIO(out)))
        assert selected == [{column: row[column] for column in columns} for row in full]
        assert "nan" in {row["mean_response_time"] for row in selected}

    def test_export_reads_broker_written_rows(self, tmp_path, capsys):
        """Rows written by ``Broker.complete`` export without a prior sweep."""
        from repro.experiments.cli import main

        db = tmp_path / "q.sqlite"
        results = [run(_spec(seed)) for seed in (0, 1, 2)]
        with Broker(db) as broker:
            broker.enqueue(
                [result.spec.to_dict() for result in results],
                [result.fingerprint for result in results],
            )
            for result in results:
                task = broker.claim("w-1")
                broker.complete(task.fingerprint, "w-1", result.to_dict())

        assert main(["export", "--db", str(db), "--columns", "fingerprint,seed,pocd"]) == 0
        out = capsys.readouterr().out
        header, *body = [line for line in out.splitlines() if line]
        assert header == "fingerprint,seed,pocd"
        assert len(body) == 3
        assert {line.split(",")[0] for line in body} == {r.fingerprint for r in results}

    def test_export_columns_to_file(self, tmp_path, capsys):
        from repro.experiments.cli import main

        db = tmp_path / "q.sqlite"
        with SqliteResultStore(db) as store:
            store.put(run(_spec()))
        target = tmp_path / "out.csv"
        assert (
            main(["export", "--db", str(db), "--columns", "seed,utility", "--csv", str(target)])
            == 0
        )
        assert target.read_text().splitlines()[0] == "seed,utility"
        assert "wrote 1 result row(s)" in capsys.readouterr().out
