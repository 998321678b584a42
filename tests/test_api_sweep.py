"""Tests of Sweep expansion, the process-pool path and result caching."""

from __future__ import annotations

import json

import pytest

from repro.api import (
    ScenarioSpec,
    SpecValidationError,
    Sweep,
    WorkloadSpec,
    job_spec_to_dict,
    run_specs,
)
from repro.distributed import SqliteResultStore
from repro.simulator.entities import JobSpec


def _raise_like_spawn_worker(payload):
    """Stand-in pool worker: what a spawn child raises for a parent-only plugin."""
    raise SpecValidationError("strategy", "unknown strategy (not registered in this process)")


def _tiny_jobs(count: int = 3):
    return [
        JobSpec(job_id=f"j{i}", num_tasks=3, deadline=90.0, tmin=15.0, beta=1.5, submit_time=2.0 * i)
        for i in range(count)
    ]


@pytest.fixture
def base() -> ScenarioSpec:
    return ScenarioSpec(
        workload=WorkloadSpec("explicit", {"jobs": [job_spec_to_dict(j) for j in _tiny_jobs()]}),
        strategy="s-resume",
        strategy_params={"tau_est": 30.0, "tau_kill": 60.0, "fixed_r": 1},
        cluster={"num_nodes": 0},
    )


class TestSweepExpansion:
    def test_grid_is_cartesian_product(self, base):
        sweep = Sweep.grid(
            base, {"strategy": ["clone", "s-restart"], "seed": [0, 1], "estimator": ["hadoop"]}
        )
        assert len(sweep) == 4
        combos = {(spec.strategy, spec.seed, spec.estimator) for spec in sweep.specs}
        assert combos == {
            ("clone", 0, "hadoop"),
            ("clone", 1, "hadoop"),
            ("s-restart", 0, "hadoop"),
            ("s-restart", 1, "hadoop"),
        }

    def test_empty_grid_is_just_the_base(self, base):
        assert Sweep.grid(base, {}).specs == (base,)

    def test_bad_axis_rejected_eagerly(self, base):
        with pytest.raises(SpecValidationError):
            Sweep.grid(base, {"strategy": []})
        with pytest.raises(SpecValidationError):
            Sweep.grid(base, {"strategy": "clone"})  # a string is not an axis

    def test_bad_override_fails_before_running(self, base):
        with pytest.raises(SpecValidationError):
            Sweep(base, [{"strategy": "nonexistent"}])

    def test_non_mapping_grid_rejected(self, base):
        with pytest.raises(SpecValidationError, match="grid"):
            Sweep.grid(base, ["strategy"])

    def test_non_mapping_override_entry_rejected(self, base):
        with pytest.raises(SpecValidationError, match=r"overrides\[0\]"):
            Sweep(base, [3])

    def test_grid_overrides_expands_without_building_specs(self):
        combos = Sweep.grid_overrides({"a": [1, 2], "b": [3]})
        assert combos == [{"a": 1, "b": 3}, {"a": 2, "b": 3}]


class TestProcessPoolExecution:
    def test_sweep_of_eight_runs_through_the_pool(self, base):
        """Acceptance: >= 8 scenarios through the process-pool path."""
        sweep = Sweep.grid(
            base,
            {
                "strategy": ["hadoop-ns", "clone"],
                "seed": [0, 1],
                "strategy_params.theta": [1e-5, 1e-4],
            },
        )
        assert len(sweep) == 8
        outcome = sweep.run(jobs=2)
        assert outcome.executed == 8
        assert outcome.cache_hits == 0
        assert len(outcome.results) == 8
        for spec, result in zip(sweep.specs, outcome.results):
            assert result.fingerprint == spec.fingerprint()
            assert result.report.num_jobs == 3

    def test_pool_matches_inline_execution(self, base):
        sweep = Sweep.grid(base, {"strategy": ["hadoop-ns", "clone"]})
        inline = sweep.run(jobs=1)
        pooled = sweep.run(jobs=2)
        assert [r.report for r in inline.results] == [r.report for r in pooled.results]

    def test_duplicate_fingerprints_execute_once(self, base):
        outcome = run_specs([base, base, base], jobs=1)
        assert outcome.executed == 1
        assert len(outcome.results) == 3
        assert outcome.results[0].report == outcome.results[2].report

    def test_rejects_non_positive_jobs(self, base):
        with pytest.raises(ValueError):
            run_specs([base], jobs=0)

    def test_worker_validation_failure_falls_back_inline(self, base, monkeypatch):
        """A spec whose plugins only exist in the parent still completes.

        Simulates the spawn/forkserver situation where worker processes
        cannot resolve a parent-registered plugin: every pool task raises
        SpecValidationError, and run_specs must recover by executing the
        scenarios inline in the parent process.
        """
        import repro.api.sweep as sweep_module

        monkeypatch.setattr(sweep_module, "_execute_spec_payload", _raise_like_spawn_worker)
        specs = [base.with_overrides(seed=s) for s in (0, 1)]
        outcome = run_specs(specs, jobs=2)
        assert outcome.executed == 2
        assert all(result.report.num_jobs == 3 for result in outcome.results)


class TestCaching:
    def test_second_run_executes_zero_simulations(self, base):
        """Acceptance: a repeated sweep is answered entirely from the cache."""
        cache = SqliteResultStore(":memory:")
        sweep = Sweep.grid(base, {"strategy": ["hadoop-ns", "clone"], "seed": [0, 1]})
        first = sweep.run(cache=cache)
        assert first.executed == 4 and first.cache_hits == 0
        second = sweep.run(cache=cache)
        assert second.executed == 0 and second.cache_hits == 4
        assert [r.report for r in first.results] == [r.report for r in second.results]

    def test_disk_cache_survives_a_fresh_cache_object(self, base, tmp_path):
        sweep = Sweep.grid(base, {"seed": [0, 1]})
        with SqliteResultStore(tmp_path / "cache.sqlite") as cache:
            first = sweep.run(cache=cache)
        assert first.executed == 2
        # a brand-new store instance (think: a new process) reads the file
        with SqliteResultStore(tmp_path / "cache.sqlite") as cache:
            second = sweep.run(cache=cache)
        assert second.executed == 0 and second.cache_hits == 2
        assert [r.report for r in first.results] == [r.report for r in second.results]

    def test_completed_results_cached_before_a_later_failure(self, base):
        """A failing scenario must not discard work that already finished."""
        cache = SqliteResultStore(":memory:")
        # num_jobs=0 passes spec validation (it's just a workload param) but
        # fails when the workload is materialized at run time.
        bad = base.with_overrides(
            {"workload": {"kind": "benchmark", "params": {"name": "sort", "num_jobs": 0}}}
        )
        good = base.with_overrides(seed=5)
        with pytest.raises(SpecValidationError):
            run_specs([good, bad], cache=cache)
        assert good.fingerprint() in cache
        retry = run_specs([good], cache=cache)
        assert retry.executed == 0 and retry.cache_hits == 1

    def test_concurrent_writers_never_expose_partial_json(self, base, tmp_path):
        """Same-fingerprint writers on one file never hide a stored result.

        ``put`` upserts the row in one transaction, so once a fingerprint
        is stored, readers of the same file can never observe it missing
        or half-written (which ``get`` would report as a miss).
        """
        import threading

        path = tmp_path / "cache.sqlite"
        result = run_specs([base]).results[0]
        with SqliteResultStore(path) as store:
            store.put(result)  # fully present before the storm
        fingerprint = base.fingerprint()
        stop = threading.Event()
        misses = []

        def reader():
            while not stop.is_set():
                # a fresh store per read: no in-memory layer, file only
                with SqliteResultStore(path) as store:
                    if store.get(fingerprint) is None:
                        misses.append(1)

        def writer():
            with SqliteResultStore(path) as store:
                for _ in range(100):
                    store.put(result)

        readers = [threading.Thread(target=reader) for _ in range(2)]
        writers = [threading.Thread(target=writer) for _ in range(4)]
        for thread in readers + writers:
            thread.start()
        for thread in writers:
            thread.join()
        stop.set()
        for thread in readers:
            thread.join()
        assert not misses

    def test_cache_contains_and_len(self, base):
        cache = SqliteResultStore(":memory:")
        assert base.fingerprint() not in cache
        run_specs([base], cache=cache)
        assert base.fingerprint() in cache
        assert len(cache) == 1

    def test_batch_is_probed_with_one_get_many(self, base):
        """The sweep asks the cache once per batch, never per spec."""
        calls = []

        class CountingStore(SqliteResultStore):
            def get_many(self, fingerprints):
                fingerprints = list(fingerprints)
                calls.append(fingerprints)
                return super().get_many(fingerprints)

        specs = [base.with_overrides(seed=seed) for seed in (0, 1, 0)]
        with CountingStore(":memory:") as cache:
            run_specs(specs, cache=cache)
            assert calls == [[spec.fingerprint() for spec in specs]]
            again = run_specs(specs, cache=cache)
        assert again.executed == 0 and again.cache_hits == 3
        assert len(calls) == 2


class TestExports:
    def test_rows_csv_and_text(self, base):
        outcome = Sweep.grid(base, {"strategy": ["hadoop-ns", "clone"]}).run()
        rows = outcome.to_rows()
        assert [row["strategy"] for row in rows] == ["hadoop-ns", "clone"]
        assert all(0.0 <= row["pocd"] <= 1.0 for row in rows)
        csv_text = outcome.to_csv()
        assert csv_text.splitlines()[0].startswith("fingerprint,")
        assert len(csv_text.splitlines()) == 3
        text = outcome.to_text()
        assert "hadoop-ns" in text and "2 scenarios" in text

    def test_result_dicts_are_json_ready(self, base):
        outcome = run_specs([base])
        json.dumps(outcome.results[0].to_dict())  # must not raise
