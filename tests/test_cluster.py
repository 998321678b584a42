"""Tests of repro.cluster: specs, arrivals, scheduling, lifecycle, metrics.

Includes the reduction parity tests: a batch-arrival cluster with one
job must reproduce the single-job façade's report byte for byte, on the
inline, pool and distributed executors alike, and so must a trace-driven
stream of jobs under ``fifo`` on an unbounded cluster.
"""

from __future__ import annotations

import gc
import json

import pytest

from repro.api import (
    ScenarioSpec,
    SpecValidationError,
    Sweep,
    WorkloadSpec,
    execute,
    report_to_dict,
    result_from_dict,
    run,
    run_specs,
    spec_from_dict,
)
from repro.cluster import (
    ARRIVALS,
    SCHEDULERS,
    ArrivalSpec,
    ClusterResult,
    ClusterSimulation,
    ClusterSpec,
    JobState,
    build_arrivals,
    make_scheduler,
    queue_growth_rate,
    register_arrival,
    register_cluster_scheduler,
    run_cluster,
)
from repro.cluster.metrics import cluster_report_from_dict, cluster_report_to_dict
from repro.cluster.scheduling import ClusterScheduler, SpeculationBudgetScheduler
from repro.cluster.simulation import ClusterJob
from repro.distributed.store import SqliteResultStore
from repro.simulator.cluster import ClusterConfig
from repro.simulator.entities import AttemptStatus, JobSpec


def small_cluster_spec(**overrides) -> ClusterSpec:
    """A fast poisson-arrival cluster scenario for tests."""
    defaults = dict(
        arrival=ArrivalSpec(
            "poisson",
            {"benchmark": "sort", "num_jobs": 4, "inter_arrival": 60.0},
        ),
        strategy="s-resume",
        scheduler="fifo",
        cluster=ClusterConfig(num_nodes=4, slots_per_node=4),
        seed=0,
    )
    defaults.update(overrides)
    return ClusterSpec(**defaults)


# ----------------------------------------------------------------------
# Specs
# ----------------------------------------------------------------------
class TestClusterSpec:
    def test_round_trips_through_json(self):
        spec = small_cluster_spec(scheduler="deadline_edf", seed=3)
        assert ClusterSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec

    def test_to_dict_carries_kind_discriminator(self):
        data = small_cluster_spec().to_dict()
        assert data["kind"] == "cluster"
        assert list(data)[0] == "kind"

    def test_from_dict_requires_cluster_kind(self):
        data = small_cluster_spec().to_dict()
        data["kind"] = "scenario"
        with pytest.raises(SpecValidationError):
            ClusterSpec.from_dict(data)

    def test_fingerprint_stable_and_sensitive(self):
        spec = small_cluster_spec()
        assert spec.fingerprint() == small_cluster_spec().fingerprint()
        assert spec.fingerprint() != small_cluster_spec(seed=1).fingerprint()
        assert spec.fingerprint() != small_cluster_spec(scheduler="fair").fingerprint()

    def test_fingerprint_space_distinct_from_scenarios(self):
        # The "kind" key is hashed, so a cluster spec can never collide
        # with a single-job spec even under crafted field overlap.
        assert small_cluster_spec().to_dict()["kind"] == "cluster"

    def test_rejects_unknown_scheduler(self):
        with pytest.raises(SpecValidationError):
            small_cluster_spec(scheduler="lottery")

    def test_rejects_unknown_arrival(self):
        with pytest.raises(SpecValidationError):
            ArrivalSpec("bursty", {})

    def test_with_overrides_dotted_paths(self):
        spec = small_cluster_spec()
        varied = spec.with_overrides(
            {"scheduler": "deadline_edf", "arrival.params.num_jobs": 8, "seed": 5}
        )
        assert varied.scheduler == "deadline_edf"
        assert varied.arrival.params["num_jobs"] == 8
        assert varied.seed == 5
        assert spec.scheduler == "fifo"  # frozen original untouched

    def test_spec_from_dict_dispatches_on_kind(self):
        cluster = small_cluster_spec()
        assert spec_from_dict(cluster.to_dict()) == cluster
        scenario = ScenarioSpec(
            workload=WorkloadSpec("benchmark", {"name": "sort", "num_jobs": 2}),
            strategy="s-resume",
        )
        assert spec_from_dict(scenario.to_dict()) == scenario


# ----------------------------------------------------------------------
# Arrivals
# ----------------------------------------------------------------------
class TestArrivals:
    def test_registry_has_builtins(self):
        for name in ("batch", "poisson", "trace"):
            assert name in ARRIVALS

    def test_batch_pins_all_submit_times(self):
        jobs = build_arrivals(
            "batch",
            {"workload": {"kind": "benchmark", "params": {"name": "sort", "num_jobs": 3}}, "at": 7.0},
            seed=0,
        )
        assert len(jobs) == 3
        assert all(job.submit_time == 7.0 for job in jobs)

    def test_trace_preserves_workload_submit_times(self):
        jobs = build_arrivals(
            "trace",
            {
                "workload": {
                    "kind": "benchmark",
                    "params": {"name": "sort", "num_jobs": 5, "inter_arrival": 10.0},
                }
            },
            seed=0,
        )
        times = [job.submit_time for job in jobs]
        assert times == sorted(times)
        assert times[-1] > 0.0

    def test_poisson_is_seed_deterministic(self):
        params = {"benchmark": "sort", "num_jobs": 5, "rate": 0.05}
        first = build_arrivals("poisson", params, seed=4)
        again = build_arrivals("poisson", params, seed=4)
        other = build_arrivals("poisson", params, seed=5)
        assert [j.submit_time for j in first] == [j.submit_time for j in again]
        assert [j.submit_time for j in first] != [j.submit_time for j in other]

    def test_poisson_requires_exactly_one_rate_parameter(self):
        with pytest.raises(ValueError):
            build_arrivals("poisson", {"benchmark": "sort", "num_jobs": 2}, seed=0)
        with pytest.raises(ValueError):
            build_arrivals(
                "poisson",
                {"benchmark": "sort", "num_jobs": 2, "rate": 0.1, "inter_arrival": 10.0},
                seed=0,
            )

    def test_mixed_benchmark_round_robins(self):
        jobs = build_arrivals(
            "poisson", {"benchmark": "mixed", "num_jobs": 8, "inter_arrival": 5.0}, seed=0
        )
        prefixes = {job.job_id.rsplit("-", 1)[0] for job in jobs}
        assert prefixes == {"secondarysort", "sort", "terasort", "wordcount"}

    def test_custom_arrival_registers_and_runs(self):
        @register_arrival("two-jobs-test", overwrite=True)
        def two_jobs(*, seed=0):
            return [
                JobSpec(job_id="a", num_tasks=2, deadline=200.0, tmin=20.0, beta=1.4),
                JobSpec(job_id="b", num_tasks=2, deadline=200.0, tmin=20.0, beta=1.4, submit_time=5.0),
            ]

        spec = small_cluster_spec(arrival=ArrivalSpec("two-jobs-test", {}))
        result = run_cluster(spec)
        assert result.report.num_jobs == 2


# ----------------------------------------------------------------------
# Schedulers
# ----------------------------------------------------------------------
def _queued(*specs):
    return tuple(
        ClusterJob(spec=s, arrival_order=i, arrival_time=s.submit_time)
        for i, s in enumerate(specs)
    )


def _job(job_id, num_tasks=2, deadline=100.0, submit=0.0):
    return JobSpec(
        job_id=job_id, num_tasks=num_tasks, deadline=deadline, tmin=20.0, beta=1.4,
        submit_time=submit, workload=job_id.rsplit("-", 1)[0],
    )


class TestSchedulers:
    def test_registry_has_builtins(self):
        for name in ("fifo", "fair", "deadline_edf", "spec_budget"):
            assert name in SCHEDULERS

    def test_fifo_admits_in_arrival_order_until_full(self):
        scheduler = make_scheduler("fifo", {})
        queued = _queued(_job("a", 4), _job("b", 4), _job("c", 4))
        picks = scheduler.select(queued, (), free_slots=8, now=0.0)
        assert [job.spec.job_id for job in picks] == ["a", "b"]

    def test_fifo_head_of_line_blocks(self):
        scheduler = make_scheduler("fifo", {})
        queued = _queued(_job("big", 10), _job("small", 1))
        picks = scheduler.select(queued, (), free_slots=4, now=0.0)
        assert picks == []  # strict FIFO: nothing jumps the blocked head

    def test_unbounded_cluster_admits_everything(self):
        scheduler = make_scheduler("fifo", {})
        queued = _queued(_job("a", 50), _job("b", 50))
        picks = scheduler.select(queued, (), free_slots=None, now=0.0)
        assert len(picks) == 2

    def test_edf_orders_by_absolute_deadline(self):
        scheduler = make_scheduler("deadline_edf", {})
        late = _job("late", 2, deadline=500.0)
        soon = _job("soon", 2, deadline=50.0, submit=10.0)
        picks = scheduler.select(_queued(late, soon), (), free_slots=2, now=10.0)
        assert [job.spec.job_id for job in picks] == ["soon"]

    def test_fair_share_prefers_underserved_workload(self):
        scheduler = make_scheduler("fair", {})
        running = _queued(_job("sort-0"), _job("sort-1"))
        for job in running:
            job.state = JobState.RUNNING
        queued = _queued(_job("sort-2", 2), _job("wordcount-0", 2))
        picks = scheduler.select(queued, running, free_slots=2, now=0.0)
        assert picks[0].spec.job_id == "wordcount-0"

    def test_spec_budget_caps_and_releases(self):
        scheduler = SpeculationBudgetScheduler(budget_fraction=0.25)
        scheduler.bind_capacity(16)  # -> 4 speculative slots
        assert scheduler.acquire("j1", 3, num_tasks=8) == 3
        assert scheduler.acquire("j2", 3, num_tasks=8) == 1  # only 1 left
        assert scheduler.acquire("j3", 2, num_tasks=8) == 0
        done = ClusterJob(spec=_job("j1"), arrival_order=0)
        scheduler.on_job_finished(done)
        assert scheduler.acquire("j4", 2, num_tasks=8) == 2

    def test_make_scheduler_rejects_unknown_params(self):
        with pytest.raises(ValueError):
            make_scheduler("spec_budget", {"no_such_param": 1})

    def test_custom_scheduler_registers_and_runs(self):
        @register_cluster_scheduler("lifo-test", overwrite=True)
        class LifoScheduler(ClusterScheduler):
            name = "lifo-test"

            def order(self, queued, now):
                return sorted(queued, key=lambda job: -job.arrival_order)

        SCHEDULERS.get("lifo-test")  # registered under the custom name
        spec = small_cluster_spec()
        object.__setattr__(spec, "scheduler", "lifo-test")
        result = run_cluster(spec)
        assert result.report.scheduler == "lifo-test"


# ----------------------------------------------------------------------
# Lifecycle state machine
# ----------------------------------------------------------------------
class TestLifecycle:
    def test_legal_path_stamps_times(self):
        job = ClusterJob(spec=_job("a"), arrival_order=0, arrival_time=1.0)
        job.transition(JobState.ADMITTED, 2.0)
        job.transition(JobState.RUNNING, 2.0)
        job.transition(JobState.COMPLETED, 9.0)
        assert (job.admit_time, job.start_time, job.finish_time) == (2.0, 2.0, 9.0)
        assert job.finished

    def test_illegal_transition_raises(self):
        job = ClusterJob(spec=_job("a"), arrival_order=0)
        with pytest.raises(RuntimeError):
            job.transition(JobState.RUNNING, 0.0)  # must be admitted first
        job.transition(JobState.ADMITTED, 0.0)
        job.transition(JobState.RUNNING, 0.0)
        job.transition(JobState.MISSED, 5.0)
        with pytest.raises(RuntimeError):
            job.transition(JobState.COMPLETED, 6.0)  # terminal states are final

    def test_all_jobs_reach_terminal_states(self):
        simulation = ClusterSimulation(small_cluster_spec())
        simulation.run()
        states = [job.state.value for job in simulation.jobs]
        assert set(states) <= {"completed", "missed"}
        assert len(states) == 4

    def test_max_events_safety_net_records_unfinished(self):
        result = run_cluster(small_cluster_spec(max_events=10))
        assert result.report.num_jobs == 4  # nothing silently dropped
        assert result.report.miss_rate == 1.0


class TestTeardown:
    """A finished cluster run frees its object graph by reference counting."""

    @pytest.mark.parametrize("max_events", [None, 2000])
    @pytest.mark.parametrize("strategy", ["clone", "s-resume"])
    @pytest.mark.parametrize("scheduler", ["fifo", "deadline_edf", "spec_budget"])
    def test_run_cluster_leaves_no_cyclic_garbage(self, scheduler, strategy, max_events):
        # The shape of the benchmark's cluster grid: 200 contended jobs.
        # Before the teardown, each run left about 12.4k objects in cycles.
        # A run cut short by max_events leaves pending events, queued
        # container requests and running attempts behind (about 4.4k
        # objects before those were dropped too).
        spec = small_cluster_spec(
            arrival=ArrivalSpec(
                "poisson", {"benchmark": "sort", "num_jobs": 200, "inter_arrival": 8.0}
            ),
            strategy=strategy,
            scheduler=scheduler,
            cluster=ClusterConfig(num_nodes=8, slots_per_node=4),
            max_events=max_events,
        )
        run_cluster(spec)  # warm process-wide caches (Algorithm 1, registries)
        gc.collect()
        gc.disable()
        try:
            run_cluster(spec)
            garbage = gc.collect()
        finally:
            gc.enable()
        assert garbage < 100

    def test_simulation_object_keeps_its_graph_until_released(self):
        simulation = ClusterSimulation(small_cluster_spec())
        simulation.run()
        master = simulation.jobs[0].master
        tasks = list(master.job.tasks)
        assert len(tasks) == master.job.spec.num_tasks
        assert all(task.attempts for task in tasks)
        master.release()
        assert master.job.tasks == []
        assert all(task.attempts == [] for task in tasks)


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
class TestMetrics:
    def test_queue_growth_rate_slope(self):
        growing = [(float(t), t) for t in range(10)]
        assert queue_growth_rate(growing) == pytest.approx(1.0)
        flat = [(float(t), 3) for t in range(10)]
        assert queue_growth_rate(flat) == pytest.approx(0.0)
        assert queue_growth_rate([(0.0, 1)]) == 0.0

    def test_report_round_trips(self):
        report = run_cluster(small_cluster_spec()).report
        clone = cluster_report_from_dict(cluster_report_to_dict(report))
        assert cluster_report_to_dict(clone) == cluster_report_to_dict(report)

    def test_aggregates_are_consistent(self):
        report = run_cluster(small_cluster_spec()).report
        assert 0.0 <= report.miss_rate <= 1.0
        assert report.miss_rate == pytest.approx(1.0 - report.pocd)
        assert 0.0 <= report.slot_utilization <= 1.0
        assert report.mean_sojourn_s >= report.mean_queue_wait_s >= 0.0
        assert report.makespan_s > 0.0

    def test_summary_row_matches_single_job_columns(self):
        result = run_cluster(small_cluster_spec())
        row = result.summary_row()
        assert row["workload"] == "cluster:poisson"
        assert row["strategy"] == "fifo"
        single = run(
            ScenarioSpec(
            workload=WorkloadSpec("benchmark", {"name": "sort", "num_jobs": 2}),
            strategy="s-resume",
        )
        )
        assert set(row) == set(single.summary_row())


# ----------------------------------------------------------------------
# Reduction parity: cluster == façade
# ----------------------------------------------------------------------
def _parity_pair(seed=3, workload=None, strategy="s-resume", arrival="batch", **shared):
    """A scenario and the ``fifo`` cluster run of the same workload.

    ``shared`` holds the fields both specs take (``cluster``,
    ``max_events``)."""
    workload = workload or {"kind": "benchmark", "params": {"name": "sort", "num_jobs": 1}}
    scenario = ScenarioSpec(
        workload=WorkloadSpec(**workload), strategy=strategy, seed=seed, **shared
    )
    cluster = ClusterSpec(
        arrival=ArrivalSpec(arrival, {"workload": workload}),
        strategy=strategy,
        scheduler="fifo",
        seed=seed,
        **shared,
    )
    return scenario, cluster


class TestSingleJobParity:
    def test_batch_single_job_matches_facade_byte_identically(self):
        scenario, cluster = _parity_pair()
        single = report_to_dict(run(scenario).report)
        embedded = report_to_dict(run_cluster(cluster).report.simulation)
        assert embedded == single

    @pytest.mark.parametrize("executor", ["inline", "pool", "distributed"])
    def test_parity_holds_on_every_executor(self, executor, tmp_path):
        scenario, cluster = _parity_pair(seed=7)
        kwargs = {"executor": executor}
        if executor == "pool":
            kwargs["jobs"] = 2
        if executor == "distributed":
            kwargs.update(workers=2, db=str(tmp_path / "queue.sqlite"))
        sweep = run_specs([cluster], **kwargs)
        embedded = report_to_dict(sweep.results[0].report.simulation)
        assert embedded == report_to_dict(run(scenario).report)

    @pytest.mark.parametrize(
        "workload,strategy,seed,max_events",
        [
            ({"kind": "google-trace", "params": {"num_jobs": 30}}, "s-restart", 0, None),
            ({"kind": "google-trace", "params": {"num_jobs": 30}}, "mantri", 3, None),
            ({"kind": "mixed", "params": {"num_jobs_per_benchmark": 5}}, "clone", 3, None),
            ({"kind": "mixed", "params": {"num_jobs_per_benchmark": 5}}, "hadoop-s", 0, None),
            ({"kind": "google-trace", "params": {"num_jobs": 30}}, "s-resume", 3, 400),
        ],
        ids=["trace-s-restart", "trace-mantri", "mixed-clone", "mixed-hadoop-s", "capped"],
    )
    def test_trace_stream_on_unbounded_fifo_matches_facade(
        self, workload, strategy, seed, max_events
    ):
        """Trace arrivals under ``fifo`` on an unbounded cluster admit every
        job at its arrival, so a multi-job stream, cut short or not, runs
        exactly as the single-job façade runs it."""
        scenario, cluster = _parity_pair(
            seed, workload, strategy, "trace", cluster={"num_nodes": 0}, max_events=max_events
        )
        single = report_to_dict(run(scenario).report)
        embedded = report_to_dict(run_cluster(cluster).report.simulation)
        assert embedded == single
        assert len(single["job_records"]) > 1
        if max_events is not None:
            assert any(record["completion_time"] is None for record in single["job_records"])


class TestEngineTelemetry:
    """A cluster run flushes the engine totals into ``/metrics``."""

    def test_run_cluster_moves_the_engine_counters(self):
        from repro import telemetry

        counters = [
            telemetry.counter("chronos_engine_events_total"),
            telemetry.counter("chronos_speculative_copies_launched_total"),
            telemetry.counter("chronos_speculative_copies_killed_total"),
        ]
        wall = telemetry.REGISTRY.get("chronos_scenario_wall_seconds")

        def totals():
            count = wall.snapshot()["samples"][0]["count"]
            return [counter.value for counter in counters] + [count]

        scenario, cluster = _parity_pair(
            0,
            {"kind": "benchmark", "params": {"name": "sort", "num_jobs": 5}},
            "clone",
            "trace",
            cluster={"num_nodes": 0},
        )
        # The attempt walk needs the masters' graphs, which a
        # ClusterSimulation driven directly keeps.
        walked = ClusterSimulation(cluster)
        walked.run()
        attempts = [
            attempt
            for job in walked.jobs
            for task in job.master.job.tasks
            for attempt in task.attempts
        ]
        killed = sum(
            1
            for attempt in attempts
            if not attempt.is_original and attempt.status is AttemptStatus.KILLED
        )

        before = totals()
        result = run_cluster(cluster)
        middle = totals()
        run(scenario)
        after = totals()
        moved = [b - a for a, b in zip(before, middle)]
        events, launched, killed_total, walls = moved
        records = result.report.simulation.job_records
        assert events > 0
        assert launched == sum(record.num_speculative_attempts for record in records) > 0
        assert killed_total == killed > 0
        assert walls == 1
        # The same stream run as a scenario moves them by the same amounts.
        assert [b - a for a, b in zip(middle, after)] == moved


# ----------------------------------------------------------------------
# Sweep / façade integration
# ----------------------------------------------------------------------
class TestSweepIntegration:
    def test_execute_dispatches_on_spec_kind(self):
        cluster = small_cluster_spec()
        assert isinstance(execute(cluster), ClusterResult)
        result = execute(cluster)
        assert result_from_dict(result.to_dict()).to_dict() == result.to_dict()

    def test_grid_sweep_over_schedulers(self):
        sweep = Sweep.grid(
            small_cluster_spec(), {"scheduler": ["fifo", "deadline_edf"], "seed": [0, 1]}
        )
        result = sweep.run()
        assert len(result.results) == 4
        rows = result.to_rows()
        assert {row["strategy"] for row in rows} == {"fifo", "deadline_edf"}
        assert all(row["workload"] == "cluster:poisson" for row in rows)

    def test_cache_yields_zero_execution_rerun(self, tmp_path):
        from repro.distributed import SqliteResultStore

        cache = SqliteResultStore(tmp_path / "cache.sqlite")
        sweep = Sweep.grid(small_cluster_spec(), {"seed": [0, 1]})
        first = sweep.run(cache=cache)
        assert first.executed == 2
        again = sweep.run(cache=cache)
        assert again.executed == 0
        assert again.cache_hits == 2
        assert [r.fingerprint for r in again.results] == [
            r.fingerprint for r in first.results
        ]

    def test_sweep_rejects_non_spec_base(self):
        with pytest.raises(SpecValidationError):
            Sweep({"not": "a spec"})

    def test_store_summary_for_cluster_payload(self):
        payload = run_cluster(small_cluster_spec()).to_dict()
        with SqliteResultStore(":memory:") as store:
            store.put_payload(payload)
            (row,) = store.summary_rows()
        assert row["workload"] == "cluster:poisson"
        assert row["strategy"] == "fifo"
        assert row["num_jobs"] == 4

    def test_store_summary_tolerates_malformed_payload(self):
        with SqliteResultStore(":memory:") as store:
            store.put_payload({"spec": {"kind": "cluster"}}, fingerprint="malformed")
            assert store.summary_rows() == []


# ----------------------------------------------------------------------
# Adaptive search integration
# ----------------------------------------------------------------------
class TestAdaptiveIntegration:
    def test_search_over_cluster_spec_with_miss_rate(self):
        from repro.adaptive import run_search

        result = run_search(
            small_cluster_spec(),
            {"scheduler": ["fifo", "deadline_edf"], "seed": [0, 1]},
            algorithm="successive_halving",
            objective="miss_rate",
            max_trials=4,
        )
        assert result.best is not None
        assert 0.0 <= result.best.objective <= 1.0

    def test_cluster_objectives_fall_back_on_scenario_results(self):
        from repro.adaptive.objectives import make_objective

        single = run(
            ScenarioSpec(
            workload=WorkloadSpec("benchmark", {"name": "sort", "num_jobs": 2}),
            strategy="s-resume",
        )
        )
        miss = make_objective("miss_rate").value(single)
        assert miss == pytest.approx(1.0 - single.report.pocd)
        sojourn = make_objective("sojourn").value(single)
        assert sojourn == pytest.approx(single.report.mean_response_time)
