"""Tests of :mod:`repro.telemetry`: registry, profiler, spans, and the
instrumentation wired through the sweep/simulator/distributed stack.

The process-wide :data:`~repro.telemetry.REGISTRY` is shared state, so
tests assert on *deltas* of the metrics they exercise (or build a
private :class:`MetricsRegistry`) instead of assuming zero counters.
"""

from __future__ import annotations

import json
from typing import Optional

import pytest

from repro import telemetry
from repro.api import ScenarioSpec, WorkloadSpec, job_spec_to_dict, stream_specs
from repro.api.events import SweepFinished
from repro.simulator.entities import JobSpec
from repro.telemetry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Profiler,
    active_profiler,
    disable_profiling,
    enable_profiling,
    new_span_id,
    new_sweep_id,
    parse_span_detail,
    span_detail,
)


def _tiny_spec(seed: int = 0, fixed_r: Optional[int] = 1) -> ScenarioSpec:
    jobs = [
        job_spec_to_dict(
            JobSpec(
                job_id=f"j{i}", num_tasks=3, deadline=90.0, tmin=15.0, beta=1.5,
                submit_time=2.0 * i,
            )
        )
        for i in range(2)
    ]
    return ScenarioSpec(
        workload=WorkloadSpec("explicit", {"jobs": jobs}),
        strategy="s-resume",
        strategy_params={"tau_est": 30.0, "tau_kill": 60.0, "fixed_r": fixed_r},
        cluster={"num_nodes": 0},
        seed=seed,
    )


class TestCounter:
    def test_inc_and_value(self):
        registry = MetricsRegistry()
        counter = registry.counter("requests_total", "Requests")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_negative_increment_rejected(self):
        counter = MetricsRegistry().counter("x_total")
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_render_has_help_and_type(self):
        registry = MetricsRegistry()
        registry.counter("hits_total", "Cache hits").inc(4)
        text = registry.render()
        assert "# HELP hits_total Cache hits\n" in text
        assert "# TYPE hits_total counter\n" in text
        assert "hits_total 4\n" in text
        assert text.endswith("\n")


class TestGauge:
    def test_set_inc_dec(self):
        gauge = MetricsRegistry().gauge("depth")
        gauge.set(10)
        gauge.inc(2)
        gauge.dec(5)
        assert gauge.value == 7


class TestHistogram:
    def test_observe_counts_and_sum(self):
        registry = MetricsRegistry()
        hist = registry.histogram("latency_seconds", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 5.0):
            hist.observe(value)
        text = registry.render()
        assert 'latency_seconds_bucket{le="0.1"} 1\n' in text
        assert 'latency_seconds_bucket{le="1"} 2\n' in text  # cumulative
        assert 'latency_seconds_bucket{le="+Inf"} 3\n' in text
        assert "latency_seconds_count 3\n" in text
        snap = registry.snapshot()["latency_seconds"]
        assert snap["samples"][0]["count"] == 3
        assert snap["samples"][0]["sum"] == pytest.approx(5.55)

    def test_time_context_manager(self):
        hist = MetricsRegistry().histogram("op_seconds", buckets=(60.0,))
        with hist.time():
            pass
        assert hist.snapshot()["samples"][0]["count"] == 1

    def test_buckets_must_increase(self):
        with pytest.raises(ValueError):
            MetricsRegistry().histogram("bad_seconds", buckets=(1.0, 1.0))


class TestLabels:
    def test_labeled_children_render_sorted(self):
        registry = MetricsRegistry()
        counter = registry.counter("tasks_total", "Tasks", labelnames=("outcome",))
        counter.labels(outcome="ok").inc(2)
        counter.labels(outcome="failed").inc()
        text = registry.render()
        assert text.index('outcome="failed"') < text.index('outcome="ok"')
        assert 'tasks_total{outcome="ok"} 2\n' in text

    def test_parent_of_labeled_metric_rejects_direct_ops(self):
        counter = MetricsRegistry().counter("t_total", labelnames=("state",))
        with pytest.raises(ValueError):
            counter.inc()

    def test_wrong_label_names_rejected(self):
        counter = MetricsRegistry().counter("t_total", labelnames=("state",))
        with pytest.raises(ValueError):
            counter.labels(status="ok")

    def test_label_values_escaped(self):
        registry = MetricsRegistry()
        registry.gauge("g", labelnames=("path",)).labels(path='a"b\\c\nd').set(1)
        rendered = registry.render()
        assert '{path="a\\"b\\\\c\\nd"}' in rendered


class TestRegistry:
    def test_get_or_create_returns_same_metric(self):
        registry = MetricsRegistry()
        first = registry.counter("c_total", "help")
        assert registry.counter("c_total") is first

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("m_total")
        with pytest.raises(ValueError):
            registry.gauge("m_total")

    def test_invalid_name_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("bad-name")

    def test_snapshot_round_trips_as_json(self):
        registry = MetricsRegistry()
        registry.counter("a_total").inc()
        registry.histogram("b_seconds", buckets=(1.0,)).observe(0.5)
        assert json.loads(json.dumps(registry.snapshot()))["a_total"]["type"] == "counter"

    def test_unregister_and_clear(self):
        registry = MetricsRegistry()
        registry.counter("a_total")
        registry.counter("b_total")
        registry.unregister("a_total")
        assert registry.names() == ["b_total"]
        registry.clear()
        assert registry.names() == []


class TestProfiler:
    def test_phases_accumulate(self):
        profiler = Profiler()
        with profiler.phase("build"):
            pass
        with profiler.phase("build"):
            pass
        data = profiler.to_dict()
        assert data["phases"]["build"]["calls"] == 2
        assert data["phases"]["build"]["seconds"] >= 0.0

    def test_enable_disable_roundtrip(self):
        assert active_profiler() is None
        profiler = enable_profiling()
        try:
            assert active_profiler() is profiler
        finally:
            disable_profiling()
        assert active_profiler() is None

    def test_runner_records_phases_when_enabled(self):
        from repro.api import run
        from repro.strategies.base import _optimized_r_cached

        # Cold Algorithm 1 cache, no fixed_r: the two jobs share one
        # straggler model, so exactly one miss is timed as "optimize",
        # inside "simulate".
        _optimized_r_cached.cache_clear()
        profiler = enable_profiling()
        try:
            run(_tiny_spec(fixed_r=None))
        finally:
            disable_profiling()
        phases = profiler.to_dict()["phases"]
        assert {"build", "simulate", "report", "optimize"} <= set(phases)
        assert all(entry["calls"] == 1 for entry in phases.values())
        assert phases["optimize"]["seconds"] <= phases["simulate"]["seconds"]

    def test_runner_profiler_records_the_optimize_phase(self):
        """A profiler handed to ``SimulationRunner`` gets every phase of its
        run, Algorithm 1's ``optimize`` included, with none enabled
        process-wide."""
        from repro.simulator import ClusterConfig, SimulationRunner
        from repro.strategies.base import _optimized_r_cached

        _optimized_r_cached.cache_clear()
        spec = _tiny_spec(fixed_r=None)
        profiler = Profiler()
        assert active_profiler() is None
        runner = SimulationRunner(cluster=ClusterConfig(num_nodes=0), profiler=profiler)
        runner.run(spec.build_jobs(), spec.build_strategy())
        phases = profiler.to_dict()["phases"]
        assert set(phases) == {"build", "simulate", "report", "optimize"}
        assert phases["optimize"]["calls"] == 1
        assert phases["optimize"]["seconds"] <= phases["simulate"]["seconds"]
        # A warm cache times nothing: only misses are the optimize phase.
        profiler.reset()
        runner.run(spec.build_jobs(), spec.build_strategy())
        assert "optimize" not in profiler.to_dict()["phases"]

    def test_run_cluster_records_phases_when_enabled(self):
        from repro.cluster import ArrivalSpec, ClusterSpec, run_cluster
        from repro.strategies.base import _optimized_r_cached

        spec = ClusterSpec(
            arrival=ArrivalSpec(
                "poisson", {"benchmark": "sort", "num_jobs": 3, "inter_arrival": 60.0}
            ),
            strategy="s-resume",
            scheduler="fifo",
            cluster={"num_nodes": 4, "slots_per_node": 4},
        )
        _optimized_r_cached.cache_clear()
        profiler = enable_profiling()
        try:
            run_cluster(spec)
        finally:
            disable_profiling()
        phases = profiler.to_dict()["phases"]
        assert phases["build"]["calls"] == 1
        assert phases["simulate"]["calls"] == 1
        assert phases["optimize"]["calls"] >= 1
        assert phases["optimize"]["seconds"] <= phases["simulate"]["seconds"]

    def test_process_dump_path_puts_the_pid_before_the_suffix(self):
        from repro.telemetry.profiler import process_dump_path

        assert process_dump_path("/tmp/p/profile.json", pid=42) == "/tmp/p/profile.42.json"
        assert process_dump_path("prof", pid=7) == "prof.7"

    def test_each_fleet_worker_writes_its_own_profile(self, tmp_path):
        """A 2-worker sqlite sweep: the driver writes the path, each worker
        ``<stem>.<pid><suffix>``, and every scenario is profiled once."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        child = (
            "import json, os, sys\n"
            "from repro.api import ScenarioSpec, run_specs\n"
            "specs = [ScenarioSpec.from_dict(d) for d in json.loads(sys.argv[1])]\n"
            "outcome = run_specs(specs, executor='distributed', workers=2, db=sys.argv[2])\n"
            "assert outcome.executed == len(specs)\n"
            "print(os.getpid())\n"
        )
        specs = [_tiny_spec(seed).to_dict() for seed in range(8)]
        profile = tmp_path / "profile.json"
        env = dict(os.environ, CHRONOS_PROFILE=str(profile))
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        done = subprocess.run(
            [sys.executable, "-c", child, json.dumps(specs), str(tmp_path / "q.sqlite")],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        driver_pid = int(done.stdout.split()[-1])
        assert json.loads(profile.read_text())["phases"] == {}  # the driver ran nothing
        workers = sorted(tmp_path.glob("profile.*.json"))
        assert len(workers) == 2
        pids = {int(path.name.split(".")[1]) for path in workers}
        assert len(pids) == 2 and driver_pid not in pids
        builds = [json.loads(path.read_text())["phases"].get("build", {}) for path in workers]
        assert sum(phase.get("calls", 0) for phase in builds) == len(specs)


class TestSpans:
    def test_span_id_shape(self):
        assert new_span_id("x").startswith("x-")
        sweep_a, sweep_b = new_sweep_id(), new_sweep_id()
        assert sweep_a != sweep_b and sweep_a.startswith("sweep-")

    def test_span_detail_round_trip(self):
        detail = span_detail({"sweep_id": "sweep-abc"}, note="failed task reset")
        parsed = parse_span_detail(detail)
        assert parsed == {"sweep_id": "sweep-abc", "note": "failed task reset"}

    def test_plain_detail_passes_through(self):
        assert span_detail(None) is None
        assert span_detail(None, note="lease expired") == "lease expired"
        assert parse_span_detail("lease expired (attempt 2)") == {}
        assert parse_span_detail(None) == {}


class TestSweepInstrumentation:
    def test_stream_stamps_one_sweep_id_on_every_event(self, tmp_path):
        events = list(stream_specs([_tiny_spec(0), _tiny_spec(1)]))
        ids = {event.sweep_id for event in events}
        assert len(ids) == 1
        assert ids.pop().startswith("sweep-")

    def test_sweep_outcome_counters_and_gauges(self):
        executed = telemetry.counter("chronos_sweep_scenarios_total", labelnames=("outcome",))
        before = executed.labels(outcome="executed").value
        final = list(stream_specs([_tiny_spec(2)]))[-1]
        assert isinstance(final, SweepFinished) and final.executed == 1
        assert executed.labels(outcome="executed").value == before + 1
        assert telemetry.gauge("chronos_sweep_cache_hit_ratio").value == 0.0

    def test_scenario_wall_histogram_observes(self):
        hist = telemetry.REGISTRY.get("chronos_scenario_wall_seconds")
        before = hist.snapshot()["samples"][0]["count"]
        list(stream_specs([_tiny_spec(3)]))
        assert hist.snapshot()["samples"][0]["count"] == before + 1

    def test_engine_metrics_flushed(self):
        events_total = telemetry.counter("chronos_engine_events_total")
        before = events_total.value
        list(stream_specs([_tiny_spec(4)]))
        assert events_total.value > before


class TestBrokerTrace:
    def test_queued_row_carries_span_and_trace_reconstructs(self, tmp_path):
        from repro.distributed import Broker

        spec = _tiny_spec(5)
        fingerprint = spec.fingerprint()
        broker = Broker(tmp_path / "q.sqlite")
        try:
            broker.enqueue([spec.to_dict()], [fingerprint], span={"sweep_id": "sweep-feed00"})
            task = broker.claim("w1")
            assert task is not None
            broker.complete(fingerprint, "w1", {"ok": True})
            rows = broker.events_for(fingerprint)
        finally:
            broker.close()
        kinds = [row["kind"] for row in rows]
        assert kinds == ["queued", "started", "completed"]
        assert parse_span_detail(rows[0]["detail"])["sweep_id"] == "sweep-feed00"
        with pytest.raises(ValueError):
            broker.events_for(fingerprint, limit=0)

    def test_distributed_sweep_trace_carries_sweep_id(self, tmp_path):
        from repro.distributed import Broker

        db = tmp_path / "queue.sqlite"
        spec = _tiny_spec(6)
        events = list(
            stream_specs([spec], executor="distributed", workers=1, db=db)
        )
        sweep_id = events[0].sweep_id
        broker = Broker(db)
        try:
            rows = broker.events_for(spec.fingerprint())
        finally:
            broker.close()
        queued = [row for row in rows if row["kind"] == "queued"]
        assert queued and parse_span_detail(queued[0]["detail"])["sweep_id"] == sweep_id

    def test_telemetry_summary_counts_recent_activity(self, tmp_path):
        from repro.distributed import Broker

        spec = _tiny_spec(7)
        broker = Broker(tmp_path / "q.sqlite")
        try:
            broker.enqueue([spec.to_dict()], [spec.fingerprint()])
            broker.claim("w1")
            summary = broker.telemetry_summary()
            stats = broker.stats()
        finally:
            broker.close()
        assert summary["claims"] == 1
        assert summary["events_appended"] >= 2
        assert summary["claim_rate_per_s"] > 0
        assert stats["telemetry"]["claims"] == 1


class TestCliSurface:
    def test_format_trace_renders_span_and_worker(self):
        from repro.experiments.cli import format_trace

        rows = [
            {"seq": 1, "ts": 100.0, "kind": "queued", "fingerprint": "abc",
             "worker_id": None, "detail": span_detail({"sweep_id": "sweep-aa"})},
            {"seq": 2, "ts": 100.5, "kind": "started", "fingerprint": "abc",
             "worker_id": "w1", "detail": None},
            {"seq": 3, "ts": 101.0, "kind": "retried", "fingerprint": "abc",
             "worker_id": "w1", "detail": "lease expired (attempt 2)"},
        ]
        text = format_trace("abc", rows)
        assert "sweep=sweep-aa" in text
        assert "worker=w1" in text
        assert "lease expired (attempt 2)" in text
        assert "+   1.000s" in text
        assert format_trace("abc", []).startswith("no events")

    def test_trace_command_unknown_fingerprint_exits_1(self, tmp_path, capsys):
        from repro.distributed import Broker
        from repro.experiments import cli

        db = tmp_path / "q.sqlite"
        Broker(db).close()  # create an empty queue
        assert cli.main(["trace", "feedfacedead", "--db", str(db)]) == 1
        assert "no events recorded" in capsys.readouterr().out

    def test_trace_command_requires_target(self, capsys):
        from repro.experiments import cli

        assert cli.main(["trace", "abc"]) == 2
        assert "--db" in capsys.readouterr().err

    def test_metrics_command_requires_broker(self, capsys):
        from repro.experiments import cli

        assert cli.main(["metrics"]) == 2
        assert "--broker" in capsys.readouterr().err

    def test_worker_status_renders_telemetry_line(self):
        from repro.experiments.cli import format_worker_status

        stats = {
            "path": "q.sqlite",
            "tasks": {"pending": 0, "leased": 0, "done": 2, "failed": 0},
            "results": 2,
            "draining": False,
            "workers": [],
            "telemetry": {
                "window_s": 300.0,
                "claims": 4,
                "claim_rate_per_s": 0.013,
                "lease_expiries": 1,
                "events_appended": 12,
                "event_append_rate_per_s": 0.04,
            },
        }
        text = format_worker_status(stats)
        assert "telemetry (300s window)" in text
        assert "claims=4 (0.01/s)" in text
        assert "lease_expiries=1" in text
