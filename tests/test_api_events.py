"""Tests of the sweep event stream: parity, delivery, early stopping.

Covers the streaming acceptance criteria: the ordered
``ScenarioCompleted`` fingerprint set is identical across the
inline, pool, distributed and HTTP executors for the same sweep, events
arrive incrementally (the first event lands before the last scenario has
run), and stop conditions (plain callables) end sweeps early.
"""

from __future__ import annotations

import threading

import pytest

from repro.api import (
    ScenarioCacheHit,
    ScenarioCompleted,
    ScenarioQueued,
    ScenarioSpec,
    Sweep,
    SweepFinished,
    SweepStarted,
    WorkloadSpec,
    first_deadline_miss,
    job_spec_to_dict,
    max_failures,
    run_specs,
)
from repro.api.registry import WORKLOADS, register_workload
from repro.service import make_server
from repro.simulator.entities import JobSpec

COUNTING_WORKLOAD = "test-event-counting"


def _job_dicts(count: int = 3):
    return [
        job_spec_to_dict(
            JobSpec(
                job_id=f"j{i}", num_tasks=3, deadline=90.0, tmin=15.0, beta=1.5,
                submit_time=2.0 * i,
            )
        )
        for i in range(count)
    ]


@pytest.fixture
def base() -> ScenarioSpec:
    return ScenarioSpec(
        workload=WorkloadSpec("explicit", {"jobs": _job_dicts()}),
        strategy="s-resume",
        strategy_params={"tau_est": 30.0, "tau_kill": 60.0, "fixed_r": 1},
        cluster={"num_nodes": 0},
    )


@pytest.fixture
def sweep(base) -> Sweep:
    return Sweep.grid(base, {"strategy": ["hadoop-ns", "s-resume"], "seed": [0, 1]})


@pytest.fixture
def service(tmp_path):
    server = make_server(tmp_path / "queue.sqlite", host="127.0.0.1", port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5.0)


class TestEventParity:
    def _completed(self, events):
        return [e.fingerprint for e in events if isinstance(e, ScenarioCompleted)]

    def test_fingerprints_identical_across_all_executors(self, sweep, service, tmp_path):
        """Acceptance: inline == pool == distributed == HTTP, event-wise."""
        streams = {
            "inline": list(sweep.stream(executor="inline")),
            "pool": list(sweep.stream(executor="pool", workers=2)),
            "distributed": list(
                sweep.stream(executor="distributed", workers=2, db=tmp_path / "d.sqlite")
            ),
            "http": list(sweep.stream(executor="distributed", workers=2, broker=service)),
        }
        expected = [spec.fingerprint() for spec in sweep.specs]
        reference = sorted(expected)
        for name, events in streams.items():
            assert isinstance(events[0], SweepStarted), name
            assert isinstance(events[-1], SweepFinished), name
            assert events[-1].executed == len(sweep), name
            assert events[-1].cancelled is False and events[-1].stopped is False, name
            queued = [e.fingerprint for e in events if isinstance(e, ScenarioQueued)]
            assert queued == expected, name  # queue order is submission order
            completed = self._completed(events)
            assert sorted(completed) == reference, name
            # each completion carries the result it announces
            for event in events:
                if isinstance(event, ScenarioCompleted):
                    assert event.result.fingerprint == event.fingerprint, name

    def test_inline_completes_in_submission_order(self, sweep):
        events = list(sweep.stream(executor="inline"))
        assert self._completed(events) == [spec.fingerprint() for spec in sweep.specs]

    def test_cache_hits_stream_as_events(self, sweep, tmp_path):
        db = tmp_path / "q.sqlite"
        first = list(sweep.stream(executor="distributed", workers=2, db=db))
        assert len(self._completed(first)) == len(sweep)
        second = list(sweep.stream(executor="distributed", workers=2, db=db))
        hits = [e for e in second if isinstance(e, ScenarioCacheHit)]
        assert len(hits) == len(sweep)
        assert self._completed(second) == []
        assert second[-1].cache_hits == len(sweep) and second[-1].executed == 0


class TestIncrementalDelivery:
    @pytest.fixture
    def counting_workload(self):
        executed = []

        def build(seed, jobs):
            executed.append(seed)
            from repro.api.spec import job_spec_from_dict

            return [job_spec_from_dict(job) for job in jobs]

        register_workload(COUNTING_WORKLOAD, build)
        try:
            yield executed
        finally:
            WORKLOADS.unregister(COUNTING_WORKLOAD)

    def test_first_events_arrive_before_any_execution(self, counting_workload):
        """Acceptance: the stream is lazy — events precede the work."""
        base = ScenarioSpec(
            workload=WorkloadSpec(COUNTING_WORKLOAD, {"jobs": _job_dicts()}),
            strategy="s-resume",
            strategy_params={"tau_est": 30.0, "tau_kill": 60.0, "fixed_r": 1},
            cluster={"num_nodes": 0},
        )
        sweep = Sweep.grid(base, {"seed": [0, 1, 2]})
        stream = sweep.stream(executor="inline")
        first = next(stream)
        assert isinstance(first, SweepStarted)
        assert counting_workload == []  # nothing simulated yet
        completions = 0
        for event in stream:
            if isinstance(event, ScenarioCompleted):
                completions += 1
                # scenario i completes before scenario i+1 even starts
                assert len(counting_workload) == completions
        assert completions == 3


class TestStopConditions:
    def test_only_a_callable_is_accepted(self, base):
        for stop in ("max_failures", 3.14):
            with pytest.raises(ValueError, match="stop must be a callable"):
                run_specs([base], stop=stop)

    def test_max_failures_stops_early(self, base):
        bad = base.with_overrides(
            {"workload": {"kind": "benchmark", "params": {"name": "sort", "num_jobs": 0}}}
        )
        good = [base.with_overrides(seed=s) for s in (1, 2, 3)]
        outcome = run_specs([bad] + good, stop=max_failures(), on_failure="continue")
        assert outcome.stopped and outcome.partial
        assert outcome.failures == 1
        assert outcome.executed == 0  # stopped before any good scenario ran
        assert len(outcome.pending) == 4  # the failed one plus the unstarted three
        # without the stop condition the same sweep completes the good specs
        tolerant = run_specs([bad] + good, on_failure="continue")
        assert not tolerant.stopped
        assert tolerant.executed == 3 and tolerant.failures == 1
        assert len(tolerant.pending) == 1  # only the failed scenario

    def test_first_deadline_miss_stops_at_the_miss(self):
        impossible = [
            job_spec_to_dict(
                JobSpec(
                    job_id="j0", num_tasks=3, deadline=1.0, tmin=15.0, beta=1.5,
                    submit_time=0.0,
                )
            )
        ]
        missing = ScenarioSpec(
            workload=WorkloadSpec("explicit", {"jobs": impossible}),
            strategy="hadoop-ns",
            cluster={"num_nodes": 0},
        )
        followers = [missing.with_overrides(seed=s) for s in (1, 2)]
        outcome = run_specs([missing] + followers, stop=first_deadline_miss())
        assert outcome.stopped
        assert outcome.executed == 1 and len(outcome.pending) == 2
        assert outcome.results[0].report.pocd < 1.0

    def test_custom_callable_conditions(self, base, sweep):
        events_seen = []

        def after_two(event):
            events_seen.append(event)
            return sum(1 for e in events_seen if isinstance(e, ScenarioCompleted)) >= 2

        outcome = sweep.run(stop=after_two)
        assert outcome.stopped and outcome.executed == 2
        one_and_done = sweep.run(stop=lambda event: isinstance(event, ScenarioCompleted))
        assert one_and_done.stopped and one_and_done.executed == 1

    def test_stateful_conditions_do_not_leak_between_sweeps(self, base):
        bad = base.with_overrides(
            {"workload": {"kind": "benchmark", "params": {"name": "sort", "num_jobs": 0}}}
        )
        for _ in range(2):
            # a fresh max_failures counter each run: the second sweep must
            # also need its own failure before stopping, not stop instantly
            outcome = run_specs(
                [base.with_overrides(seed=7), bad],
                stop=max_failures(limit=1),
                on_failure="continue",
            )
            assert outcome.stopped and outcome.failures == 1
            assert outcome.executed == 1


class TestOnEvent:
    def test_run_specs_feeds_the_callback(self, base):
        seen = []
        run_specs([base], on_event=seen.append)
        kinds = [event.kind for event in seen]
        assert kinds[0] == "sweep-started" and kinds[-1] == "sweep-finished"
        assert "scenario-completed" in kinds
        # each call has its own callback; nothing carries over to the next
        run_specs([base.with_overrides(seed=5)])
        assert len(seen) == len(kinds)


class TestEventTailDegradation:
    def test_persistent_tail_failure_degrades_loudly(self, sweep, tmp_path, monkeypatch):
        """Losing the event log mid-sweep warns and falls back, never hangs."""
        from repro.distributed import executor as executor_module
        from repro.distributed.broker import Broker

        def boom(self, seq=0, limit=500, wait_s=0.0):
            raise RuntimeError("simulated events_since outage")

        monkeypatch.setattr(Broker, "events_since", boom)
        # short sweeps may settle before the real threshold accumulates;
        # a limit of 1 exercises the warn-and-degrade path deterministically
        monkeypatch.setattr(executor_module, "TAIL_FAILURE_LIMIT", 1)
        with pytest.warns(RuntimeWarning, match="disabling sweep event tailing"):
            outcome = run_specs(
                list(sweep.specs), executor="distributed", workers=2,
                db=tmp_path / "q.sqlite",
            )
        # the store-polling fallback still completed the whole sweep
        assert not outcome.partial and outcome.executed == len(sweep)

    def test_transient_tail_failure_does_not_warn(self, sweep, tmp_path, monkeypatch):
        """A blip below the threshold rides through on the store fallback."""
        from repro.distributed.broker import Broker

        real = Broker.events_since
        calls = {"n": 0}

        def flaky(self, seq=0, limit=500, wait_s=0.0):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("one-off blip")
            return real(self, seq, limit, wait_s)

        monkeypatch.setattr(Broker, "events_since", flaky)
        import warnings as warnings_module

        with warnings_module.catch_warnings():
            warnings_module.simplefilter("error", RuntimeWarning)
            outcome = run_specs(
                list(sweep.specs), executor="distributed", workers=2,
                db=tmp_path / "q.sqlite",
            )
        assert not outcome.partial and outcome.executed == len(sweep)
        assert calls["n"] >= 2  # tailing resumed after the blip
