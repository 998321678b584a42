"""End-to-end tests of the distributed sweep executor.

Covers the acceptance scenario of the subsystem: a ≥12-scenario grid run
with ``executor="distributed"`` and 3 workers matches the inline
executor fingerprint-for-fingerprint, survives a worker being SIGKILLed
mid-task (lease requeue), and an identical second run is answered
entirely from the sqlite result store with zero scenario executions.
The driver builds each result from the spec it enqueued, so a stored
payload of another spec is never reported as this one's result.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import sqlite3
import threading
import time

import pytest

from repro.api import (
    ScenarioCacheHit,
    ScenarioCompleted,
    ScenarioRetried,
    ScenarioSpec,
    Sweep,
    SweepFinished,
    WorkloadSpec,
    job_spec_to_dict,
    run,
    run_specs,
    stream_specs,
)
from repro.api.registry import WORKLOADS, register_workload
from repro.distributed import Broker, SqliteResultStore, TaskFailedError, execute_stream
from repro.simulator.entities import JobSpec

SLOW_WORKLOAD = "test-slow-explicit"


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
def slow_workload():
    """An explicit workload whose build sleeps, so tasks hold leases a while."""

    def build(seed, jobs, delay_s=0.4):
        time.sleep(delay_s)
        from repro.api.spec import job_spec_from_dict

        return [job_spec_from_dict(job) for job in jobs]

    register_workload(SLOW_WORKLOAD, build)
    try:
        yield SLOW_WORKLOAD
    finally:
        WORKLOADS.unregister(SLOW_WORKLOAD)


@pytest.fixture
def base() -> ScenarioSpec:
    return ScenarioSpec(
        workload=WorkloadSpec("explicit", {"jobs": _job_dicts()}),
        strategy="s-resume",
        strategy_params={"tau_est": 30.0, "tau_kill": 60.0, "fixed_r": 1},
        cluster={"num_nodes": 0},
    )


def twelve_scenario_sweep(base: ScenarioSpec) -> Sweep:
    sweep = Sweep.grid(
        base,
        {
            "strategy": ["hadoop-ns", "s-resume"],
            "seed": [0, 1, 2],
            "strategy_params.theta": [1e-5, 1e-4],
        },
    )
    assert len(sweep) == 12
    return sweep


class TestDistributedMatchesInline:
    def test_twelve_scenarios_three_workers_byte_identical(self, base, tmp_path):
        """Acceptance: distributed == inline, and the re-run executes nothing."""
        sweep = twelve_scenario_sweep(base)
        db = tmp_path / "queue.sqlite"

        inline = sweep.run(executor="inline")
        distributed = sweep.run(executor="distributed", workers=3, db=db)
        assert distributed.executed == 12 and distributed.cache_hits == 0
        assert [r.fingerprint for r in distributed.results] == [
            r.fingerprint for r in inline.results
        ]
        assert [r.report for r in distributed.results] == [r.report for r in inline.results]

        # identical re-run: answered entirely by the SqliteResultStore
        rerun = sweep.run(executor="distributed", workers=3, db=db)
        assert rerun.executed == 0 and rerun.cache_hits == 12
        assert [r.fingerprint for r in rerun.results] == [r.fingerprint for r in inline.results]

    def test_pool_runs_under_the_spawn_start_method(self):
        """worker_main's arguments pickle: a spawned fleet runs every scenario."""
        import subprocess
        import sys
        from pathlib import Path

        script = (
            "import multiprocessing\n"
            "from repro.api import ScenarioSpec, WorkloadSpec, run_specs\n"
            "if __name__ == '__main__':\n"
            "    multiprocessing.set_start_method('spawn')\n"
            "    specs = [\n"
            "        ScenarioSpec(\n"
            "            workload=WorkloadSpec('benchmark', {'name': 'sort', 'num_jobs': 3}),\n"
            "            strategy='s-resume', cluster={'num_nodes': 0}, seed=seed,\n"
            "        )\n"
            "        for seed in range(4)\n"
            "    ]\n"
            "    outcome = run_specs(specs, executor='pool', jobs=2, lease_timeout=5)\n"
            "    assert [r.fingerprint for r in outcome.results] == [\n"
            "        s.fingerprint() for s in specs\n"
            "    ]\n"
            "    print('executed', outcome.executed)\n"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = f"{src}{os.pathsep}{env.get('PYTHONPATH', '')}"
        done = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "executed 4"
        assert "distributed sweep stalled" not in done.stderr

    def test_duplicate_fingerprints_execute_once(self, base, tmp_path):
        outcome = run_specs(
            [base, base, base], executor="distributed", workers=2, db=tmp_path / "q.sqlite"
        )
        assert outcome.executed == 1
        assert len(outcome.results) == 3
        assert outcome.results[0].report == outcome.results[2].report

    def test_throwaway_database_by_default(self, base):
        outcome = run_specs([base], executor="distributed", workers=1)
        assert outcome.executed == 1

    def test_external_cache_still_consulted(self, base, tmp_path):
        from repro.distributed import SqliteResultStore

        cache = SqliteResultStore(":memory:")
        first = run_specs([base], executor="distributed", workers=1, cache=cache)
        assert first.executed == 1
        second = run_specs(
            [base], executor="distributed", workers=1, db=tmp_path / "q.sqlite", cache=cache
        )
        assert second.executed == 0 and second.cache_hits == 1


@pytest.fixture
def service_url(tmp_path):
    """An HTTP sweep service on an ephemeral port, serving a fresh queue."""
    from repro.service import make_server

    server = make_server(tmp_path / "service.sqlite", host="127.0.0.1", port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5.0)


class TestResultsFromHeldSpecs:
    def test_cached_payload_of_another_spec_is_not_a_hit(self, base, tmp_path):
        db = tmp_path / "q.sqlite"
        other = run(base.with_overrides({"seed": 99}))
        with SqliteResultStore(db):
            pass  # creates the schema
        with sqlite3.connect(str(db)) as conn:
            conn.execute(
                "INSERT INTO results (fingerprint, payload, created_at) VALUES (?, ?, 0)",
                (base.fingerprint(), json.dumps(other.to_dict())),
            )
        events = list(execute_stream([(base.fingerprint(), base, 0)], workers=1, db=db))
        assert not [event for event in events if isinstance(event, ScenarioCacheHit)]
        (completed,) = [event for event in events if isinstance(event, ScenarioCompleted)]
        assert completed.result.spec is base
        assert completed.result.report == run(base).report != other.report

    def test_completion_of_another_spec_is_not_yielded(self, base, service_url):
        """A worker committing the wrong payload does not complete the scenario."""
        from repro.service import HttpBroker

        other = run(base.with_overrides({"seed": 99}))

        def wrong_worker():
            broker = HttpBroker(service_url)
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                tasks = broker.claim_many("w-wrong", 1)
                if tasks:
                    broker.complete_many("w-wrong", [(tasks[0].fingerprint, other.to_dict())])
                    return
                time.sleep(0.01)

        thread = threading.Thread(target=wrong_worker)
        thread.start()
        try:
            events = list(
                execute_stream([(base.fingerprint(), base, 0)], broker=service_url, workers=None)
            )
        finally:
            thread.join()
        assert not [
            event for event in events if isinstance(event, (ScenarioCompleted, ScenarioCacheHit))
        ]

    def test_cached_payloads_are_read_result_batch_at_a_time(
        self, base, tmp_path, monkeypatch
    ):
        from repro.distributed.store import RESULT_BATCH

        db = tmp_path / "q.sqlite"
        specs = [base.with_overrides({"seed": seed}) for seed in range(2 * RESULT_BATCH + 2)]
        with SqliteResultStore(db) as store:
            for spec in specs:
                store.put(run(spec))
        asked = []
        real_read = SqliteResultStore.get_payload_many

        def recording_read(self, fingerprints):
            fingerprints = list(fingerprints)
            asked.append(len(fingerprints))
            return real_read(self, fingerprints)

        monkeypatch.setattr(SqliteResultStore, "get_payload_many", recording_read)
        todo = [(spec.fingerprint(), spec, index) for index, spec in enumerate(specs)]
        events = list(execute_stream(todo, workers=1, db=db))
        assert [type(event) for event in events] == [ScenarioCacheHit] * len(specs)
        assert [event.result.spec for event in events] == specs
        assert asked == [RESULT_BATCH, RESULT_BATCH, 2]

    @pytest.mark.parametrize("target", ["sqlite", "http"])
    def test_cluster_sweep_summary_rows_match_inline(self, target, tmp_path, request):
        from repro.cluster import ArrivalSpec, ClusterResult, ClusterSpec

        sweep = Sweep.grid(
            ClusterSpec(
                arrival=ArrivalSpec(
                    "poisson", {"benchmark": "sort", "num_jobs": 4, "inter_arrival": 60.0}
                ),
                strategy="s-resume",
                scheduler="fifo",
                cluster={"num_nodes": 4, "slots_per_node": 4},
            ),
            {"scheduler": ["fifo", "deadline_edf"], "seed": [0, 1]},
        )
        if target == "sqlite":
            queue = {"db": tmp_path / "q.sqlite"}
        else:
            queue = {"broker": request.getfixturevalue("service_url")}

        def rows(outcome):
            return json.dumps(
                [{k: v for k, v in row.items() if k != "wall_time_s"} for row in outcome.to_rows()]
            )

        inline = sweep.run(executor="inline")
        distributed = sweep.run(executor="distributed", workers=2, **queue)
        assert distributed.executed == 4
        assert all(isinstance(result, ClusterResult) for result in distributed.results)
        assert rows(distributed) == rows(inline)
        rerun = sweep.run(executor="distributed", workers=2, **queue)
        assert rerun.cache_hits == 4 and rows(rerun) == rows(inline)


def _kill_first_leaseholder(db, driver_pid: int, report) -> None:
    """Watch the queue; SIGKILL the first worker seen holding a lease.

    Runs in its own process.  ``driver_pid`` is the test process, which is
    never killed; the killed lease is sent through the ``report`` pipe.
    """
    with Broker(db) as watcher:
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            leased = watcher.tasks("leased")
            pids = {w["worker_id"]: w["pid"] for w in watcher.workers()}
            for record in leased:
                pid = pids.get(record.lease_owner)
                if pid and pid != driver_pid:
                    report.send({"fingerprint": record.fingerprint, "worker_id": record.lease_owner})
                    os.kill(pid, signal.SIGKILL)
                    return
            time.sleep(0.005)
    report.send({})


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="worker-kill recovery relies on fork-inherited test workload plugins",
)
class TestWorkerCrashRecovery:
    def test_sigkilled_worker_mid_task_requeues_and_completes(self, slow_workload, tmp_path):
        """Acceptance: kill one of 3 workers mid-run; the sweep still finishes."""
        base = ScenarioSpec(
            workload=WorkloadSpec(slow_workload, {"jobs": _job_dicts(), "delay_s": 0.4}),
            strategy="s-resume",
            strategy_params={"tau_est": 30.0, "tau_kill": 60.0, "fixed_r": 1},
            cluster={"num_nodes": 0},
        )
        sweep = twelve_scenario_sweep(base)
        db = tmp_path / "queue.sqlite"

        # The assassin is a process, not a thread: a thread inside sqlite
        # while the worker pool forks can leave a lock held in a worker.
        context = multiprocessing.get_context("fork")
        receiver, sender = context.Pipe(duplex=False)
        assassin = context.Process(
            target=_kill_first_leaseholder, args=(db, os.getpid(), sender), daemon=True
        )
        assassin.start()
        sender.close()
        try:
            distributed = sweep.run(
                executor="distributed", workers=3, db=db, lease_timeout=2.0
            )
        finally:
            assassin.join(timeout=60.0)
            if assassin.is_alive():
                assassin.kill()
                assassin.join()
        try:
            killed = receiver.recv() if receiver.poll() else {}
        except EOFError:  # the assassin died without reporting
            killed = {}
        receiver.close()

        assert killed, "no worker was observed holding a lease"
        assert distributed.executed == 12
        assert len(distributed.results) == 12

        inline = sweep.run(executor="inline")
        assert [r.fingerprint for r in distributed.results] == [
            r.fingerprint for r in inline.results
        ]
        assert [r.report for r in distributed.results] == [r.report for r in inline.results]

        # the interrupted task was requeued (second claim) and completed
        with Broker(db) as broker:
            record = broker.task(killed["fingerprint"])
            assert record.status == "done"
            assert record.attempts >= 2

    def test_dead_pool_is_drained_inline_and_announced(self, slow_workload, tmp_path):
        """Every local worker SIGKILLed mid-sweep: the driver finishes the queue.

        The stall is announced once (one warning, one ``ScenarioRetried``
        per scenario still unresolved at that point) and the results are
        the inline executor's.
        """
        base = ScenarioSpec(
            workload=WorkloadSpec(slow_workload, {"jobs": _job_dicts(), "delay_s": 0.2}),
            strategy="s-resume",
            strategy_params={"tau_est": 30.0, "tau_kill": 60.0, "fixed_r": 1},
            cluster={"num_nodes": 0},
        )
        sweep = twelve_scenario_sweep(base)
        db = tmp_path / "queue.sqlite"
        killed = []

        def kill_whole_pool():
            """Once both workers exist and one holds a lease, SIGKILL them all.

            No sqlite call is made until both workers are forked: a fork
            taken while this thread is inside sqlite could inherit a held
            sqlite mutex and hang the child.
            """
            deadline = time.monotonic() + 30.0
            while len(multiprocessing.active_children()) < 2:
                if time.monotonic() > deadline:
                    return
                time.sleep(0.005)
            pids = [child.pid for child in multiprocessing.active_children()]
            with Broker(db) as watcher:
                while not watcher.tasks("leased"):
                    if time.monotonic() > deadline:
                        return
                    time.sleep(0.005)
            for pid in pids:
                os.kill(pid, signal.SIGKILL)
                killed.append(pid)

        assassin = threading.Thread(target=kill_whole_pool)
        assassin.start()
        try:
            with pytest.warns(RuntimeWarning) as caught:
                events = list(
                    sweep.stream(executor="distributed", workers=2, db=db, lease_timeout=2.0)
                )
        finally:
            assassin.join()

        assert len(killed) == 2, "the pool was never observed at work"
        pool_died = [w for w in caught if "local worker pool died" in str(w.message)]
        assert len(pool_died) == 1

        draining = [
            e for e in events
            if isinstance(e, ScenarioRetried) and "draining inline" in e.reason
        ]
        assert draining, "no scenario was left for the driver to drain"
        first = events.index(draining[0])
        done_before = {
            e.fingerprint for e in events[:first] if isinstance(e, ScenarioCompleted)
        }
        unresolved = {spec.fingerprint() for spec in sweep.specs} - done_before
        assert sorted(e.fingerprint for e in draining) == sorted(unresolved)

        finished = events[-1]
        assert isinstance(finished, SweepFinished)
        assert not finished.cancelled and finished.failures == 0
        assert finished.executed == 12
        completed = {e.index: e.result for e in events if isinstance(e, ScenarioCompleted)}
        inline = sweep.run(executor="inline")
        assert [completed[i].fingerprint for i in range(12)] == [
            r.fingerprint for r in inline.results
        ]
        assert [completed[i].report for i in range(12)] == [r.report for r in inline.results]

    def test_unsupervised_recovery_goes_through_lease_expiry(self, tmp_path):
        """Without a reaping parent, an orphaned lease expires and requeues."""
        from repro.distributed import LeasePolicy, SqliteResultStore, Worker

        fast = LeasePolicy(timeout=0.4)
        spec = ScenarioSpec(
            workload=WorkloadSpec("explicit", {"jobs": _job_dicts()}),
            strategy="s-resume",
            strategy_params={"tau_est": 30.0, "tau_kill": 60.0, "fixed_r": 1},
            cluster={"num_nodes": 0},
        )
        db = tmp_path / "queue.sqlite"
        with Broker(db, policy=fast) as broker:
            broker.enqueue([spec.to_dict()], [spec.fingerprint()])
            # a "crashed" worker: claims, then never heartbeats again
            zombie_task = broker.claim("zombie")
            assert zombie_task is not None

            # a healthy worker waits out the lease, requeues, completes
            worker = Worker(db, policy=fast)
            assert worker.run() == 1
            worker.close()

            record = broker.task(spec.fingerprint())
            assert record.status == "done"
            assert record.attempts == 2  # zombie's claim + the recovery claim
            with SqliteResultStore(db) as store:
                assert store.get(spec.fingerprint()).report is not None


class TestFailurePropagation:
    def test_scenario_error_raises_after_inline_retry(self, base, tmp_path):
        # num_jobs=0 passes spec validation but fails at workload build time
        # in the worker *and* in the parent's inline retry.
        bad = base.with_overrides(
            {"workload": {"kind": "benchmark", "params": {"name": "sort", "num_jobs": 0}}}
        )
        with pytest.raises(TaskFailedError):
            run_specs([base, bad], executor="distributed", workers=2, db=tmp_path / "q.sqlite")
        # work that finished before the failure is preserved in the store
        follow_up = run_specs(
            [base], executor="distributed", workers=1, db=tmp_path / "q.sqlite"
        )
        assert follow_up.executed == 0 and follow_up.cache_hits == 1


class TestExecutorSelection:
    def test_unknown_executor_rejected(self, base):
        with pytest.raises(ValueError, match="unknown executor"):
            run_specs([base], executor="carrier-pigeon")

    @pytest.mark.parametrize("executor", ["pool", "inline"])
    def test_db_with_another_executor_is_rejected(self, base, tmp_path, executor):
        db = tmp_path / "q.sqlite"
        with pytest.raises(ValueError, match="db= requires the distributed executor"):
            run_specs([base], jobs=2, executor=executor, db=db)
        assert not db.exists()

    def test_db_implies_the_distributed_executor(self, base, tmp_path):
        db = tmp_path / "q.sqlite"
        specs = [base.with_overrides(seed=seed) for seed in (0, 1)]
        stream = stream_specs(specs, jobs=2, db=db)
        assert next(stream).executor == "distributed"
        stream.close()
        outcome = run_specs(specs, jobs=2, db=db)
        assert outcome.executed == 2
        with Broker(db) as broker:
            assert broker.counts()["done"] == 2

    def test_non_positive_workers_rejected_for_every_executor(self, base):
        for executor in ("pool", "distributed"):
            with pytest.raises(ValueError, match="workers"):
                run_specs([base], executor=executor, workers=0)

    def test_options_are_checked_before_anything_runs(self, base, tmp_path):
        """Every entry point hands its sweep options to one validator, up front."""
        from repro.adaptive import stream_search

        db = tmp_path / "q.sqlite"
        sweep = Sweep(base)
        entry_points = [
            lambda **options: run_specs([base], **options),
            lambda **options: stream_specs([base], **options),
            sweep.run,
            sweep.stream,
            lambda **options: stream_search(
                base, {"seed": [0, 1]}, algorithm="successive_halving", **options
            ),
        ]
        for call in entry_points:
            with pytest.raises(TypeError, match="seed"):
                call(seed=1)
            with pytest.raises(ValueError, match="lease timeout must be positive"):
                call(db=db, lease_timeout=0)
        assert not db.exists()

    def test_explicit_inline_overrides_jobs(self, base):
        # executor="inline" with jobs>1 must not spin up a pool; duplicate
        # fingerprints make the executed count observable either way.
        outcome = run_specs([base, base], jobs=4, executor="inline")
        assert outcome.executed == 1
