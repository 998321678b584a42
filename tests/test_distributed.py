"""Unit tests for the distributed queue: broker, leases, store, worker loop."""

from __future__ import annotations

import time

import pytest

from repro.api import ScenarioSpec, WorkloadSpec, job_spec_to_dict, run
from repro.distributed import (
    Broker,
    LeaseKeeper,
    LeasePolicy,
    SqliteResultStore,
    Worker,
    open_broker,
    open_store,
)
from repro.distributed.leases import MAX_ATTEMPTS
from repro.simulator.entities import JobSpec

from queue_rows import task_row

#: Fast lease timings so expiry tests take fractions of a second.
FAST = LeasePolicy(timeout=0.4)


def _tiny_spec(seed: int = 0) -> ScenarioSpec:
    jobs = [
        JobSpec(job_id=f"j{i}", num_tasks=3, deadline=90.0, tmin=15.0, beta=1.5, submit_time=2.0 * i)
        for i in range(3)
    ]
    return ScenarioSpec(
        workload=WorkloadSpec("explicit", {"jobs": [job_spec_to_dict(j) for j in jobs]}),
        strategy="s-resume",
        strategy_params={"tau_est": 30.0, "tau_kill": 60.0, "fixed_r": 1},
        cluster={"num_nodes": 0},
        seed=seed,
    )


@pytest.fixture
def db(tmp_path):
    return tmp_path / "queue.sqlite"


@pytest.fixture
def broker(db):
    with Broker(db, policy=FAST) as broker:
        yield broker


def _enqueue(broker, specs):
    return broker.enqueue([s.to_dict() for s in specs], [s.fingerprint() for s in specs])


class TestTargets:
    @pytest.mark.parametrize(
        "target", ["redis://localhost:6379", "shards:a.sqlite,b.sqlite"], ids=["redis", "shards"]
    )
    @pytest.mark.parametrize("opener", [open_broker, open_store], ids=["broker", "store"])
    def test_unknown_scheme_names_the_valid_forms(self, target, opener, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(ValueError) as excinfo:
            opener(target)
        message = str(excinfo.value)
        assert "unknown queue target scheme" in message and target in message
        assert "sqlite path" in message and "'http://' or 'https://'" in message
        # rejected, never opened as a filename
        assert list(tmp_path.iterdir()) == []


class TestLeasePolicy:
    def test_rejects_bad_timeout(self):
        with pytest.raises(ValueError):
            LeasePolicy(timeout=0.0)

    def test_heartbeat_is_a_quarter_of_the_timeout(self):
        assert FAST.heartbeat_interval == 0.1
        assert LeasePolicy().heartbeat_interval == 7.5

    def test_lease_expiry_predicate(self):
        from repro.distributed import Lease

        lease = Lease(fingerprint="f", owner="w", expires_at=100.0)
        assert not lease.expired(99.9)
        assert lease.expired(100.0)


class TestBrokerLifecycle:
    def test_enqueue_deduplicates_by_fingerprint(self, broker):
        spec = _tiny_spec()
        assert _enqueue(broker, [spec]) == 1
        assert _enqueue(broker, [spec]) == 0
        assert broker.counts()["pending"] == 1

    def test_claim_execute_complete(self, broker):
        spec = _tiny_spec()
        _enqueue(broker, [spec])
        task = broker.claim("w1")
        assert task is not None
        assert task.fingerprint == spec.fingerprint()
        assert task.attempts == 1
        assert broker.counts()["leased"] == 1
        assert broker.claim("w2") is None  # no double-claim

        result = run(ScenarioSpec.from_dict(task.payload))
        broker.complete(task.fingerprint, "w1", result.to_dict())
        assert broker.counts()["done"] == 1
        assert broker.settled()

        store = SqliteResultStore(broker.path)
        fetched = store.get(spec.fingerprint())
        assert fetched is not None and fetched.report == result.report
        store.close()

    def test_claims_are_fifo(self, broker):
        first, second = _tiny_spec(seed=1), _tiny_spec(seed=2)
        _enqueue(broker, [first])
        _enqueue(broker, [second])
        assert broker.claim("w").fingerprint == first.fingerprint()
        assert broker.claim("w").fingerprint == second.fingerprint()

    def test_heartbeat_extends_only_own_lease(self, broker):
        spec = _tiny_spec()
        _enqueue(broker, [spec])
        task = broker.claim("w1")
        assert broker.heartbeat(task.fingerprint, "w1") is True
        assert broker.heartbeat(task.fingerprint, "intruder") is False

    def test_fail_is_terminal_and_reenqueue_resets(self, broker):
        spec = _tiny_spec()
        _enqueue(broker, [spec])
        task = broker.claim("w1")
        broker.fail(task.fingerprint, "w1", "boom")
        record = task_row(broker.path, task.fingerprint)
        assert record.status == "failed" and record.error == "boom"
        assert broker.claim("w2") is None  # failed tasks are not claimable
        # re-enqueueing a failed fingerprint gives it a fresh round
        assert _enqueue(broker, [spec]) == 1
        assert task_row(broker.path, task.fingerprint).status == "pending"
        assert task_row(broker.path, task.fingerprint).attempts == 0

    def test_stale_fail_cannot_clobber_done(self, broker):
        """A worker that lost its lease cannot flip a completed task to failed."""
        spec = _tiny_spec()
        _enqueue(broker, [spec])
        stale = broker.claim("wedged")
        time.sleep(FAST.timeout + 0.05)
        rescued = broker.claim("healthy")  # sweeps the expired lease and re-claims
        result = run(ScenarioSpec.from_dict(rescued.payload))
        broker.complete(rescued.fingerprint, "healthy", result.to_dict())
        # the wedged worker resurfaces and reports a failure for its old lease
        assert broker.fail(stale.fingerprint, "wedged", "MemoryError: boom") is False
        assert task_row(broker.path, spec.fingerprint()).status == "done"

    def test_drain_flag_round_trip(self, broker):
        assert not broker.is_draining()
        broker.drain()
        assert broker.is_draining()

    def test_enqueue_clears_stale_drain_flag(self, broker):
        """New work revives a drained queue; a later fleet must not exit on it."""
        broker.drain()
        _enqueue(broker, [_tiny_spec()])
        assert not broker.is_draining()


class TestLeaseExpiry:
    def test_expired_lease_requeues_with_attempt_counted(self, broker):
        """A claimed task whose worker never heartbeats goes back on the queue."""
        spec = _tiny_spec()
        _enqueue(broker, [spec])
        task = broker.claim("zombie")
        assert broker.claim("w2") is None  # lease still live
        time.sleep(FAST.timeout + 0.05)
        requeued, exhausted = broker.requeue_expired()
        assert (requeued, exhausted) == (1, 0)
        reclaimed = broker.claim("w2")
        assert reclaimed is not None
        assert reclaimed.fingerprint == task.fingerprint
        assert reclaimed.attempts == 2

    def test_claim_sweeps_expired_leases_implicitly(self, broker):
        spec = _tiny_spec()
        _enqueue(broker, [spec])
        broker.claim("zombie")
        time.sleep(FAST.timeout + 0.05)
        # no explicit requeue_expired(): the claim itself recovers the task
        assert broker.claim("w2") is not None

    def test_attempts_are_bounded(self, broker):
        spec = _tiny_spec()
        _enqueue(broker, [spec])
        for attempt in range(MAX_ATTEMPTS):
            task = broker.claim(f"zombie-{attempt}")
            assert task is not None and task.attempts == attempt + 1
            time.sleep(FAST.timeout + 0.05)
            broker.requeue_expired()
        record = task_row(broker.path, spec.fingerprint())
        assert record.status == "failed"
        assert "lease expired" in record.error
        assert broker.claim("w-next") is None

    def test_release_worker_is_an_immediate_requeue(self, broker):
        spec = _tiny_spec()
        _enqueue(broker, [spec])
        broker.claim("doomed")
        requeued, exhausted = broker.release_worker("doomed")
        assert (requeued, exhausted) == (1, 0)
        assert task_row(broker.path, spec.fingerprint()).status == "pending"


class TestBatchClaims:
    def test_claim_many_leases_up_to_limit_fifo(self, broker):
        specs = [_tiny_spec(seed=s) for s in range(5)]
        for spec in specs:  # separate enqueues => distinct FIFO timestamps
            _enqueue(broker, [spec])
        batch = broker.claim_many("w1", 3)
        assert [task.fingerprint for task in batch] == [s.fingerprint() for s in specs[:3]]
        assert all(task.lease.owner == "w1" for task in batch)
        assert broker.counts() == {"pending": 2, "leased": 3, "done": 0, "failed": 0}

    def test_claim_many_returns_partial_batch(self, broker):
        _enqueue(broker, [_tiny_spec()])
        batch = broker.claim_many("w1", 8)
        assert len(batch) == 1
        assert broker.claim_many("w2", 8) == []

    def test_claim_many_rejects_bad_limit(self, broker):
        with pytest.raises(ValueError):
            broker.claim_many("w1", 0)

    def test_claim_many_sweeps_expired_leases_first(self, broker):
        specs = [_tiny_spec(seed=s) for s in range(2)]
        _enqueue(broker, specs)
        broker.claim_many("zombie", 2)
        time.sleep(FAST.timeout + 0.05)
        rescued = broker.claim_many("healthy", 2)
        assert len(rescued) == 2
        assert all(task.attempts == 2 for task in rescued)

    def test_leased_detail_reports_attempts_and_expiry(self, broker):
        spec = _tiny_spec()
        _enqueue(broker, [spec])
        broker.claim("w1")
        (lease,) = broker.leased()
        assert lease["worker_id"] == "w1"
        assert lease["attempts"] == 1 and lease["max_attempts"] == MAX_ATTEMPTS
        assert 0 < lease["expires_in_s"] <= FAST.timeout
        # stats() carries the same per-lease detail for `workers status`
        (stats_lease,) = broker.stats()["leased"]
        assert stats_lease["fingerprint"] == lease["fingerprint"]


class TestLeaseKeeper:
    def test_keeper_renews_until_stopped(self):
        beats = []
        with LeaseKeeper(renew=lambda: beats.append(1) or True, interval=0.02) as keeper:
            time.sleep(0.15)
        assert len(beats) >= 3

    def test_keeper_stops_beating_on_a_lost_lease(self):
        beats = []
        keeper = LeaseKeeper(renew=lambda: beats.append(1) or False, interval=0.02).start()
        time.sleep(0.15)
        keeper.stop()
        assert len(beats) == 1  # stopped beating after the loss


class TestSqliteResultStore:
    def test_put_get_round_trip(self, db):
        spec = _tiny_spec()
        result = run(spec)
        with SqliteResultStore(db) as store:
            assert store.get(spec.fingerprint()) is None
            store.put(result)
            fetched = store.get(spec.fingerprint())
            assert fetched.fingerprint == result.fingerprint
            assert fetched.report == result.report

    def test_results_survive_a_fresh_store(self, db):
        result = run(_tiny_spec())
        with SqliteResultStore(db) as store:
            store.put(result)
        with SqliteResultStore(db) as fresh:
            assert fresh.get(result.fingerprint).report == result.report

    def test_fingerprints_lists_the_stored_rows(self, db):
        result = run(_tiny_spec())
        with SqliteResultStore(db) as store:
            store.put(result)
            store.put(result)  # an upsert: still one row
            assert store.fingerprints() == {result.fingerprint}

    def test_corrupt_row_is_a_miss(self, db):
        from repro.distributed import connect

        with SqliteResultStore(db) as store:
            conn = connect(db)
            conn.execute(
                "INSERT INTO results (fingerprint, payload, created_at) VALUES (?, ?, 0)",
                ("deadbeef", "{ not json"),
            )
            conn.close()
            assert store.get("deadbeef") is None

    def test_matches_result_cache_protocol(self, db):
        """The store is a drop-in cache: run_specs accepts it unchanged."""
        from repro.api import run_specs

        spec = _tiny_spec()
        with SqliteResultStore(db) as store:
            first = run_specs([spec], cache=store)
            assert first.executed == 1 and first.cache_hits == 0
        with SqliteResultStore(db) as reopened:
            second = run_specs([spec], cache=reopened)
            assert second.executed == 0 and second.cache_hits == 1


class TestWorkerLoop:
    def test_worker_drains_queue_in_process(self, db):
        specs = [_tiny_spec(seed=s) for s in range(3)]
        with Broker(db, policy=FAST) as broker:
            _enqueue(broker, specs)
            worker = Worker(db, policy=FAST)
            assert worker.run() == 3
            worker.close()
            assert broker.counts()["done"] == 3
            with SqliteResultStore(db) as store:
                for spec in specs:
                    assert store.get(spec.fingerprint()) is not None

    def test_worker_fails_bad_scenario_without_retry(self, db):
        # num_jobs=0 passes spec validation but fails at materialization.
        bad = ScenarioSpec(
            workload=WorkloadSpec("benchmark", {"name": "sort", "num_jobs": 0}),
            strategy="s-resume",
            cluster={"num_nodes": 0},
        )
        with Broker(db, policy=FAST) as broker:
            _enqueue(broker, [bad])
            worker = Worker(db, policy=FAST)
            assert worker.run() == 0
            worker.close()
            record = task_row(broker.path, bad.fingerprint())
            assert record.status == "failed"
            assert record.attempts == 1  # scenario errors are terminal, not retried

    def test_worker_exits_when_draining(self, db):
        with Broker(db, policy=FAST) as broker:
            broker.drain()
            worker = Worker(db, policy=FAST, exit_when_idle=False)
            assert worker.run() == 0  # would poll forever without the drain flag
            worker.close()

    def test_worker_batches_claims(self, db, monkeypatch):
        import repro.distributed.worker as worker_module

        monkeypatch.setattr(worker_module, "CLAIM_BATCH", 2)
        specs = [_tiny_spec(seed=s) for s in range(5)]
        with Broker(db, policy=FAST) as broker:
            _enqueue(broker, specs)
            worker = Worker(db, policy=FAST)
            assert worker.run() == 5
            worker.close()
            assert broker.counts()["done"] == 5


class TestClaimSizing:
    """Claims sized by time on a fake clock: each scenario costs what we say."""

    def _drain(self, db, monkeypatch, count, seconds_of):
        """Run one worker over ``count`` specs; returns (asked, committed).

        Tasks are claimed in fingerprint order, and ``seconds_of(i)`` is
        the fake time the ``i``-th one takes.  ``asked`` lists the limit
        of every claim that returned tasks, and ``committed`` the claim
        positions in every ``complete_many`` batch.
        """
        import repro.distributed.worker as worker_module

        specs = sorted((_tiny_spec(seed=s) for s in range(count)), key=ScenarioSpec.fingerprint)
        position = {spec.fingerprint(): i for i, spec in enumerate(specs)}
        now = [0.0]
        real_run = worker_module._run_scenario

        def run_scenario(payload):
            result = real_run(payload)
            now[0] += seconds_of(position[result.fingerprint])
            return result

        monkeypatch.setattr(worker_module, "_clock", lambda: now[0])
        monkeypatch.setattr(worker_module, "_run_scenario", run_scenario)
        with Broker(db, policy=FAST) as broker:
            _enqueue(broker, specs)
        worker = Worker(db, policy=FAST)
        asked, committed = [], []
        claim_many, complete_many = worker._broker.claim_many, worker._broker.complete_many

        def sized_claim(worker_id, limit):
            tasks = claim_many(worker_id, limit)
            if tasks:
                asked.append(limit)
            return tasks

        def recorded_complete(worker_id, completions):
            committed.append([position[fingerprint] for fingerprint, _ in completions])
            return complete_many(worker_id, completions)

        worker._broker.claim_many = sized_claim
        worker._broker.complete_many = recorded_complete
        try:
            worker.run()
        finally:
            worker.close()
        return asked, committed

    # Fake durations are binary fractions, so the clock sums them exactly.
    def test_fast_tasks_double_the_claim(self, db, monkeypatch):
        asked, _ = self._drain(db, monkeypatch, 40, lambda i: 2 ** -10)
        assert asked == [1, 2, 4, 8, 16, 32]

    def test_time_budget_caps_the_growth(self, db, monkeypatch):
        # 1/128 s a scenario: CLAIM_TARGET_S (50 ms) holds 6.4 of them
        asked, _ = self._drain(db, monkeypatch, 30, lambda i: 2 ** -7)
        assert asked == [1, 2, 4, 6, 6, 6, 6]

    def test_slow_tasks_go_one_at_a_time(self, db, monkeypatch):
        asked, committed = self._drain(db, monkeypatch, 4, lambda i: 0.25)
        assert asked == [1, 1, 1, 1]
        assert committed == [[0], [1], [2], [3]]

    def test_claims_never_exceed_claim_batch(self, db, monkeypatch):
        import repro.distributed.worker as worker_module

        monkeypatch.setattr(worker_module, "CLAIM_BATCH", 3)
        asked, _ = self._drain(db, monkeypatch, 12, lambda i: 2 ** -10)
        assert asked == [1, 2, 3, 3, 3]

    def test_one_slow_task_commits_what_the_batch_has(self, db, monkeypatch):
        # batches of 1, 2 and 4; the third batch's second scenario is slow
        asked, committed = self._drain(
            db, monkeypatch, 7, lambda i: 0.5 if i == 4 else 2 ** -10
        )
        assert asked == [1, 2, 4]
        # the slow scenario commits itself and the one before it at once,
        # instead of holding them until the rest of the batch is done
        assert committed == [[0], [1, 2], [3, 4], [5, 6]]


class TestSupervisedPool:
    """WorkerPool service mode: crashed members are replaced, clean exits not."""

    @pytest.fixture(autouse=True)
    def _quick(self, monkeypatch):
        """Members poll every 20 ms, and a restart waits 10 ms at most."""
        import repro.distributed.worker as worker_module

        monkeypatch.setattr(worker_module, "POLL_INTERVAL", 0.02)
        monkeypatch.setattr(worker_module, "RESTART_BACKOFF_S", 0.01)
        monkeypatch.setattr(worker_module, "RESTART_BACKOFF_MAX_S", 0.01)

    def _service_pool(self, db, policy):
        from repro.distributed import WorkerPool

        return WorkerPool(
            db, workers=1, policy=FAST, exit_when_idle=False, restart_policy=policy
        )

    def test_sigkilled_member_is_replaced(self, db, broker):
        import os
        import signal

        from repro.distributed import RestartPolicy

        pool = self._service_pool(db, RestartPolicy(burst=2))
        pool.start()
        try:
            original = pool.worker_ids[0]
            victim = pool.processes[0]
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(timeout=5.0)
            deadline = time.monotonic() + 5.0
            while not pool.restarts.copy() and time.monotonic() < deadline:
                pool.supervise(broker)
                time.sleep(0.02)
            assert pool.restarts_used == 1
            dead, replacement = pool.restarts[0]
            assert dead == original and replacement != original
            assert pool.worker_ids == [replacement]
            assert pool.alive_count() == 1
        finally:
            pool.terminate()

    def test_empty_bucket_defers_restart_until_refill(self, db, broker):
        """A slot out of tokens stays dead — until the bucket refills.

        Drives ``supervise`` with an injected clock: one token is spent
        on the first crash, the second crash finds an empty bucket (the
        fleet stays down, unlike the old budget this is *pending*, not
        abandoned), and advancing the clock past ``refill_s`` revives it.
        """
        import os
        import signal

        from repro.distributed import RestartPolicy

        pool = self._service_pool(db, RestartPolicy(burst=1, refill_s=60.0))
        pool.start()
        clock = time.monotonic()
        try:
            # first kill: the slot's only token is spent on the replacement
            os.kill(pool.processes[0].pid, signal.SIGKILL)
            pool.processes[0].join(timeout=5.0)
            deadline = time.monotonic() + 5.0
            while pool.restarts_used == 0 and time.monotonic() < deadline:
                clock = time.monotonic()
                pool.supervise(broker, now=clock)
                time.sleep(0.02)
            assert pool.restarts_used == 1 and pool.alive_count() == 1
            # second kill: bucket empty, the fleet stays dead but pending
            os.kill(pool.processes[0].pid, signal.SIGKILL)
            pool.processes[0].join(timeout=5.0)
            for _ in range(10):
                clock = time.monotonic()
                pool.supervise(broker, now=clock)
                time.sleep(0.02)
            assert pool.restarts_used == 1
            assert pool.alive_count() == 0
            assert pool.pending_restarts() == [pool.worker_ids[0]]
            # a refill interval later the pending member is revived
            assert pool.supervise(broker, now=clock + 61.0) != []
            assert pool.restarts_used == 2 and pool.alive_count() == 1
            assert pool.pending_restarts() == []
        finally:
            pool.terminate()

    def test_clean_exit_is_not_restarted(self, db, broker):
        from repro.distributed import RestartPolicy, WorkerPool

        # exit_when_idle on an empty queue: the worker exits with code 0
        pool = WorkerPool(db, workers=1, policy=FAST, restart_policy=RestartPolicy(burst=5))
        pool.start()
        try:
            pool.join(timeout=10.0)
            assert pool.supervise(broker) == []
            assert pool.restarts_used == 0
            assert pool.alive_count() == 0
        finally:
            pool.terminate()

    def test_terminated_idle_member_exits_through_system_exit(self, db, broker):
        """SIGTERM ends a member normally (its finally blocks run), profiling off."""
        import signal

        from repro import telemetry
        from repro.distributed import WorkerPool

        assert telemetry.active_profiler() is None
        pool = WorkerPool(db, workers=1, policy=FAST, exit_when_idle=False).start()
        try:
            # A registered member is inside worker_main, polling an empty queue.
            deadline = time.monotonic() + 30.0
            while not broker.workers() and time.monotonic() < deadline:
                time.sleep(0.02)
            assert broker.workers(), "the member never registered"
        finally:
            pool.terminate()
        exitcode = pool.processes[0].exitcode
        assert exitcode == 128 + signal.SIGTERM, exitcode  # a signal death reads -15

    def test_member_terminated_at_start_exits_through_system_exit(self, db):
        """A SIGTERM sent before worker_main installs its handler waits for it."""
        import signal

        from repro.distributed import WorkerPool

        pool = WorkerPool(db, workers=1, policy=FAST, exit_when_idle=False).start()
        pool.terminate()  # at once: the child has not reached worker_main yet
        exitcode = pool.processes[0].exitcode
        assert exitcode == 128 + signal.SIGTERM, exitcode  # a signal death reads -15

    def test_restart_policy_validated(self):
        from repro.distributed import RestartPolicy

        with pytest.raises(ValueError):
            RestartPolicy(burst=0)  # no restarts is restart_policy=None
        with pytest.raises(ValueError):
            RestartPolicy(burst=-1)
        with pytest.raises(ValueError):
            RestartPolicy(refill_s=0.0)


class TestEventLogRetention:
    """The event log is bounded: prunable past the done-watermark."""

    def _settle(self, broker, count=3):
        specs = [_tiny_spec(seed=i) for i in range(count)]
        _enqueue(broker, specs)
        while True:
            task = broker.claim("w0")
            if task is None:
                break
            broker.complete(task.fingerprint, "w0", {"ok": True})
        return specs

    def test_record_event_appends_and_validates_kind(self, broker):
        seq = broker.record_event("trial-proposed", "fp0", detail="t-abc")
        assert seq == broker.last_event_seq()
        (row,) = broker.events_since(seq - 1)
        assert row["kind"] == "trial-proposed"
        assert row["fingerprint"] == "fp0" and row["detail"] == "t-abc"
        with pytest.raises(ValueError, match="unknown event kind"):
            broker.record_event("trial-started")

    def test_watermark_is_pinned_by_in_flight_tasks(self, broker):
        assert broker.done_watermark() == 1  # empty log: everything prunable
        _enqueue(broker, [_tiny_spec()])
        queued_seq = broker.last_event_seq()
        assert broker.done_watermark() == queued_seq  # pending pins its event
        task = broker.claim("w0")
        assert broker.done_watermark() == queued_seq  # leased still pins it
        broker.complete(task.fingerprint, "w0", {"ok": True})
        assert broker.done_watermark() == broker.last_event_seq() + 1

    def test_prune_deletes_settled_history_only(self, broker):
        self._settle(broker)
        live = _tiny_spec(seed=99)
        _enqueue(broker, [live])
        live_seq = broker.last_event_seq()
        pruned = broker.prune_events()
        assert pruned == 9  # 3 scenarios x (queued, started, completed)
        remaining = broker.events_since(0)
        assert [row["seq"] for row in remaining] == [live_seq]
        assert remaining[0]["fingerprint"] == live.fingerprint()
        # seqs are never reused: the next event continues the sequence
        assert broker.record_event("trial-proposed") == live_seq + 1

    def test_prune_accepts_an_explicit_cut(self, broker):
        self._settle(broker, count=2)
        top = broker.last_event_seq()
        assert broker.prune_events(before_seq=top) == top - 1
        assert [row["seq"] for row in broker.events_since(0)] == [top]
        assert broker.prune_events() == 1  # rest is settled history too
        assert broker.events_since(0) == []

    def test_drain_auto_prunes_settled_history(self, broker):
        self._settle(broker)
        assert broker.last_event_seq() == 9
        broker.drain()
        assert broker.is_draining()
        assert broker.events_since(0) == []
        # the sequence survives the prune: observers (and `workers
        # status`) still see how far the log ever got
        assert broker.last_event_seq() == 9

    def test_stats_surface_the_retained_span(self, broker):
        self._settle(broker, count=2)
        stats = broker.stats()
        assert stats["events"] == 6
        assert stats["events_retained"] == 6 and stats["events_first"] == 1
        broker.prune_events(before_seq=4)
        stats = broker.stats()
        assert stats["events"] == 6
        assert stats["events_retained"] == 3 and stats["events_first"] == 4
        broker.prune_events()
        stats = broker.stats()
        assert stats["events_retained"] == 0 and stats["events_first"] is None
