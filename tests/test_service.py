"""Tests of the multi-host sweep service: server, clients, fleets, CLI.

Covers the acceptance scenario of the subsystem: worker fleets pointed
at one HTTP broker front-end produce results byte-identical to
``executor="inline"`` (fingerprints *and* payloads), a SIGKILL'd remote
worker's task is requeued and completed — with the supervised pool
replacing the dead member automatically — and an identical re-run over
HTTP executes zero scenarios.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import threading
import time
from dataclasses import dataclass

import pytest

from repro.api import ScenarioSpec, Sweep, WorkloadSpec, job_spec_to_dict, run, run_specs
from repro.api.registry import WORKLOADS, register_workload
from repro.distributed import (
    Broker,
    LeasePolicy,
    RestartPolicy,
    TaskFailedError,
    Worker,
    WorkerPool,
    is_service_url,
    open_broker,
    open_store,
)
from repro.distributed.leases import MAX_ATTEMPTS
from repro.distributed.store import stored_results
from repro.service import (
    HttpBroker,
    HttpResultStore,
    ServiceError,
    make_server,
    rpc_call,
)
from repro.simulator.entities import JobSpec

from queue_rows import task_row

#: Fast lease timings so recovery tests take fractions of a second.
FAST = LeasePolicy(timeout=2.0)

SLOW_WORKLOAD = "test-slow-service"


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


def _tiny_spec(seed: int = 0) -> ScenarioSpec:
    return ScenarioSpec(
        workload=WorkloadSpec("explicit", {"jobs": _job_dicts()}),
        strategy="s-resume",
        strategy_params={"tau_est": 30.0, "tau_kill": 60.0, "fixed_r": 1},
        cluster={"num_nodes": 0},
        seed=seed,
    )


@dataclass
class Service:
    url: str
    db: object
    server: object


@pytest.fixture
def service(tmp_path):
    """An HTTP sweep service on an ephemeral port, serving a fresh queue."""
    db = tmp_path / "queue.sqlite"
    server = make_server(db, host="127.0.0.1", port=0, policy=FAST)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    url = f"http://127.0.0.1:{server.server_address[1]}"
    try:
        yield Service(url=url, db=db, server=server)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5.0)


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


class TestTargets:
    def test_url_detection(self):
        assert is_service_url("http://host:8176")
        assert is_service_url("https://host")
        assert not is_service_url("queue.sqlite")
        assert not is_service_url("sqlite:queue.sqlite")

    def test_open_broker_dispatches(self, service, tmp_path):
        http = open_broker(service.url)
        assert isinstance(http, HttpBroker)
        local = open_broker(tmp_path / "other.sqlite")
        assert isinstance(local, Broker)
        local.close()

    def test_open_store_dispatches(self, service, tmp_path):
        assert isinstance(open_store(service.url), HttpResultStore)
        store = open_store(f"sqlite:{tmp_path / 'other.sqlite'}")
        assert store.path == tmp_path / "other.sqlite"
        store.close()


class TestEndpoints:
    def test_healthz(self, service):
        import urllib.request

        with urllib.request.urlopen(service.url + "/healthz", timeout=5.0) as response:
            body = json.loads(response.read())
        assert body["ok"] is True
        assert body["db"] == str(service.db)

    def test_status_endpoint(self, service):
        import urllib.request

        with urllib.request.urlopen(service.url + "/status", timeout=5.0) as response:
            body = json.loads(response.read())
        assert body["tasks"] == {"pending": 0, "leased": 0, "done": 0, "failed": 0}

    def test_unknown_method_is_a_clean_error(self, service):
        with pytest.raises(ServiceError, match="unknown method"):
            rpc_call(service.url, "carrier_pigeon")

    def test_bad_params_are_a_400_not_a_crash(self, service):
        with pytest.raises(ServiceError, match="HTTP 400"):
            rpc_call(service.url, "claim_many", {"worker_id": "w", "no_such_param": 1})
        # the server thread survives and keeps answering
        assert rpc_call(service.url, "settled") is True

    @pytest.mark.parametrize(
        "method, params",
        [
            ("claim_many", {"worker_id": "w", "limit": "many"}),
            ("complete_texts", {"worker_id": "w", "completions": [["fp"]]}),
            ("requeue_expired", {"now": "soon"}),
            ("release_pending", {"fingerprints": 7}),
            ("register_worker", {"worker_id": "w", "pid": "self"}),
            ("leased", {"now": "soon"}),
            ("telemetry_summary", {"window_s": "long"}),
            ("events_since", {"seq": "start"}),
            ("events_for", {"fingerprint": "fp", "limit": "all"}),
            ("prune_events", {"before_seq": "later"}),
            ("result_texts", {"fingerprints": 7}),
            ("summary_rows", {"columns": ["no_such_column"]}),
        ],
    )
    def test_malformed_params_are_a_400(self, service, method, params):
        with pytest.raises(ServiceError, match="HTTP 400"):
            rpc_call(service.url, method, params)
        assert rpc_call(service.url, "settled") is True

    def test_unreachable_service(self):
        with pytest.raises(ServiceError, match="cannot reach"):
            rpc_call("http://127.0.0.1:9", "settled", timeout=0.5)

    def test_per_rpc_latency_metrics(self, service):
        from repro.service import fetch_metrics

        rpc_call(service.url, "settled")
        HttpResultStore(service.url).get_payload_many(["f" * 64])
        with pytest.raises(ServiceError, match="unknown method"):
            rpc_call(service.url, "carrier_pigeon")
        body = fetch_metrics(service.url)
        for method in ("settled", "result_texts"):
            assert f'chronos_rpc_seconds_count{{method="{method}"}}' in body
            assert f'chronos_rpc_lock_wait_seconds_count{{method="{method}"}}' in body
        assert 'method="carrier_pigeon"' not in body  # unknown methods are not labels

    def test_parked_long_poll_time_is_not_rpc_time(self, service):
        from repro import telemetry

        broker = HttpBroker(service.url)
        spec = _tiny_spec()
        since = broker.last_event_seq()
        broker.register_worker("w1")
        broker.enqueue([spec.to_dict()], [spec.fingerprint()])
        assert broker.claim_many("w1", 1)  # leased: the queue cannot settle

        def totals():
            return [
                telemetry.REGISTRY.get(name).labels(method="events_since").sum
                for name in ("chronos_rpc_seconds", "chronos_rpc_lock_wait_seconds")
            ]

        before = totals()
        started = time.monotonic()
        rows = broker.events_since(since, limit=100, wait_s=0.5)
        assert time.monotonic() - started >= 0.45  # it did park
        assert [row["kind"] for row in rows] == ["queued", "started"]
        held, queued = (after - was for after, was in zip(totals(), before))
        assert held < 0.1 and queued < 0.1

    def test_claim_sizes_are_a_histogram(self, service):
        from repro import telemetry

        broker = HttpBroker(service.url)
        specs = [_tiny_spec(seed) for seed in range(5)]
        broker.enqueue([s.to_dict() for s in specs], [s.fingerprint() for s in specs])
        sizes = telemetry.REGISTRY.get("chronos_claim_batch_tasks")
        count, total = sizes.count, sizes.sum
        worker = Worker(service.url, policy=FAST)
        claims = []
        claim_many = worker._broker.claim_many

        def recorded_claim(worker_id, limit):
            claims.append(claim_many(worker_id, limit))
            return claims[-1]

        worker._broker.claim_many = recorded_claim
        try:
            assert worker.run() == 5
        finally:
            worker.close()
        nonempty = [len(tasks) for tasks in claims if tasks]
        assert nonempty[0] == 1 and sum(nonempty) == 5
        assert sizes.count - count == len(nonempty)  # empty claims are not observed
        assert sizes.sum - total == 5
        assert "chronos_claim_batch_tasks_bucket" in telemetry.REGISTRY.render()


class TestHttpBrokerParity:
    """Every Broker operation behaves identically through the front-end."""

    def test_enqueue_claim_complete_lifecycle(self, service):
        spec = _tiny_spec()
        broker = HttpBroker(service.url)
        assert broker.enqueue([spec.to_dict()], [spec.fingerprint()]) == 1
        assert broker.enqueue([spec.to_dict()], [spec.fingerprint()]) == 0  # dedup
        task = broker.claim("w1")
        assert task is not None
        assert task.fingerprint == spec.fingerprint()
        assert task.attempts == 1 and task.lease.owner == "w1"
        assert broker.claim("w2") is None  # no double-claim
        assert broker.heartbeat(task.fingerprint, "w1") is True
        assert broker.heartbeat(task.fingerprint, "intruder") is False
        result = run(ScenarioSpec.from_dict(task.payload))
        broker.complete(task.fingerprint, "w1", result.to_dict())
        assert broker.counts()["done"] == 1
        assert broker.settled()
        record = task_row(service.db, spec.fingerprint())
        assert record.status == "done"

    def test_server_policy_governs_leases(self, service):
        """A client with a different local policy still gets server leases."""
        spec = _tiny_spec()
        broker = HttpBroker(service.url, policy=LeasePolicy(timeout=9999.0))
        assert broker.policy.timeout == FAST.timeout  # server's answer wins
        broker.enqueue([spec.to_dict()], [spec.fingerprint()])
        task = broker.claim("zombie")
        assert task.lease.expires_at - time.time() < FAST.timeout + 1.0
        time.sleep(FAST.timeout + 0.1)
        requeued, exhausted = broker.requeue_expired()
        assert (requeued, exhausted) == (1, 0)

    def test_policy_rpc_answers_the_derived_keys_too(self, service):
        """Earlier clients read all three keys of the ``policy`` answer."""
        assert rpc_call(service.url, "policy") == {
            "timeout": FAST.timeout,
            "heartbeat_interval": FAST.timeout / 4,
            "max_attempts": MAX_ATTEMPTS,
        }

    def test_fail_and_failed_payloads(self, service):
        spec = _tiny_spec()
        broker = HttpBroker(service.url)
        broker.enqueue([spec.to_dict()], [spec.fingerprint()])
        task = broker.claim("w1")
        assert broker.fail(task.fingerprint, "w1", "boom") is True
        fingerprint, payload, error = broker.failed_payloads()[0]
        assert fingerprint == spec.fingerprint()
        assert payload == spec.to_dict()
        assert error == "boom"

    def test_release_worker_and_drain(self, service):
        spec = _tiny_spec()
        broker = HttpBroker(service.url)
        broker.enqueue([spec.to_dict()], [spec.fingerprint()])
        broker.claim("doomed")
        assert broker.release_worker("doomed") == (1, 0)
        assert task_row(service.db, spec.fingerprint()).status == "pending"
        assert not broker.is_draining()
        broker.drain()
        assert broker.is_draining()

    def test_remote_worker_registers_its_own_pid(self, service):
        broker = HttpBroker(service.url)
        broker.register_worker("remote-w1")
        workers = {w["worker_id"]: w for w in broker.workers()}
        # the *client's* pid, not the server's (they share one here, so
        # register under an explicit fake remote pid as well)
        assert workers["remote-w1"]["pid"] == os.getpid()
        broker.register_worker("remote-w2", pid=424242)
        assert {w["worker_id"]: w for w in broker.workers()}["remote-w2"]["pid"] == 424242

    def test_claim_many_over_http(self, service):
        specs = [_tiny_spec(seed=s) for s in range(5)]
        broker = HttpBroker(service.url)
        broker.enqueue([s.to_dict() for s in specs], [s.fingerprint() for s in specs])
        batch = broker.claim_many("w1", 3)
        # one enqueue = one timestamp, so FIFO order ties break by fingerprint
        assert [t.fingerprint for t in batch] == sorted(s.fingerprint() for s in specs)[:3]
        assert broker.counts()["leased"] == 3
        rest = broker.claim_many("w2", 10)
        assert len(rest) == 2  # partial batch when the queue runs dry

    def test_stats_and_leased_detail(self, service):
        spec = _tiny_spec()
        broker = HttpBroker(service.url)
        broker.enqueue([spec.to_dict()], [spec.fingerprint()])
        broker.claim("w1")
        stats = broker.stats()
        assert stats["url"] == service.url
        assert stats["tasks"]["leased"] == 1
        (lease,) = stats["leased"]
        assert lease["worker_id"] == "w1"
        assert lease["attempts"] == 1 and lease["max_attempts"] == MAX_ATTEMPTS
        assert 0 < lease["expires_in_s"] <= FAST.timeout


class TestHttpResultStore:
    def test_put_get_round_trip(self, service):
        spec = _tiny_spec()
        result = run(spec)
        store = HttpResultStore(service.url)
        assert store.get(spec.fingerprint()) is None
        store.put(result, worker_id="w1")
        fetched = HttpResultStore(service.url).get(spec.fingerprint())  # no local memo
        assert fetched.fingerprint == result.fingerprint
        assert fetched.report == result.report
        assert store.fingerprints() == {result.fingerprint}

    def test_shared_with_sqlite_store(self, service):
        """HTTP writes land in the same rows the local store reads."""
        from repro.distributed import SqliteResultStore

        result = run(_tiny_spec())
        HttpResultStore(service.url).put(result)
        with SqliteResultStore(service.db) as local:
            assert local.get(result.fingerprint).report == result.report

    def test_cluster_result_round_trip(self, service):
        """Cluster payloads must parse on the HTTP read path, not fall
        through the corrupt-row branch and report a store miss."""
        from repro.cluster import ArrivalSpec, ClusterResult, ClusterSpec, run_cluster

        spec = ClusterSpec(
            arrival=ArrivalSpec(
                "poisson", {"benchmark": "sort", "num_jobs": 2, "inter_arrival": 30.0}
            ),
            strategy="s-resume",
            cluster={"num_nodes": 4, "slots_per_node": 4},
        )
        result = run_cluster(spec)
        # All jobs reach a terminal state, so every metric is finite and
        # the dict equality below is not comparing NaN to NaN.
        assert set(result.report.job_states) <= {"completed", "missed"}
        HttpResultStore(service.url).put(result)
        fetched = HttpResultStore(service.url).get(spec.fingerprint())  # no local memo
        assert isinstance(fetched, ClusterResult)
        assert fetched.to_dict() == result.to_dict()


    def test_payload_reads_take_one_round_trip_per_result_batch(self, service, monkeypatch):
        import math

        from repro.service import client

        result = run(_tiny_spec())
        HttpResultStore(service.url).put(result)
        fingerprints = [result.fingerprint] + [f"{i:064x}" for i in range(199)]
        calls = []
        real_rpc_call = client.rpc_call

        def counting_rpc_call(url, method, *args, **kwargs):
            calls.append(method)
            return real_rpc_call(url, method, *args, **kwargs)

        monkeypatch.setattr(client, "rpc_call", counting_rpc_call)
        store = HttpResultStore(service.url)
        payloads = store.get_payload_many(fingerprints)
        assert payloads == {result.fingerprint: result.to_dict()}
        rounds = math.ceil(len(fingerprints) / client.RESULT_BATCH)
        assert calls == ["result_texts"] * rounds == ["result_texts"] * 4
        calls.clear()
        # the sweep cache's read: the same chunks, decoded against held specs
        held = {fingerprint: result.spec for fingerprint in fingerprints}
        assert set(stored_results(store, held)) == {result.fingerprint}
        assert calls == ["result_texts"] * rounds


class TestProtocolVersion:
    """Protocol 2 carries payloads as text; protocol-1 peers fail loudly."""

    def test_healthz_reports_protocol_2(self, service):
        import urllib.request

        from repro.service import PROTOCOL_VERSION

        with urllib.request.urlopen(service.url + "/healthz", timeout=5.0) as response:
            assert json.loads(response.read())["protocol"] == PROTOCOL_VERSION == 2

    def test_protocol_1_result_read_is_an_unknown_method(self, service):
        """A 3.x client expecting payload objects gets a 400, not text it would drop."""
        result = run(_tiny_spec())
        HttpResultStore(service.url).put(result)
        with pytest.raises(ServiceError, match="HTTP 400 — unknown method 'result_get_many'"):
            rpc_call(service.url, "result_get_many", {"fingerprints": [result.fingerprint]})
        # the protocol-2 read of the same row answers its stored text
        texts = rpc_call(service.url, "result_texts", {"fingerprints": [result.fingerprint]})
        assert texts == {result.fingerprint: json.dumps(result.to_dict())}

    @pytest.mark.parametrize(
        "method, params",
        [
            ("task", {"fingerprint": "f" * 64}),
            ("tasks", {}),
            ("results", {}),
            ("result_len", {}),
        ],
    )
    def test_removed_readers_are_unknown_methods(self, service, method, params):
        """Task-row and whole-store readers left the wire in 15.0; protocol 2 is unchanged."""
        with pytest.raises(ServiceError, match=f"HTTP 400 — unknown method '{method}'"):
            rpc_call(service.url, method, params)

    def test_protocol_1_completion_is_an_unknown_method(self, service):
        spec = _tiny_spec()
        broker = HttpBroker(service.url)
        broker.enqueue([spec.to_dict()], [spec.fingerprint()])
        assert broker.claim_many("w1", 1)
        completions = [[spec.fingerprint(), run(spec).to_dict()]]
        with pytest.raises(ServiceError, match="unknown method 'complete_many'"):
            rpc_call(service.url, "complete_many", {"worker_id": "w1", "completions": completions})
        assert HttpResultStore(service.url).fingerprints() == set()
        assert task_row(service.db, spec.fingerprint()).status == "leased"

    def test_protocol_1_claim_answer_is_an_error(self):
        from repro.service.protocol import task_from_wire

        wire = {
            "fingerprint": "f" * 64,
            "payload": _tiny_spec().to_dict(),  # protocol 1 decoded the spec
            "attempts": 1,
            "lease": {"fingerprint": "f" * 64, "owner": "w1", "expires_at": 0.0},
        }
        with pytest.raises(TypeError, match="older protocol"):
            task_from_wire(wire)
        wire["payload"] = json.dumps(wire["payload"])
        assert task_from_wire(wire).payload == _tiny_spec().to_dict()


class TestHttpWorker:
    def test_worker_drains_queue_over_http(self, service):
        specs = [_tiny_spec(seed=s) for s in range(3)]
        broker = HttpBroker(service.url)
        broker.enqueue([s.to_dict() for s in specs], [s.fingerprint() for s in specs])
        worker = Worker(service.url, policy=FAST)
        assert worker.run() == 3
        worker.close()
        assert broker.counts()["done"] == 3
        store = HttpResultStore(service.url)
        for spec in specs:
            assert store.get(spec.fingerprint()) is not None

    def test_worker_exits_when_remote_queue_drains(self, service):
        HttpBroker(service.url).drain()
        worker = Worker(service.url, policy=FAST, exit_when_idle=False)
        assert worker.run() == 0
        worker.close()

    def test_worker_rides_out_transient_service_errors(self, service, quick_poll):
        """A couple of dropped requests must not kill a fleet member."""
        spec = _tiny_spec()
        HttpBroker(service.url).enqueue([spec.to_dict()], [spec.fingerprint()])
        worker = Worker(service.url, policy=FAST)
        real_claim = worker._broker.claim_many
        blips = {"left": 2}

        def flaky(worker_id, limit):
            if blips["left"]:
                blips["left"] -= 1
                raise ServiceError("simulated dropped request")
            return real_claim(worker_id, limit)

        worker._broker.claim_many = flaky
        assert worker.run() == 1  # survived the blips and finished the task
        worker.close()
        assert blips["left"] == 0

    def test_worker_gives_up_after_persistent_transport_failure(self, quick_poll):
        """An unreachable service is not retried forever."""
        worker = Worker("http://127.0.0.1:9", policy=FAST)
        with pytest.raises(ServiceError):
            worker.run()
        worker.close()

    def test_heartbeats_pace_to_server_policy(self, service, slow_workload):
        """A slow task outliving the *server's* lease timeout stays leased.

        The client's own policy has a uselessly long heartbeat interval;
        the worker must discover the server's (much shorter) lease terms
        and beat at that cadence, or the task would expire mid-run and
        burn an attempt.
        """
        lazy = LeasePolicy(timeout=240.0)
        spec = ScenarioSpec(
            workload=WorkloadSpec(
                slow_workload, {"jobs": _job_dicts(), "delay_s": FAST.timeout + 1.0}
            ),
            strategy="s-resume",
            strategy_params={"tau_est": 30.0, "tau_kill": 60.0, "fixed_r": 1},
            cluster={"num_nodes": 0},
        )
        broker = HttpBroker(service.url)
        broker.enqueue([spec.to_dict()], [spec.fingerprint()])
        worker = Worker(service.url, policy=lazy)
        assert worker.run() == 1
        worker.close()
        record = task_row(service.db, spec.fingerprint())
        assert record.status == "done"
        assert record.attempts == 1  # never expired, never requeued



def _payload(result):
    """A result's deterministic payload: everything but the local wall time."""
    data = result.to_dict()
    data.pop("wall_time_s")
    return data

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


class TestMultiHostParity:
    """Acceptance: fleets over HTTP are byte-identical to inline."""

    def test_two_fleets_one_broker_matches_inline(self, service):
        base = _tiny_spec()
        sweep = twelve_scenario_sweep(base)
        inline = sweep.run(executor="inline")

        # two independent fleets (as if on two hosts) attach first, in
        # service mode, then a fleetless sweep is driven over the same URL
        fleet_a = WorkerPool(service.url, workers=2, policy=FAST, exit_when_idle=False)
        fleet_b = WorkerPool(service.url, workers=2, policy=FAST, exit_when_idle=False)
        fleet_a.start()
        fleet_b.start()
        try:
            distributed = sweep.run(
                executor="distributed", broker=service.url, lease_timeout=FAST.timeout
            )
        finally:
            HttpBroker(service.url).drain()
            fleet_a.join(timeout=10.0)
            fleet_b.join(timeout=10.0)
            fleet_a.terminate()
            fleet_b.terminate()

        assert distributed.executed == 12 and distributed.cache_hits == 0
        assert [r.fingerprint for r in distributed.results] == [
            r.fingerprint for r in inline.results
        ]
        # byte-identical payloads, not just matching fingerprints
        assert [_payload(r) for r in distributed.results] == [
            _payload(r) for r in inline.results
        ]

        # identical re-run over HTTP: answered by the store, zero executions
        rerun = sweep.run(executor="distributed", broker=service.url)
        assert rerun.executed == 0 and rerun.cache_hits == 12
        assert [_payload(r) for r in rerun.results] == [_payload(r) for r in inline.results]

    def test_local_pool_speaking_http_matches_inline(self, service):
        base = _tiny_spec()
        sweep = twelve_scenario_sweep(base)
        distributed = sweep.run(
            executor="distributed", broker=service.url, workers=3,
            lease_timeout=FAST.timeout,
        )
        inline = sweep.run(executor="inline")
        assert distributed.executed == 12
        assert [_payload(r) for r in distributed.results] == [
            _payload(r) for r in inline.results
        ]

    def test_fleetless_idle_service_falls_back_inline(self, service):
        """No fleet attached and none spawned: the parent drains inline —
        and says so (RuntimeWarning + ScenarioRetried events) instead of
        the stall being silent."""
        spec = _tiny_spec()
        with pytest.warns(RuntimeWarning, match="draining the remaining"):
            outcome = run_specs(
                [spec], executor="distributed", broker=service.url, lease_timeout=2.0
            )
        assert outcome.executed == 1
        assert HttpBroker(service.url).counts()["done"] == 1

    def test_scenario_error_propagates_over_http(self, service):
        bad = _tiny_spec().with_overrides(
            {"workload": {"kind": "benchmark", "params": {"name": "sort", "num_jobs": 0}}}
        )
        with pytest.raises(TaskFailedError):
            run_specs(
                [bad], executor="distributed", broker=service.url, workers=1,
                lease_timeout=FAST.timeout,
            )


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="worker-kill recovery relies on fork-inherited test workload plugins",
)
class TestSupervisedFleetRecovery:
    def test_sigkilled_remote_worker_restarts_and_sweep_completes(
        self, service, slow_workload, monkeypatch
    ):
        """Acceptance: SIGKILL one fleet member mid-task; the supervised
        pool replaces it without operator action and results still match
        inline byte for byte."""
        base = ScenarioSpec(
            workload=WorkloadSpec(slow_workload, {"jobs": _job_dicts(), "delay_s": 0.4}),
            strategy="s-resume",
            strategy_params={"tau_est": 30.0, "tau_kill": 60.0, "fixed_r": 1},
            cluster={"num_nodes": 0},
        )
        sweep = twelve_scenario_sweep(base)
        import repro.distributed.worker as worker_module

        monkeypatch.setattr(worker_module, "CLAIM_BATCH", 2)
        monkeypatch.setattr(worker_module, "RESTART_BACKOFF_S", 0.05)
        monkeypatch.setattr(worker_module, "RESTART_BACKOFF_MAX_S", 0.05)
        pool = WorkerPool(
            service.url,
            workers=3,
            policy=FAST,
            exit_when_idle=False,
            restart_policy=RestartPolicy(burst=3),
        )
        pool.start()
        watcher = HttpBroker(service.url)
        killed = {}
        stop_supervising = threading.Event()

        def supervisor_loop():
            """What `workers start` does: reap, restart, repeat."""
            supervisor_broker = HttpBroker(service.url)
            while not stop_supervising.is_set():
                pool.supervise(supervisor_broker)
                time.sleep(0.05)

        def kill_first_leaseholder():
            fleet_pids = {process.pid for process in pool.processes}
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                leased = watcher.leased()
                pids = {w["worker_id"]: w["pid"] for w in watcher.workers()}
                for row in leased:
                    pid = pids.get(row["worker_id"])
                    if pid in fleet_pids:
                        killed["fingerprint"] = row["fingerprint"]
                        killed["worker_id"] = row["worker_id"]
                        os.kill(pid, signal.SIGKILL)
                        return
                time.sleep(0.005)

        supervisor = threading.Thread(target=supervisor_loop)
        assassin = threading.Thread(target=kill_first_leaseholder)
        supervisor.start()
        assassin.start()
        try:
            distributed = sweep.run(
                executor="distributed", broker=service.url, lease_timeout=FAST.timeout
            )
        finally:
            assassin.join()
            stop_supervising.set()
            supervisor.join()
            watcher.drain()
            pool.join(timeout=10.0)
            pool.terminate()

        assert killed, "no fleet worker was observed holding a lease"
        assert distributed.executed == 12
        assert pool.restarts_used >= 1, "supervision did not replace the dead member"
        assert killed["worker_id"] not in pool.worker_ids  # replaced, not resurrected

        inline = sweep.run(executor="inline")
        assert [_payload(r) for r in distributed.results] == [
            _payload(r) for r in inline.results
        ]

        # the interrupted task was re-claimed (second attempt) and completed
        record = task_row(service.db, killed["fingerprint"])
        assert record.status == "done"
        assert record.attempts >= 2


class TestEventLogRpc:
    """The broker's monotonic event log crosses the wire unchanged."""

    def test_events_since_relays_the_queue_log(self, service):
        spec = _tiny_spec()
        broker = HttpBroker(service.url)
        assert broker.last_event_seq() == 0
        assert broker.events_since(0) == []
        broker.enqueue([spec.to_dict()], [spec.fingerprint()])
        task = broker.claim("w1")
        broker.complete(task.fingerprint, "w1", run(ScenarioSpec.from_dict(task.payload)).to_dict())
        events = broker.events_since(0)
        assert [e["kind"] for e in events] == ["queued", "started", "completed"]
        seqs = [e["seq"] for e in events]
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)
        assert broker.last_event_seq() == seqs[-1]
        assert events[1]["worker_id"] == "w1"
        assert all(e["fingerprint"] == spec.fingerprint() for e in events)
        # resuming from the last seen seq yields nothing new
        assert broker.events_since(seqs[-1]) == []
        # batching: limit caps one round trip, seq resumes the tail
        first, second = broker.events_since(0, limit=2), broker.events_since(2)
        assert [e["seq"] for e in first + second] == seqs

    def test_record_watermark_and_prune_round_trip(self, service):
        """The retention RPCs behave like the local broker (PR 6 satellite)."""
        spec = _tiny_spec()
        broker = HttpBroker(service.url)
        seq = broker.record_event("trial-proposed", "fp0", detail="t-abc")
        assert seq == 1
        (row,) = broker.events_since(0)
        assert row["kind"] == "trial-proposed" and row["detail"] == "t-abc"
        with pytest.raises(ServiceError, match="unknown event kind"):
            broker.record_event("trial-started")

        broker.enqueue([spec.to_dict()], [spec.fingerprint()])
        queued_seq = broker.last_event_seq()
        assert broker.done_watermark() == queued_seq  # pending task pins its event
        assert broker.prune_events() == 1  # only the settled trial-proposed row goes
        task = broker.claim("w1")
        broker.complete(task.fingerprint, "w1", run(ScenarioSpec.from_dict(task.payload)).to_dict())
        assert broker.done_watermark() == broker.last_event_seq() + 1
        assert broker.prune_events() == 3  # queued, started, completed
        assert broker.events_since(0) == []
        stats = broker.stats()
        assert stats["events_retained"] == 0 and stats["events_first"] is None

    def test_search_mirrors_trial_events_through_the_service(self, service):
        """An adaptive search against the service URL logs its decisions."""
        from repro.api import run_search

        base = _tiny_spec()
        result = run_search(
            base,
            {"strategy_params.fixed_r": [1, 2], "seed": [0, 1]},
            algorithm="successive_halving",
            objective="utility",
            executor="distributed",
            broker=service.url,
            workers=2,
        )
        assert result.executed >= 1 and result.pruned >= 1
        broker = HttpBroker(service.url)
        kinds = [e["kind"] for e in broker.events_since(0, limit=10_000)]
        assert "trial-proposed" in kinds
        assert "trial-pruned" in kinds
        assert kinds[-1] == "search-finished"

    def test_release_pending_over_http(self, service):
        specs = [_tiny_spec(seed=s) for s in range(3)]
        broker = HttpBroker(service.url)
        broker.enqueue([s.to_dict() for s in specs], [s.fingerprint() for s in specs])
        claimed = broker.claim("w1")
        released = broker.release_pending([s.fingerprint() for s in specs])
        assert released == 2  # the claimed task keeps its lease
        counts = broker.counts()
        assert counts["pending"] == 0 and counts["leased"] == 1
        assert claimed.fingerprint == broker.leased()[0]["fingerprint"]

    def test_lease_expiry_is_logged_as_retried(self, service):
        spec = _tiny_spec()
        broker = HttpBroker(service.url)
        broker.enqueue([spec.to_dict()], [spec.fingerprint()])
        broker.claim("zombie")
        time.sleep(FAST.timeout + 0.1)
        broker.requeue_expired()
        kinds = [e["kind"] for e in broker.events_since(0)]
        assert kinds == ["queued", "started", "retried"]

    def test_sweep_streams_live_events_over_http(self, service):
        """Acceptance: per-scenario events arrive before the sweep ends."""
        from repro.api import ScenarioCompleted, SweepFinished, SweepStarted, stream_specs

        specs = [_tiny_spec(seed=s) for s in range(4)]
        events = list(
            stream_specs(specs, executor="distributed", broker=service.url, workers=2)
        )
        assert isinstance(events[0], SweepStarted)
        assert isinstance(events[-1], SweepFinished) and events[-1].executed == 4
        completed = [e for e in events if isinstance(e, ScenarioCompleted)]
        assert sorted(e.fingerprint for e in completed) == sorted(
            s.fingerprint() for s in specs
        )
        # incrementality: the first completion is not the stream's last word
        first_completion = events.index(completed[0])
        assert first_completion < len(events) - 2


class TestFleetlessStallObservability:
    def test_inline_drain_fallback_warns_and_emits_retries(self, service):
        """The stall fallback is announced, not silent (PR 5 satellite)."""
        from repro.api import ScenarioRetried, stream_specs

        spec = _tiny_spec()
        with pytest.warns(RuntimeWarning, match="no worker fleet attached"):
            events = list(
                stream_specs(
                    [spec], executor="distributed", broker=service.url, lease_timeout=2.0
                )
            )
        retried = [e for e in events if isinstance(e, ScenarioRetried)]
        assert any("draining inline" in e.reason for e in retried)
        assert events[-1].executed == 1  # the drain still completed the sweep

    def test_failure_inside_the_driver_is_final(self, service):
        """A scenario the stall drain runs and that fails is not retried.

        It executes once in the driver and ends in exactly one
        ``ScenarioFailed`` — or ``TaskFailedError`` under the default
        ``on_failure="raise"`` — with the drain announcement as its only
        ``ScenarioRetried``.
        """
        from repro.api import ScenarioFailed, ScenarioRetried, stream_specs

        runs = []

        def build(seed, **params):
            runs.append(seed)
            raise RuntimeError("doomed scenario")

        register_workload("test-doomed", build)
        try:
            doomed = _tiny_spec().with_overrides(
                {"workload": {"kind": "test-doomed", "params": {}}}
            )
            with pytest.warns(RuntimeWarning, match="no worker fleet attached"):
                events = list(
                    stream_specs(
                        [doomed], executor="distributed", broker=service.url,
                        lease_timeout=1.0, on_failure="continue",
                    )
                )
            assert runs == [0]
            failed = [e for e in events if isinstance(e, ScenarioFailed)]
            assert len(failed) == 1 and "doomed scenario" in failed[0].error
            retried = [e for e in events if isinstance(e, ScenarioRetried)]
            assert len(retried) == 1 and "draining inline" in retried[0].reason
            assert events[-1].failures == 1

            with pytest.warns(RuntimeWarning, match="no worker fleet attached"):
                with pytest.raises(TaskFailedError, match="doomed scenario"):
                    run_specs(
                        [doomed.with_overrides({"seed": 1})], executor="distributed",
                        broker=service.url, lease_timeout=1.0,
                    )
            assert runs == [0, 1]
        finally:
            WORKLOADS.unregister("test-doomed")


KEEPALIVE_TOKEN = "keepalive-secret-0123456789abcdef"


@dataclass
class KeepAliveService:
    url: str
    server: object
    credentials: dict
    #: Client ports of every accepted TCP connection, in accept order.
    accepted: list
    #: ``(rpc method, server thread ident)`` per call — one server thread
    #: per connection, so the ident names the connection a call rode on.
    calls: list

    def broker(self) -> HttpBroker:
        return HttpBroker(self.url, **self.credentials)


@pytest.fixture(params=["http", "https+token"])
def keepalive(request, tmp_path, monkeypatch):
    """A service recording its connections, over http or https with a token."""
    from repro.service import ServiceHTTPServer
    from repro.service.server import BrokerService

    for variable in ("CHRONOS_TOKEN", "CHRONOS_CAFILE", "CHRONOS_TLS_VERIFY"):
        monkeypatch.delenv(variable, raising=False)
    accepted, calls = [], []
    process_request = ServiceHTTPServer.process_request
    call = BrokerService.call

    def recording_process_request(self, connection, client_address):
        accepted.append(client_address[1])
        process_request(self, connection, client_address)

    def recording_call(self, method, params=None):
        calls.append((method, threading.get_ident()))
        return call(self, method, params)

    monkeypatch.setattr(ServiceHTTPServer, "process_request", recording_process_request)
    monkeypatch.setattr(BrokerService, "call", recording_call)
    kwargs, credentials = {}, {}
    if request.param == "https+token":
        certfile, keyfile = request.getfixturevalue("tls_material")
        kwargs = {"token": KEEPALIVE_TOKEN, "certfile": certfile, "keyfile": keyfile}
        credentials = {"token": KEEPALIVE_TOKEN, "cafile": str(certfile)}
    server = make_server(tmp_path / "queue.sqlite", host="127.0.0.1", port=0, policy=FAST, **kwargs)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    scheme = "https" if server.tls else "http"
    url = f"{scheme}://127.0.0.1:{server.server_address[1]}"
    try:
        yield KeepAliveService(url, server, credentials, accepted, calls)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5.0)


def _fork_settled(broker: HttpBroker, out) -> None:
    out.put(broker.settled())


class TestKeepAlive:
    """Persistent RPC connections: reuse, reconnects, forks and threads."""

    def test_calls_reuse_one_connection(self, keepalive):
        broker = keepalive.broker()
        for _ in range(5):
            assert broker.settled() is True
        assert len(keepalive.accepted) == 1

    def test_idle_close_reconnects_exactly_once(self, keepalive, monkeypatch):
        from repro.service import ServiceRequestHandler

        monkeypatch.setattr(ServiceRequestHandler, "timeout", 0.3)
        broker = keepalive.broker()
        assert broker.settled() is True
        time.sleep(0.8)  # the server closes the idle connection
        assert broker.settled() is True  # transparent: no error surfaces
        assert len(keepalive.accepted) == 2  # one reconnect, not more
        assert broker.settled() is True
        assert len(keepalive.accepted) == 2

    def test_forked_child_opens_its_own_socket(self, keepalive):
        broker = keepalive.broker()
        assert broker.settled() is True
        context = multiprocessing.get_context("fork")
        out = context.Queue()
        child = context.Process(target=_fork_settled, args=(broker, out))
        child.start()
        assert out.get(timeout=30.0) is True
        child.join(timeout=30.0)
        assert child.exitcode == 0
        assert len(keepalive.accepted) == 2  # the child did not reuse ours
        # ... and the parent's own connection survived the child's exit
        assert broker.settled() is True
        assert len(keepalive.accepted) == 2

    def test_worker_and_heartbeat_thread_use_separate_connections(
        self, keepalive, slow_workload, monkeypatch, quick_poll
    ):
        # workers take their credentials from the environment
        if keepalive.credentials:
            monkeypatch.setenv("CHRONOS_TOKEN", keepalive.credentials["token"])
            monkeypatch.setenv("CHRONOS_CAFILE", keepalive.credentials["cafile"])
        spec = ScenarioSpec(
            workload=WorkloadSpec(slow_workload, {"jobs": _job_dicts(), "delay_s": 0.8}),
            strategy="s-resume",
            strategy_params={"tau_est": 30.0, "tau_kill": 60.0, "fixed_r": 1},
            cluster={"num_nodes": 0},
        )
        keepalive.broker().enqueue([spec.to_dict()], [spec.fingerprint()])
        worker = Worker(keepalive.url, worker_id="w-ka", policy=FAST)
        assert worker._heartbeat_broker() is worker._broker  # one shared client
        try:
            assert worker.run() == 1
        finally:
            worker.close()
        loop = {ident for method, ident in keepalive.calls if method == "complete_texts"}
        beats = {ident for method, ident in keepalive.calls if method == "heartbeat"}
        assert loop and beats
        assert loop.isdisjoint(beats)

    def test_fresh_connection_failure_is_not_retried(self, keepalive):
        """A peer that hangs up at once is an error on the first try."""
        import socket

        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(8)
        hangups = []

        def hang_up():
            while True:
                try:
                    connection, _ = listener.accept()
                except OSError:
                    return
                hangups.append(connection)
                connection.close()

        threading.Thread(target=hang_up, daemon=True).start()
        scheme = keepalive.url.split(":")[0]
        url = f"{scheme}://127.0.0.1:{listener.getsockname()[1]}"
        try:
            with pytest.raises(ServiceError, match="cannot reach"):
                HttpBroker(url, **keepalive.credentials).settled()
            time.sleep(0.2)
            assert len(hangups) == 1
        finally:
            listener.close()

    def test_dead_server_after_reuse_is_a_service_error(self, keepalive):
        """The one reconnect of a stale socket fails cleanly, too."""
        broker = keepalive.broker()
        assert broker.settled() is True
        keepalive.server.shutdown()
        keepalive.server.server_close()  # also ends the open keep-alive socket
        with pytest.raises(ServiceError, match="cannot reach"):
            broker.settled()

    def test_close_drops_only_the_calling_threads_connection(self, keepalive):
        broker = keepalive.broker()
        assert broker.settled() is True
        broker.close()
        assert broker.settled() is True  # a fresh connection, not an error
        assert len(keepalive.accepted) == 2
