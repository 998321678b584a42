"""One contract for every queue target, run against all three of them.

The sqlite ``Broker``/``SqliteResultStore`` are the contract.  The HTTP
backends expose the same public methods with the same signatures
(transport-specific members aside), and behave the same whether the
target is a sqlite file, an ``http://`` service, or an ``https://``
service with a bearer token:

- ``get_many`` answers hits, omits misses, and treats a corrupt stored
  row (unparseable JSON, or JSON that is not a result) as a miss, and
  so does a distributed sweep driving the backend; ``get_payload_many``
  keeps the rows that are JSON objects;
- a completed result is stored as the same bytes on every backend,
  ``json.dumps`` of its ``to_dict()`` (what 3.1 stored), and a
  completion whose text is not a JSON object is rejected (``ValueError``
  on sqlite, HTTP 400 over the wire) with nothing stored and the lease
  still held;
- ``complete_many`` logs one ``completed`` event per fingerprint, in
  input order, and is idempotent when re-completed;
- the completing worker's ``tasks_done`` grows by the batch size;
- ``leased(now)`` reports lease expiry against the caller's clock;
- ``results()`` and ``summary_rows(columns)`` return every stored row,
  the rows being the results' ``summary_row()`` cells (NaN included),
  and an unknown summary column is a ``ValueError``;
- ``events_since(..., wait_s)`` is a long poll that returns when the
  queue settles, when ``wait_s`` passes, or at once when ``limit`` rows
  are already there, and a parked call blocks no other call.
"""

from __future__ import annotations

import inspect
import json
import math
import sqlite3
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import List

import pytest

from repro.api import ScenarioSpec, WorkloadSpec, job_spec_to_dict, run, run_specs
from repro.distributed import (
    Broker,
    LeasePolicy,
    SqliteResultStore,
    open_broker,
    open_store,
)
from repro.service import HttpBroker, HttpResultStore, ServiceError, make_server
from repro.simulator.entities import JobSpec

TOKEN = "contract-secret-0123456789abcdef"

FAST = LeasePolicy(timeout=5.0)


def _spec(seed: int) -> ScenarioSpec:
    jobs = [
        job_spec_to_dict(
            JobSpec(job_id=f"j{i}", num_tasks=3, deadline=90.0, tmin=15.0, beta=1.5,
                    submit_time=2.0 * i)
        )
        for i in range(2)
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


@dataclass
class Backend:
    target: str
    credentials: dict
    #: The sqlite file holding the backend's rows.
    db: Path

    def broker(self):
        return open_broker(self.target, policy=FAST, **self.credentials)

    def store(self):
        return open_store(self.target, **self.credentials)

    @property
    def sqlite(self) -> bool:
        return self.target.startswith("sqlite:")

    def rows(self) -> dict:
        """Every stored result row's payload text, by fingerprint."""
        with sqlite3.connect(str(self.db)) as conn:
            return dict(conn.execute("SELECT fingerprint, payload FROM results"))


@pytest.fixture(params=["sqlite", "http", "https+token"])
def backend(request, tmp_path, monkeypatch):
    for variable in ("CHRONOS_TOKEN", "CHRONOS_CAFILE", "CHRONOS_TLS_VERIFY"):
        monkeypatch.delenv(variable, raising=False)
    db = tmp_path / "queue.sqlite"
    if request.param == "sqlite":
        yield Backend(f"sqlite:{db}", {}, db)
        return
    kwargs, credentials = {}, {}
    if request.param == "https+token":
        certfile, keyfile = request.getfixturevalue("tls_material")
        kwargs = {"token": TOKEN, "certfile": certfile, "keyfile": keyfile}
        credentials = {"token": TOKEN, "cafile": str(certfile)}
    server = make_server(db, host="127.0.0.1", port=0, policy=FAST, **kwargs)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    scheme = "https" if server.tls else "http"
    try:
        yield Backend(f"{scheme}://127.0.0.1:{server.server_address[1]}", credentials, db)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5.0)


def _complete(backend: Backend, specs: List[ScenarioSpec], worker_id: str = "w1"):
    """Enqueue, claim and batch-complete ``specs``; returns their results."""
    results = [run(spec) for spec in specs]
    broker = backend.broker()
    try:
        broker.register_worker(worker_id)
        broker.enqueue([s.to_dict() for s in specs], [s.fingerprint() for s in specs])
        assert len(broker.claim_many(worker_id, len(specs))) == len(specs)
        broker.complete_many(worker_id, [(r.fingerprint, r.to_dict()) for r in results])
    finally:
        broker.close()
    return results


def _write_row(db: Path, fingerprint: str, payload: str) -> None:
    with sqlite3.connect(str(db)) as conn:
        conn.execute(
            "INSERT OR REPLACE INTO results (fingerprint, payload, worker_id, created_at) "
            "VALUES (?, ?, NULL, 0)",
            (fingerprint, payload),
        )


class TestGetMany:
    def test_hits_misses_and_corrupt_rows(self, backend):
        results = _complete(backend, [_spec(seed) for seed in range(3)])
        not_json, not_a_result = _spec(10).fingerprint(), _spec(11).fingerprint()
        not_an_object = _spec(13).fingerprint()
        _write_row(backend.db, not_json, "{not json")
        _write_row(backend.db, not_a_result, '{"spec": 1}')
        _write_row(backend.db, not_an_object, "[1, 2]")
        missing = _spec(12).fingerprint()
        asked = [results[0].fingerprint, missing, not_json, results[1].fingerprint,
                 not_a_result, not_an_object, results[2].fingerprint]
        store = backend.store()
        try:
            found = store.get_many(asked)
            assert set(found) == {result.fingerprint for result in results}
            for result in results:
                assert found[result.fingerprint].to_dict() == result.to_dict()
            # the point read is the same path: corrupt rows are misses
            assert store.get(not_json) is None and store.get(not_a_result) is None
            assert store.get(missing) is None
            assert store.get_many([]) == {}
            # raw payload reads keep JSON objects only
            payloads = store.get_payload_many(asked)
            assert payloads == {
                **{result.fingerprint: result.to_dict() for result in results},
                not_a_result: {"spec": 1},
            }
        finally:
            store.close()


class TestCorruptRows:
    def test_a_distributed_sweep_reruns_corrupt_rows(self, backend, monkeypatch):
        corrupt = ("{not json", '"a string"', "[1, 2]", '{"spec": 1}')
        specs = [_spec(20 + i) for i in range(len(corrupt))]
        backend.store().close()  # creates the schema of a fresh sqlite file
        for spec, text in zip(specs, corrupt):
            _write_row(backend.db, spec.fingerprint(), text)
        if backend.sqlite:
            target = {"db": backend.db}
        else:
            target = {"broker": backend.target}
            for name, variable in (("token", "CHRONOS_TOKEN"), ("cafile", "CHRONOS_CAFILE")):
                if name in backend.credentials:
                    monkeypatch.setenv(variable, backend.credentials[name])
        outcome = run_specs(specs, executor="distributed", workers=1, **target)
        assert outcome.executed == len(specs) and outcome.cache_hits == 0
        assert [r.report for r in outcome.results] == [run(spec).report for spec in specs]


class TestStoredPayloadText:
    def test_stored_bytes_are_the_same_on_every_backend(self, backend):
        results = _complete(backend, [_spec(seed) for seed in range(3)])
        # 3.1 stored json.dumps(result.to_dict()) on every backend
        assert backend.rows() == {r.fingerprint: json.dumps(r.to_dict()) for r in results}

    @pytest.mark.parametrize("text", ["{not json", "[1, 2]", '"text"', "", {"spec": 1}])
    def test_completion_text_that_is_not_an_object_is_rejected(self, backend, text):
        spec, good = _spec(0), run(_spec(1))
        broker = backend.broker()
        try:
            broker.register_worker("w1")
            broker.enqueue(
                [spec.to_dict(), good.spec.to_dict()], [spec.fingerprint(), good.fingerprint]
            )
            assert len(broker.claim_many("w1", 2)) == 2
            # one bad text rejects the whole batch, the good result included
            completions = [
                (good.fingerprint, json.dumps(good.to_dict())), (spec.fingerprint(), text)
            ]
            if backend.sqlite:
                with pytest.raises(ValueError, match="not a JSON object"):
                    broker._complete_texts("w1", completions)
            else:
                with pytest.raises(ServiceError, match="HTTP 400.*not a JSON object"):
                    broker._call("complete_texts", worker_id="w1", completions=completions)
            assert backend.rows() == {}
            for fingerprint in (spec.fingerprint(), good.fingerprint):
                record = broker.task(fingerprint)
                assert (record.status, record.lease_owner) == ("leased", "w1")
            assert broker.counts()["done"] == 0
        finally:
            broker.close()


class TestCompleteMany:
    def test_one_completed_event_per_fingerprint_in_input_order(self, backend):
        specs = [_spec(seed) for seed in range(5)]
        broker = backend.broker()
        try:
            since = broker.last_event_seq()
            broker.register_worker("w1")
            broker.enqueue([s.to_dict() for s in specs], [s.fingerprint() for s in specs])
            broker.claim_many("w1", len(specs))
            # deliberately not the claim (fingerprint) order
            order = [specs[i].fingerprint() for i in (3, 0, 4, 1, 2)]
            results = {s.fingerprint(): run(s).to_dict() for s in specs}
            broker.complete_many("w1", [(fp, results[fp]) for fp in order])
            completed = [
                row["fingerprint"]
                for row in broker.events_since(since, limit=1000)
                if row["kind"] == "completed"
            ]
        finally:
            broker.close()
        assert completed == order

    def test_tasks_done_grows_by_batch_size(self, backend):
        specs = [_spec(seed) for seed in range(4)]
        _complete(backend, specs, worker_id="w-count")
        broker = backend.broker()
        try:
            (row,) = [w for w in broker.workers() if w["worker_id"] == "w-count"]
            assert row["tasks_done"] == len(specs)
        finally:
            broker.close()

    def test_recompletion_is_idempotent(self, backend):
        specs = [_spec(seed) for seed in range(3)]
        results = _complete(backend, specs)
        broker, store = backend.broker(), backend.store()
        try:
            before = broker.counts()
            # a second worker whose leases were lost commits identical work
            broker.complete_many("w2", [(r.fingerprint, r.to_dict()) for r in results])
            assert broker.counts() == before == {
                "pending": 0, "leased": 0, "done": 3, "failed": 0
            }
            assert len(store) == 3
            store.clear()
            found = store.get_many([r.fingerprint for r in results])
            assert [found[r.fingerprint].to_dict() for r in results] == [
                r.to_dict() for r in results
            ]
            assert all(broker.task(r.fingerprint).status == "done" for r in results)
            assert broker.complete_many("w2", []) is None  # empty batch: no-op
        finally:
            broker.close()
            store.close()


#: Members only some transports have: endpoint identity, credentials,
#: the server-side telemetry snapshot, and the store's raw-payload and
#: maintenance methods.
TRANSPORT_SPECIFIC = {
    "url", "credentials", "path", "metrics", "put_payload",
}


def _surface(cls) -> dict:
    """Public members of ``cls``: name → signature (or ``"property"``)."""
    surface = {}
    for name in dir(cls):
        if name.startswith("_") and name not in ("__len__", "__contains__"):
            continue
        if name in TRANSPORT_SPECIFIC or name.startswith("get_payload"):
            continue
        member = inspect.getattr_static(cls, name)
        surface[name] = (
            "property" if isinstance(member, property) else inspect.signature(getattr(cls, name))
        )
    return surface


@pytest.mark.parametrize(
    "contract, implementations",
    [
        (Broker, (HttpBroker,)),
        (SqliteResultStore, (HttpResultStore,)),
    ],
    ids=["broker", "result-store"],
)
def test_every_backend_exposes_the_sqlite_surface(contract, implementations):
    expected = _surface(contract)
    for implementation in implementations:
        actual = _surface(implementation)
        assert sorted(actual) == sorted(expected), implementation.__name__
        for name, signature in expected.items():
            assert actual[name] == signature, f"{implementation.__name__}.{name}"


class TestSurfaceBehaviour:
    def test_leased_reports_against_the_given_clock(self, backend):
        specs = [_spec(seed) for seed in range(4)]
        fixed = 1_000.0
        broker = backend.broker()
        try:
            broker.register_worker("w1")
            broker.enqueue([s.to_dict() for s in specs], [s.fingerprint() for s in specs])
            claimed = broker.claim_many("w1", len(specs))
            assert len(claimed) == len(specs)
            leased = {row["fingerprint"]: row["expires_in_s"] for row in broker.leased(now=fixed)}
            expected = {
                task.fingerprint: broker.task(task.fingerprint).lease_expires_at - fixed
                for task in claimed
            }
        finally:
            broker.close()
        assert leased == expected

    def test_results_and_summary_rows_agree(self, backend):
        results = sorted(
            _complete(backend, [_spec(seed) for seed in range(4)] + [_nan_spec()]),
            key=lambda result: result.fingerprint,
        )
        columns = ["fingerprint", "pocd", "mean_response_time"]
        store = backend.store()
        try:
            stored = sorted(store.results(), key=lambda result: result.fingerprint)
            rows = sorted(store.summary_rows(columns), key=lambda row: row["fingerprint"])
        finally:
            store.close()
        assert any(math.isnan(row["mean_response_time"]) for row in rows)
        # json.dumps spells NaN as NaN on both sides (and None as null)
        assert json.dumps([r.to_dict() for r in stored]) == json.dumps(
            [r.to_dict() for r in results]
        )
        assert json.dumps(rows) == json.dumps(
            [{column: r.summary_row()[column] for column in columns} for r in results]
        )

    def test_unknown_summary_column_is_a_value_error(self, backend):
        store = backend.store()
        try:
            with pytest.raises(ValueError, match="unknown summary column"):
                store.summary_rows(["fingerprint", "no_such_column"])
            with pytest.raises(ValueError, match="at least one"):
                store.summary_rows([])
        finally:
            store.close()


class TestLongPoll:
    """``events_since(seq, limit, wait_s)``: wait for the queue to settle."""

    def _leased(self, broker, count: int = 1):
        """Enqueue ``count`` specs and claim them all; returns (since, specs)."""
        specs = [_spec(seed) for seed in range(count)]
        since = broker.last_event_seq()
        broker.register_worker("w1")
        broker.enqueue([s.to_dict() for s in specs], [s.fingerprint() for s in specs])
        assert len(broker.claim_many("w1", count)) == count
        return since, specs

    def test_zero_wait_behaves_as_a_plain_read(self, backend):
        broker = backend.broker()
        try:
            since, specs = self._leased(broker, 2)
            started = time.monotonic()
            rows = broker.events_since(since, limit=1000, wait_s=0)
            assert time.monotonic() - started < 0.5
            assert rows == broker.events_since(since, limit=1000)
            assert [row["kind"] for row in rows] == ["queued"] * 2 + ["started"] * 2
        finally:
            broker.close()

    def test_returns_when_another_thread_settles_the_queue(self, backend):
        broker = backend.broker()
        try:
            since, (spec,) = self._leased(broker)
            payload = run(spec).to_dict()
            completed_at = []

            def complete_later():
                time.sleep(0.3)
                other = backend.broker()
                try:
                    other.complete_many("w1", [(spec.fingerprint(), payload)])
                    completed_at.append(time.monotonic())
                finally:
                    other.close()

            thread = threading.Thread(target=complete_later)
            thread.start()
            rows = broker.events_since(since, limit=1000, wait_s=5)
            returned_at = time.monotonic()
            thread.join()
        finally:
            broker.close()
        assert completed_at and returned_at - completed_at[0] < 1.0
        assert rows[-1]["kind"] == "completed"
        assert rows[-1]["fingerprint"] == spec.fingerprint()

    def test_unsettled_queue_returns_at_the_timeout(self, backend):
        broker = backend.broker()
        try:
            since, (spec,) = self._leased(broker)
            started = time.monotonic()
            rows = broker.events_since(since, limit=1000, wait_s=0.4)
            elapsed = time.monotonic() - started
        finally:
            broker.close()
        assert 0.35 <= elapsed < 3.0
        assert [(row["kind"], row["fingerprint"]) for row in rows] == [
            ("queued", spec.fingerprint()), ("started", spec.fingerprint())
        ]

    def test_full_batch_returns_at_once(self, backend):
        broker = backend.broker()
        try:
            since, _ = self._leased(broker, 3)
            started = time.monotonic()
            rows = broker.events_since(since, limit=2, wait_s=5)
            assert time.monotonic() - started < 1.0
        finally:
            broker.close()
        assert [row["kind"] for row in rows] == ["queued", "queued"]

    def test_settled_queue_returns_at_once(self, backend):
        broker = backend.broker()
        try:
            since = broker.last_event_seq()
            started = time.monotonic()
            assert broker.events_since(since, limit=10, wait_s=5) == []
            assert time.monotonic() - started < 1.0
        finally:
            broker.close()

    def test_a_parked_call_blocks_no_other_call(self, backend):
        broker = backend.broker()
        try:
            since, _ = self._leased(broker)

            def long_poll():
                other = backend.broker()
                try:
                    other.events_since(since, limit=1000, wait_s=1.5)
                finally:
                    other.close()

            parked = threading.Thread(target=long_poll)
            parked.start()
            time.sleep(0.2)  # let the poll park
            assert parked.is_alive()
            started = time.monotonic()
            counts = broker.counts()
            answered_in = time.monotonic() - started
            parked.join()
        finally:
            broker.close()
        assert counts["leased"] == 1
        assert answered_in < 0.1
