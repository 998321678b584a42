"""Tests of the hardened transport: bearer tokens, TLS, rate-limited restarts.

Covers the security acceptance scenario: an end-to-end sweep (serve →
fleet → sweep → zero-execution re-run) passes over ``https://`` with a
bearer token; unauthenticated RPCs get 401; the CLI turns rejected
credentials into exit-2 diagnostics; credentials resolve from the
``CHRONOS_*`` environment so worker processes inherit them; and the
supervision rate limiter slows crash loops down instead of instantly
exhausting a budget.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.api import ScenarioSpec, WorkloadSpec, job_spec_to_dict, run, run_specs
from repro.distributed import (
    Broker,
    LeasePolicy,
    RestartPolicy,
    RestartRateLimiter,
    Worker,
    open_broker,
    open_store,
)
from repro.distributed.leases import MAX_ATTEMPTS
from repro.distributed.worker import restart_backoff
from repro.experiments import cli
from repro.service import (
    CAFILE_ENV,
    METRICS_CONTENT_TYPE,
    TOKEN_ENV,
    VERIFY_ENV,
    Credentials,
    HttpBroker,
    HttpResultStore,
    ServiceAuthError,
    ServiceError,
    fetch_metrics,
    make_server,
    rpc_call,
    token_matches,
)
from repro.service.security import bearer_token
from repro.simulator.entities import JobSpec

#: Fast lease timings so expiry tests take fractions of a second.
FAST = LeasePolicy(timeout=2.0)

TOKEN = "sweep-secret-0123456789abcdef"


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


def _serve(db, **kwargs):
    """Start a service on an ephemeral port; returns (server, url)."""
    server = make_server(db, host="127.0.0.1", port=0, policy=FAST, **kwargs)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    scheme = "https" if server.tls else "http"
    return server, f"{scheme}://127.0.0.1:{server.server_address[1]}"


@pytest.fixture
def clean_env(monkeypatch):
    """No ambient credentials: each test states exactly what it sets."""
    for variable in (TOKEN_ENV, CAFILE_ENV, VERIFY_ENV):
        monkeypatch.delenv(variable, raising=False)
    return monkeypatch


@pytest.fixture
def secured(tmp_path, clean_env):
    """A token-guarded (plain HTTP) service on an ephemeral port."""
    server, url = _serve(tmp_path / "queue.sqlite", token=TOKEN)
    try:
        yield url
    finally:
        server.shutdown()
        server.server_close()


class TestTokenPrimitives:
    def test_token_matches_is_exact(self):
        assert token_matches("secret", "secret")
        assert not token_matches("secret", "secret ")
        assert not token_matches("secret", "secre")
        assert not token_matches("secret", "")
        assert not token_matches("secret", None)

    def test_no_required_token_accepts_anything(self):
        assert token_matches(None, None)
        assert token_matches(None, "whatever")

    def test_comparison_is_constant_time(self):
        """The guard must go through hmac.compare_digest, not ``==``."""
        import hmac as hmac_module
        import unittest.mock as mock

        with mock.patch.object(
            hmac_module, "compare_digest", wraps=hmac_module.compare_digest
        ) as spy:
            from repro.service import security

            assert security.token_matches("secret", "secret")
            spy.assert_called_once_with(b"secret", b"secret")

    def test_bearer_header_parsing(self):
        assert bearer_token({"Authorization": "Bearer abc"}) == "abc"
        assert bearer_token({"Authorization": "bearer abc"}) == "abc"
        assert bearer_token({"Authorization": "Basic abc"}) is None
        assert bearer_token({"Authorization": "Bearer"}) is None
        assert bearer_token({}) is None


class TestCredentialResolution:
    def test_environment_fallback(self, clean_env):
        clean_env.setenv(TOKEN_ENV, "env-token")
        clean_env.setenv(CAFILE_ENV, "/tmp/ca.pem")
        clean_env.setenv(VERIFY_ENV, "false")
        resolved = Credentials.resolve()
        assert resolved == Credentials(token="env-token", cafile="/tmp/ca.pem", verify=False)

    def test_explicit_arguments_override_environment(self, clean_env):
        clean_env.setenv(TOKEN_ENV, "env-token")
        clean_env.setenv(VERIFY_ENV, "0")
        resolved = Credentials.resolve(token="explicit", verify=True)
        assert resolved.token == "explicit"
        assert resolved.verify is True

    def test_empty_environment_means_insecure_defaults(self, clean_env):
        assert Credentials.resolve() == Credentials(token=None, cafile=None, verify=True)


class TestTokenGuardedService:
    def test_unauthenticated_rpc_is_401(self, secured):
        with pytest.raises(ServiceAuthError, match="HTTP 401"):
            rpc_call(secured, "settled")

    def test_wrong_token_is_401(self, secured):
        with pytest.raises(ServiceAuthError, match="HTTP 401"):
            rpc_call(secured, "settled", token="not-the-token")

    def test_status_endpoint_requires_token(self, secured):
        with pytest.raises(urllib.error.HTTPError) as caught:
            urllib.request.urlopen(secured + "/status", timeout=5.0)
        assert caught.value.code == 401
        assert caught.value.headers.get("WWW-Authenticate", "").startswith("Bearer")

    def test_keep_alive_connection_survives_rejections(self, secured):
        """401s must drain the request body, or HTTP/1.1 keep-alive
        framing desynchronizes and the *next* request on the socket
        reads the leftover bytes as its request line."""
        import http.client

        conn = http.client.HTTPConnection(secured.split("//", 1)[1], timeout=5.0)
        try:
            for _ in range(3):
                conn.request(
                    "POST",
                    "/rpc",
                    body=json.dumps({"method": "settled", "params": {}}),
                    headers={"Content-Type": "application/json"},
                )
                response = conn.getresponse()
                assert response.status == 401  # every time — never a 400
                response.read()
        finally:
            conn.close()

    def test_healthz_stays_open_and_reports_auth(self, secured):
        with urllib.request.urlopen(secured + "/healthz", timeout=5.0) as response:
            body = json.loads(response.read())
        assert body["ok"] is True
        assert body["auth"] is True
        assert body["tls"] is False

    def test_correct_token_works_end_to_end(self, secured):
        spec = _tiny_spec()
        broker = HttpBroker(secured, token=TOKEN)
        assert broker.enqueue([spec.to_dict()], [spec.fingerprint()]) == 1
        task = broker.claim("w1")
        result = run(ScenarioSpec.from_dict(task.payload))
        broker.complete(task.fingerprint, "w1", result.to_dict())
        store = HttpResultStore(secured, token=TOKEN)
        assert store.get(spec.fingerprint()).report == result.report

    @pytest.mark.parametrize("method", ["result_get", "complete"])
    def test_one_at_a_time_rpcs_are_gone(self, secured, method):
        # the result path is batched on the wire: result_get_many, complete_many
        with pytest.raises(ServiceError, match=f"HTTP 400 — unknown method '{method}'"):
            rpc_call(secured, method, {"fingerprint": "f" * 64}, token=TOKEN)

    def test_env_token_secures_open_broker_and_store(self, secured, clean_env):
        clean_env.setenv(TOKEN_ENV, TOKEN)
        assert open_broker(secured).settled() is True
        assert open_store(secured).fingerprints() == set()

    def test_open_broker_token_kwarg(self, secured):
        assert open_broker(secured, token=TOKEN).settled() is True
        with pytest.raises(ServiceAuthError):
            open_broker(secured, token="wrong").settled()

    def test_worker_fails_fast_on_bad_credentials(self, secured, clean_env, quick_poll):
        """Auth rejections are fatal, not retried like transport blips."""
        clean_env.setenv(TOKEN_ENV, "wrong-token")
        worker = Worker(secured, policy=FAST)
        started = time.monotonic()
        with pytest.raises(ServiceAuthError):
            worker.run()
        worker.close()
        # the transient path would have slept through ~8 backoff rounds
        assert time.monotonic() - started < 1.5


class TestMetricsEndpoint:
    """``GET /metrics`` sits behind the same trust boundary as ``/status``."""

    def test_metrics_requires_token(self, secured):
        with pytest.raises(urllib.error.HTTPError) as caught:
            urllib.request.urlopen(secured + "/metrics", timeout=5.0)
        assert caught.value.code == 401
        assert caught.value.headers.get("WWW-Authenticate", "").startswith("Bearer")

    def test_wrong_token_is_auth_error(self, secured):
        with pytest.raises(ServiceAuthError, match="HTTP 401"):
            fetch_metrics(secured, token="not-the-token")

    def test_metrics_serves_prometheus_text(self, secured):
        request = urllib.request.Request(
            secured + "/metrics", headers={"Authorization": f"Bearer {TOKEN}"}
        )
        with urllib.request.urlopen(request, timeout=5.0) as response:
            assert response.status == 200
            assert response.headers.get("Content-Type") == METRICS_CONTENT_TYPE
            body = response.read().decode("utf-8")
        assert "# HELP chronos_tasks_claimed_total" in body
        assert "# TYPE chronos_tasks_claimed_total counter" in body
        # A scrape refreshes the queue-depth gauges from the live broker.
        assert 'chronos_queue_depth{state="pending"}' in body

    def test_metric_names_and_labels_are_stable(self, secured):
        """The exposition's metric names are an interface: dashboards and
        CI greps depend on them, so renames must be deliberate."""
        body = fetch_metrics(secured, token=TOKEN)
        expected = [
            "chronos_tasks_enqueued_total",
            "chronos_tasks_claimed_total",
            "chronos_tasks_completed_total",
            "chronos_tasks_failed_total",
            "chronos_lease_renewals_total",
            "chronos_lease_expiries_total",
            "chronos_events_appended_total",
            "chronos_queue_depth",
            "chronos_scenario_wall_seconds",
            "chronos_sweep_scenarios_total",
            "chronos_engine_events_total",
            "chronos_speculative_copies_launched_total",
        ]
        for name in expected:
            assert f"# TYPE {name} " in body, name
        assert 'state="pending"' in body  # queue-depth label name

    def test_metrics_rpc_snapshot_matches_names(self, secured):
        broker = HttpBroker(secured, token=TOKEN)
        snapshot = broker.metrics()
        assert "chronos_tasks_claimed_total" in snapshot
        assert snapshot["chronos_queue_depth"]["type"] == "gauge"

    def test_metrics_over_tls_with_token(self, tmp_path, clean_env, tls_material):
        certfile, keyfile = tls_material
        server, url = _serve(
            tmp_path / "q.sqlite", token=TOKEN, certfile=certfile, keyfile=keyfile
        )
        try:
            assert url.startswith("https://")
            body = fetch_metrics(url, token=TOKEN, cafile=str(certfile))
            assert "# TYPE chronos_queue_depth gauge" in body
        finally:
            server.shutdown()
            server.server_close()


class TestTls:
    def test_handshake_with_cafile(self, tmp_path, clean_env, tls_material):
        certfile, keyfile = tls_material
        server, url = _serve(tmp_path / "q.sqlite", certfile=certfile, keyfile=keyfile)
        try:
            assert url.startswith("https://")
            broker = HttpBroker(url, cafile=str(certfile))
            assert broker.settled() is True
        finally:
            server.shutdown()
            server.server_close()

    def test_unverified_self_signed_cert_is_rejected(self, tmp_path, clean_env, tls_material):
        certfile, keyfile = tls_material
        server, url = _serve(tmp_path / "q.sqlite", certfile=certfile, keyfile=keyfile)
        try:
            with pytest.raises(ServiceError, match="cannot reach"):
                HttpBroker(url).settled()  # system trust store: self-signed fails
            # explicit opt-out still connects (encrypted, unauthenticated)
            assert HttpBroker(url, verify=False).settled() is True
        finally:
            server.shutdown()
            server.server_close()

    def test_healthz_reports_tls(self, tmp_path, clean_env, tls_material):
        import ssl

        certfile, keyfile = tls_material
        server, url = _serve(tmp_path / "q.sqlite", certfile=certfile, keyfile=keyfile)
        try:
            context = ssl.create_default_context(cafile=str(certfile))
            with urllib.request.urlopen(url + "/healthz", timeout=5.0, context=context) as resp:
                body = json.loads(resp.read())
            assert body["tls"] is True and body["auth"] is False
        finally:
            server.shutdown()
            server.server_close()

    def test_bad_cert_material_fails_at_startup(self, tmp_path):
        bogus = tmp_path / "bogus.pem"
        bogus.write_text("not a certificate")
        with pytest.raises(OSError):
            make_server(tmp_path / "q.sqlite", port=0, certfile=bogus)

    def test_keyfile_requires_certfile(self, tmp_path):
        with pytest.raises(ValueError, match="certfile"):
            make_server(tmp_path / "q.sqlite", port=0, keyfile=tmp_path / "key.pem")


class TestSecuredSweepAcceptance:
    """The acceptance path: serve → fleet → sweep → re-run, over https+token."""

    def test_sweep_and_zero_execution_rerun_over_https_with_token(
        self, tmp_path, clean_env, tls_material
    ):
        certfile, keyfile = tls_material
        server, url = _serve(
            tmp_path / "q.sqlite", token=TOKEN, certfile=certfile, keyfile=keyfile
        )
        clean_env.setenv(TOKEN_ENV, TOKEN)
        clean_env.setenv(CAFILE_ENV, str(certfile))
        specs = [_tiny_spec(seed=s) for s in range(4)]
        try:
            # local fleet speaking HTTPS: worker processes inherit the
            # credential environment, nothing is plumbed explicitly
            outcome = run_specs(
                specs, executor="distributed", broker=url, workers=2,
                lease_timeout=FAST.timeout,
            )
            assert outcome.executed == 4 and outcome.cache_hits == 0
            inline = run_specs(specs, executor="inline")
            assert [r.fingerprint for r in outcome.results] == [
                r.fingerprint for r in inline.results
            ]
            rerun = run_specs(
                specs, executor="distributed", broker=url, lease_timeout=FAST.timeout
            )
            assert rerun.executed == 0 and rerun.cache_hits == 4
        finally:
            server.shutdown()
            server.server_close()

    def test_stream_yields_incrementally_over_https_with_token(
        self, tmp_path, clean_env, tls_material
    ):
        """Acceptance: per-scenario events stream live through TLS + auth."""
        from repro.api import (
            ScenarioCompleted,
            SweepFinished,
            SweepStarted,
            stream_specs,
        )
        from repro.service import HttpBroker

        certfile, keyfile = tls_material
        server, url = _serve(
            tmp_path / "q.sqlite", token=TOKEN, certfile=certfile, keyfile=keyfile
        )
        clean_env.setenv(TOKEN_ENV, TOKEN)
        clean_env.setenv(CAFILE_ENV, str(certfile))
        specs = [_tiny_spec(seed=s) for s in range(4)]
        try:
            stream = stream_specs(
                specs, executor="distributed", broker=url, workers=2,
                lease_timeout=FAST.timeout,
            )
            first = next(stream)
            assert isinstance(first, SweepStarted)
            # the first event arrived before the last scenario finished —
            # indeed before any scenario was even enqueued server-side
            assert HttpBroker(url).counts()["done"] == 0
            events = [first] + list(stream)
            completed = [e for e in events if isinstance(e, ScenarioCompleted)]
            assert sorted(e.fingerprint for e in completed) == sorted(
                spec.fingerprint() for spec in specs
            )
            assert isinstance(events[-1], SweepFinished)
            assert events[-1].executed == 4
            # the event log itself is reachable over https with the token
            tail = HttpBroker(url).events_since(0, limit=100)
            assert tail and [e["seq"] for e in tail] == sorted(e["seq"] for e in tail)
        finally:
            server.shutdown()
            server.server_close()


class TestCliDiagnostics:
    def test_workers_status_with_bad_token_is_exit_2(self, secured, capsys):
        code = cli.main(["workers", "status", "--broker", secured, "--token", "wrong"])
        assert code == 2
        stderr = capsys.readouterr().err
        assert "authentication failed" in stderr
        assert "HTTP 401" in stderr

    def test_workers_status_with_token_flag_succeeds(self, secured, capsys):
        assert cli.main(["workers", "status", "--broker", secured, "--token", TOKEN]) == 0
        assert "tasks:" in capsys.readouterr().out

    def test_sweep_with_missing_token_is_exit_2(self, secured, tmp_path, capsys):
        spec_file = tmp_path / "sweep.json"
        spec_file.write_text(json.dumps({"base": _tiny_spec().to_dict()}))
        code = cli.main(["sweep", "--spec", str(spec_file), "--broker", secured])
        assert code == 2
        assert "authentication failed" in capsys.readouterr().err

    def test_cli_token_does_not_leak_into_environment(self, secured, clean_env):
        import os

        cli.main(["workers", "status", "--broker", secured, "--token", TOKEN])
        assert TOKEN_ENV not in os.environ


class TestExpiringDryRun:
    def test_sqlite_dry_run_counts_without_mutating(self, tmp_path):
        specs = [_tiny_spec(seed=s) for s in range(2)]
        with Broker(tmp_path / "q.sqlite", policy=FAST) as broker:
            broker.enqueue([s.to_dict() for s in specs], [s.fingerprint() for s in specs])
            broker.claim_many("doomed", 2)
            future = time.time() + FAST.timeout + 1.0
            assert broker.requeue_expired(now=future, dry_run=True) == (2, 0)
            # nothing moved: the dry run is a pure read
            assert broker.counts()["leased"] == 2
            # a task out of attempts shows up in the exhausted column
            for _ in range(MAX_ATTEMPTS - 1):
                assert broker.requeue_expired(now=future) != (0, 0)
                broker.claim_many("doomed", 2)
                future += FAST.timeout + 1.0
            requeued, exhausted = broker.requeue_expired(now=future, dry_run=True)
            assert (requeued, exhausted) == (0, 2)
            assert broker.counts()["leased"] == 2

    def test_http_forwards_now_and_dry_run(self, tmp_path, clean_env):
        server, url = _serve(tmp_path / "q.sqlite")
        try:
            spec = _tiny_spec()
            broker = HttpBroker(url)
            broker.enqueue([spec.to_dict()], [spec.fingerprint()])
            broker.claim("w1")
            future = time.time() + FAST.timeout + 1.0
            # ``now`` is no longer dropped on the wire: a future clock
            # sees the lease as expired even though it is healthy locally
            assert broker.requeue_expired(now=future, dry_run=True) == (1, 0)
            assert broker.requeue_expired(dry_run=True) == (0, 0)
            assert broker.counts()["leased"] == 1  # dry runs mutated nothing
        finally:
            server.shutdown()
            server.server_close()

    def test_workers_status_expiring_flag(self, tmp_path, clean_env, capsys):
        short = LeasePolicy(timeout=0.1)
        server = make_server(tmp_path / "q.sqlite", host="127.0.0.1", port=0, policy=short)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        url = f"http://127.0.0.1:{server.server_address[1]}"
        try:
            spec = _tiny_spec()
            broker = HttpBroker(url)
            broker.enqueue([spec.to_dict()], [spec.fingerprint()])
            broker.claim("w1")
            time.sleep(0.15)  # lease expires, nothing sweeps it yet
            assert cli.main(["workers", "status", "--broker", url, "--expiring"]) == 0
            out = capsys.readouterr().out
            assert "expiring (dry run): 1 lease(s) would requeue" in out
            assert broker.counts()["leased"] == 1  # status never mutates
        finally:
            server.shutdown()
            server.server_close()


class TestRestartRateLimiter:
    """Crash-loop behaviour, driven with a synthetic clock (no processes)."""

    def test_crash_loop_restarts_slow_down(self):
        limiter = RestartRateLimiter(RestartPolicy(burst=10, refill_s=1000.0))
        now, grants = 0.0, []
        for _ in range(5):  # the member dies the instant it is restarted
            limiter.note_crash(0, now, uptime=0.0)
            while not limiter.try_acquire(0, now):
                now += 0.25
            grants.append(now)
        gaps = [b - a for a, b in zip(grants, grants[1:])]
        assert gaps == [0.5, 1.0, 2.0, 4.0]  # exponential backoff

    def test_backoff_is_capped(self):
        assert restart_backoff(0) == 0.0
        assert restart_backoff(1) == 0.5
        assert restart_backoff(2) == 1.0
        assert restart_backoff(7) == 30.0  # 32 s, capped

    def test_token_bucket_is_not_exhausted_instantly(self):
        policy = RestartPolicy(burst=2, refill_s=10.0)
        limiter = RestartRateLimiter(policy)
        now, granted = 0.0, 0
        for _ in range(10):  # a crash a second: each outlasts the backoff at first
            now += 1.0
            limiter.note_crash(0, now, uptime=0.0)
            if limiter.try_acquire(0, now):
                granted += 1
        assert granted == 2  # burst spent; the loop did not drain a budget of 10
        assert limiter.try_acquire(0, now + policy.refill_s) is True  # refilled

    def test_stable_uptime_resets_the_backoff_streak(self):
        limiter = RestartRateLimiter(RestartPolicy(burst=10, refill_s=1000.0))
        limiter.note_crash(0, 0.0, uptime=0.0)
        assert limiter.try_acquire(0, 0.0)          # streak 1, next at +0.5s
        limiter.note_crash(0, 0.0, uptime=0.0)
        assert not limiter.try_acquire(0, 0.25)
        assert limiter.try_acquire(0, 0.5)          # streak 2, next at +1s
        # a long healthy run later, the crash is treated as fresh again
        limiter.note_crash(0, 100.0, uptime=99.0)
        assert limiter.try_acquire(0, 100.0)        # streak reset to 1
        limiter.note_crash(0, 100.0, uptime=0.0)
        assert not limiter.try_acquire(0, 100.25)   # backoff is 0.5s, not 2s
        assert limiter.try_acquire(0, 100.5)

    def test_slots_are_independent(self):
        limiter = RestartRateLimiter(RestartPolicy(burst=1, refill_s=100.0))
        assert limiter.try_acquire(0, 0.0)
        assert not limiter.try_acquire(0, 1.0)  # slot 0 drained
        assert limiter.try_acquire(1, 1.0)      # slot 1 untouched
