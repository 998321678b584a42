"""The HTTP broker front-end: one process owning the queue database.

:class:`BrokerService` wraps one :class:`~repro.distributed.Broker` and
one :class:`~repro.distributed.SqliteResultStore` and dispatches each
RPC through its row of the wire table,
:data:`repro.service.protocol.WIRE_METHODS`: the row's parameter
coercions run first (a malformed parameter is an HTTP 400), then the
owner's method runs under the service lock — looked up on the instance
at call time, so instrumentation that patches the classes later still
sees every call — and the row's ``to_wire`` codec encodes the answer.
:func:`make_server` mounts it on a stdlib
:class:`~http.server.ThreadingHTTPServer` speaking the JSON protocol of
:mod:`repro.service.protocol`.  The server is the only process that
touches the sqlite file, which is what makes the queue NFS-safe and
multi-host: remote fleets and sweep drivers talk HTTP and never share a
filesystem.

Broker connections are not thread safe, so the service serializes every
operation under one lock.  That is not the bottleneck it sounds like:
each operation is a sub-millisecond sqlite transaction, the server
threads only exist to overlap network I/O, and the batch methods
(``claim_many``, ``complete_texts``, ``result_texts``) amortize the
round trip for short scenarios.  ``chronos_rpc_seconds{method=}`` and
``chronos_rpc_lock_wait_seconds{method=}`` on ``/metrics`` show both
halves of every call.

Results cross in batches as JSON text the service does not decode or
re-encode: a ``complete_texts`` payload is stored as it arrives, once a
decode check has shown it is a JSON object (anything else is an HTTP
400, with nothing stored), and ``claim_many`` and ``result_texts``
answer the stored spec and result texts as they are.

``events_since`` with ``wait_s > 0`` (the sweep driver's long poll)
parks on a :class:`threading.Condition` over that lock, so a parked call
holds no lock.  The RPCs that can settle the queue (the wire rows marked
``settles``) notify it, and it reads once the queue is settled or
``wait_s`` (clamped to :data:`MAX_EVENT_WAIT_S`) has passed.  It is not
woken per new row: a driver woken on every commit would compete with the
workers for the lock and the CPUs.  Parked time counts toward neither
latency histogram.

Connections are HTTP/1.1 keep-alive with ``TCP_NODELAY``: a client
sends many RPCs over one socket, and an idle one is closed after
:data:`KEEPALIVE_IDLE_S` (clients reconnect on their next call).

The transport hardens on demand: ``token=`` requires ``Authorization:
Bearer …`` on every RPC, ``/status`` and ``/metrics`` request (compared
in constant time; ``/healthz`` stays open for load balancers), and ``certfile=``/
``keyfile=`` wrap the listening socket in an :class:`ssl.SSLContext` so
the queue can cross untrusted networks — see
:mod:`repro.service.security`.

Run it from the CLI (``chronos-experiments serve --db queue.sqlite
--port 8176 --token …``) or embed it::

    server = make_server("queue.sqlite", port=0)   # port 0: pick a free one
    url = f"http://127.0.0.1:{server.server_address[1]}"
    threading.Thread(target=server.serve_forever, daemon=True).start()
"""

from __future__ import annotations

import json
import socket
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional, Set, Union

from repro import telemetry
from repro.distributed.broker import EVENT_LIMIT, Broker
from repro.distributed.leases import LeasePolicy
from repro.distributed.store import SqliteResultStore, normalize_db_path
from repro.service.protocol import (
    BROKER,
    HEALTH_PATH,
    METRICS_CONTENT_TYPE,
    METRICS_PATH,
    PROTOCOL_VERSION,
    RPC_PATH,
    STATUS_PATH,
    STORE,
    TELEMETRY,
    WIRE_METHODS,
)
from repro.service.security import bearer_token, server_ssl_context, token_matches


#: Most RPCs are sub-millisecond sqlite transactions, hence the fine low end.
RPC_BUCKETS = (0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.1, 0.5, 2.5)

# Per-RPC latency, split at the service lock: work done holding it, and
# time spent queued for it behind other requests.
_RPC_SECONDS = telemetry.histogram(
    "chronos_rpc_seconds",
    "Seconds one RPC held the service lock",
    labelnames=("method",),
    buckets=RPC_BUCKETS,
)
_RPC_LOCK_WAIT = telemetry.histogram(
    "chronos_rpc_lock_wait_seconds",
    "Seconds one RPC waited for the service lock",
    labelnames=("method",),
    buckets=RPC_BUCKETS,
)

#: Seconds a keep-alive connection may sit idle before the server closes
#: it (clients reconnect transparently on their next call).
KEEPALIVE_IDLE_S = 120.0

#: Longest an ``events_since`` call may park, well inside the clients'
#: ``RPC_TIMEOUT_S`` so a long poll never reads as a dead server.
MAX_EVENT_WAIT_S = 10.0


class UnknownMethodError(KeyError):
    """The RPC body named a method the service does not export."""


class BrokerService:
    """Every queue and result-store operation, callable by wire name.

    One instance per served database.  All methods take and return
    JSON-native values only; the lock serializes access to the single
    broker/store connection pair (sqlite brokers are not thread safe,
    and ``ThreadingHTTPServer`` handles each request on its own thread).
    """

    def __init__(self, db: Union[str, Path], policy: Optional[LeasePolicy] = None):
        self._db = normalize_db_path(db)
        self._policy = policy if policy is not None else LeasePolicy()
        self._lock = threading.Lock()
        # Parked events_since calls wait here, the lock released.
        self._settling = threading.Condition(self._lock)
        self._broker = Broker(self._db, policy=self._policy)
        self._store = SqliteResultStore(self._db)
        # Methods are looked up on these per call, never bound up front:
        # instrumentation may patch the Broker/SqliteResultStore classes
        # after this module is imported.
        self._owners = {BROKER: self._broker, STORE: self._store, TELEMETRY: telemetry.REGISTRY}

    @property
    def db(self) -> Path:
        """The served queue database."""
        return self._db

    @property
    def policy(self) -> LeasePolicy:
        """The lease policy claims are granted under."""
        return self._policy

    def methods(self) -> List[str]:
        """Names of the exported RPC methods."""
        return sorted(WIRE_METHODS)

    def call(self, method: str, params: Optional[Dict[str, Any]] = None) -> Any:
        """Invoke one method by wire name under the service lock.

        Observes ``chronos_rpc_lock_wait_seconds{method=}`` (time queued
        for the lock) and ``chronos_rpc_seconds{method=}`` (time holding
        it), so lock contention is visible separately from work.  A long
        poll's parked time (see the module docstring) is in neither.
        """
        wire = WIRE_METHODS.get(method)
        if wire is None:
            raise UnknownMethodError(method)
        kwargs = wire.coerce(params or {})
        wait_s = 0.0
        if method == "events_since":
            wait_s = min(max(kwargs.pop("wait_s", 0.0), 0.0), MAX_EVENT_WAIT_S)
        owner = self._owners[wire.owner]
        queued = perf_counter()
        with self._lock:
            started = perf_counter()
            parked = 0.0
            try:
                if wait_s > 0:
                    parked = self._park(kwargs, wait_s)
                answer = getattr(owner, wire.target)
                result = answer(**kwargs) if callable(answer) else answer
                if wire.settles:
                    self._settling.notify_all()
            finally:
                finished = perf_counter()
                _RPC_LOCK_WAIT.labels(method=method).observe(started - queued)
                _RPC_SECONDS.labels(method=method).observe(finished - started - parked)
        return wire.to_wire(result)

    def _park(self, kwargs: Dict[str, Any], wait_s: float) -> float:
        """Wait for an ``events_since`` long poll; returns the seconds parked.

        Returns at once when ``limit`` rows are already there or the
        queue is settled; otherwise waits, the lock released, until a
        settling RPC leaves the queue settled or ``wait_s`` passes.
        """
        if len(self._broker.events_since(**kwargs)) >= kwargs.get("limit", EVENT_LIMIT):
            return 0.0
        deadline = perf_counter() + wait_s
        parked = 0.0
        while not self._broker.settled():
            remaining = deadline - perf_counter()
            if remaining <= 0:
                break
            waited_from = perf_counter()
            self._settling.wait(remaining)
            parked += perf_counter() - waited_from
        return parked

    def close(self) -> None:
        """Release the underlying database connections."""
        with self._lock:
            self._broker.close()
            self._store.close()
            self._settling.notify_all()


class ServiceHTTPServer(ThreadingHTTPServer):
    """A threading HTTP server carrying its :class:`BrokerService`.

    ``token`` (when set) is the bearer token every RPC and status
    request must present; ``tls`` records whether the listening socket
    was wrapped by :func:`make_server` (reported by ``/healthz`` so
    clients and health checks can tell the schemes apart).
    """

    daemon_threads = True
    #: Tolerate a burst of fleet connections beyond the default backlog.
    request_queue_size = 32

    def __init__(self, address, handler, service: BrokerService, token: Optional[str] = None):
        self.service = service
        self.token = token
        self.tls = False
        self._connections: Set[socket.socket] = set()
        self._connections_lock = threading.Lock()
        super().__init__(address, handler)

    def process_request(self, request, client_address) -> None:
        with self._connections_lock:
            self._connections.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request) -> None:
        with self._connections_lock:
            self._connections.discard(request)
        super().shutdown_request(request)

    def handle_error(self, request, client_address) -> None:
        if isinstance(sys.exc_info()[1], OSError):
            return  # a client vanished mid-connection; nothing to report
        super().handle_error(request, client_address)

    def server_close(self) -> None:
        """Stop listening, end open keep-alive connections, release sqlite."""
        super().server_close()
        with self._connections_lock:
            open_connections = list(self._connections)
        for connection in open_connections:
            try:
                # The raw TCP shutdown wakes a handler blocked reading the
                # next request (TLS state is left to the handler thread).
                socket.socket.shutdown(connection, socket.SHUT_RDWR)
            except OSError:
                pass
        self.service.close()


class ServiceRequestHandler(BaseHTTPRequestHandler):
    """Dispatch ``POST /rpc`` bodies to the service; quiet by default."""

    server_version = f"chronos-sweep-service/{PROTOCOL_VERSION}"
    protocol_version = "HTTP/1.1"  # keep-alive; responses carry Content-Length
    #: Headers and body go out as separate writes; with Nagle's algorithm
    #: on, the body waits for the client's delayed ACK (~40 ms per RPC).
    disable_nagle_algorithm = True
    #: Idle keep-alive connections are closed after this many seconds.
    timeout = KEEPALIVE_IDLE_S

    def _authorized(self) -> bool:
        """Check the request's bearer token against the server's.

        Uses the constant-time comparison of
        :func:`repro.service.security.token_matches`, so the rejection
        path leaks nothing about how close a guess came.  Servers
        without a configured token accept everything (PR 3 behaviour).
        """
        return token_matches(self.server.token, bearer_token(self.headers))

    def _reject_unauthorized(self) -> None:
        """Answer 401 with the standard challenge header.

        The unread request body is drained first: under HTTP/1.1
        keep-alive, leftover body bytes would be parsed as the *next*
        request line, desynchronizing the connection.  Oversized bodies
        are not worth reading for a rejected request — drop the
        connection instead.
        """
        try:
            length = int(self.headers.get("Content-Length", 0))
        except (TypeError, ValueError):
            length = 0
        if 0 < length <= (1 << 20):
            self.rfile.read(length)
        elif length != 0:
            self.close_connection = True
        data = json.dumps(
            {"error": "authentication required: send 'Authorization: Bearer <token>'"}
        ).encode("utf-8")
        try:
            self.send_response(401)
            self.send_header("WWW-Authenticate", 'Bearer realm="chronos-sweep-service"')
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)
        except (BrokenPipeError, ConnectionResetError):
            pass

    def do_POST(self) -> None:  # noqa: N802 (stdlib handler naming)
        if self.path != RPC_PATH:
            self._send_json(404, {"error": f"no such endpoint: {self.path}"})
            return
        if not self._authorized():
            self._reject_unauthorized()
            return
        try:
            length = int(self.headers.get("Content-Length", 0))
            body = json.loads(self.rfile.read(length).decode("utf-8"))
            method = body["method"]
            params = body.get("params") or {}
            if not isinstance(params, dict):
                raise TypeError("params must be an object")
        except Exception as error:
            self._send_json(400, {"error": f"malformed RPC request: {error}"})
            return
        try:
            result = self.server.service.call(method, params)
        except UnknownMethodError:
            self._send_json(
                400,
                {
                    "error": f"unknown method {method!r}",
                    "available": self.server.service.methods(),
                },
            )
        except (TypeError, ValueError) as error:
            self._send_json(400, {"error": f"{type(error).__name__}: {error}"})
        except Exception as error:  # surface server faults, don't kill the thread
            self._send_json(500, {"error": f"{type(error).__name__}: {error}"})
        else:
            self._send_json(200, {"result": result})

    def do_GET(self) -> None:  # noqa: N802 (stdlib handler naming)
        if self.path == HEALTH_PATH:
            # Liveness stays token-free: load balancers, CI wait loops
            # and `curl /healthz` need no secret to ask "are you up?".
            self._send_json(
                200,
                {
                    "ok": True,
                    "protocol": PROTOCOL_VERSION,
                    "db": str(self.server.service.db),
                    "auth": self.server.token is not None,
                    "tls": self.server.tls,
                },
            )
        elif self.path == STATUS_PATH:
            if not self._authorized():
                self._reject_unauthorized()
                return
            try:
                self._send_json(200, self.server.service.call("stats"))
            except Exception as error:
                self._send_json(500, {"error": f"{type(error).__name__}: {error}"})
        elif self.path == METRICS_PATH:
            # Same trust boundary as /status: queue depths, failure counts
            # and worker throughput are operational intelligence.
            if not self._authorized():
                self._reject_unauthorized()
                return
            try:
                # Refresh the queue-depth gauges so a scrape sees current
                # depths even when no CLI has asked for counts recently.
                self.server.service.call("counts")
                body = telemetry.REGISTRY.render().encode("utf-8")
            except Exception as error:
                self._send_json(500, {"error": f"{type(error).__name__}: {error}"})
                return
            try:
                self.send_response(200)
                self.send_header("Content-Type", METRICS_CONTENT_TYPE)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)
            except (BrokenPipeError, ConnectionResetError):
                pass
        else:
            self._send_json(404, {"error": f"no such endpoint: {self.path}"})

    def _send_json(self, code: int, payload: Dict[str, Any]) -> None:
        data = json.dumps(payload).encode("utf-8")
        try:
            self.send_response(code)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away mid-response; nothing to salvage

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass  # request logging off: workers poll, and stdout is the CLI's


def make_server(
    db: Union[str, Path],
    host: str = "127.0.0.1",
    port: int = 8176,
    policy: Optional[LeasePolicy] = None,
    token: Optional[str] = None,
    certfile: Optional[Union[str, Path]] = None,
    keyfile: Optional[Union[str, Path]] = None,
) -> ServiceHTTPServer:
    """Build (but do not start) a service bound to ``host:port``.

    ``port=0`` binds an ephemeral free port; read the real one from
    ``server.server_address[1]``.  Call ``serve_forever()`` to run and
    ``shutdown()`` + ``server_close()`` to stop.

    ``token`` requires ``Authorization: Bearer <token>`` on every RPC,
    ``/status`` and ``/metrics`` request (``/healthz`` stays open); ``certfile`` (with
    an optional separate ``keyfile``) wraps the listening socket in TLS,
    making the service an ``https://`` target.  Bad cert material fails
    here, at startup, not at the first client handshake.
    """
    if keyfile is not None and certfile is None:
        raise ValueError("keyfile requires certfile (the certificate to serve)")
    service = BrokerService(db, policy=policy)
    try:
        server = ServiceHTTPServer((host, port), ServiceRequestHandler, service, token=token)
    except BaseException:
        service.close()
        raise
    if certfile is not None:
        try:
            context = server_ssl_context(str(certfile), None if keyfile is None else str(keyfile))
            server.socket = context.wrap_socket(server.socket, server_side=True)
            server.tls = True
        except BaseException:
            server.server_close()
            raise
    return server


def serve(
    db: Union[str, Path],
    host: str = "127.0.0.1",
    port: int = 8176,
    policy: Optional[LeasePolicy] = None,
    token: Optional[str] = None,
    certfile: Optional[Union[str, Path]] = None,
    keyfile: Optional[Union[str, Path]] = None,
) -> None:
    """Blocking convenience wrapper: build a server and run it forever."""
    server = make_server(
        db, host=host, port=port, policy=policy, token=token, certfile=certfile, keyfile=keyfile
    )
    try:
        server.serve_forever()
    finally:
        server.server_close()
