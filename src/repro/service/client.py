"""HTTP clients implementing the broker and result-store interfaces.

:class:`HttpBroker` and :class:`HttpResultStore` present the same
surface as :class:`~repro.distributed.Broker` and
:class:`~repro.distributed.SqliteResultStore`, but every call is one
``POST /rpc`` round trip to a :mod:`repro.service.server` — so
:class:`~repro.distributed.Worker`, ``WorkerPool.supervise``,
:func:`repro.distributed.execute_stream` and the CLI run unchanged against a
remote URL.

Neither class writes out the broker contract.  Every pass-through
method is generated from the wire table,
:data:`repro.service.protocol.WIRE_METHODS`: it carries the signature
and docstring of the sqlite method it mirrors, binds its arguments
against that signature, and sends them by name through the module-level
:func:`rpc_call` after the row's parameter coercions; the row's
``from_wire`` codec decodes the answer.  Only methods with client-side
logic are written out: the constructors and ``url``/``credentials``;
``HttpBroker.policy`` (cached server policy), ``enqueue`` and
``claim_many`` (argument checks before the round trip), ``claim`` (the
one-task ``claim_many``), ``register_worker`` (defaults to this
process's pid), ``complete_many`` (encodes each result as JSON text),
``complete`` (the one-element ``complete_many``), ``stats`` (adds
``url``) and ``metrics``; the store's chunked payload reads
``get_payload_many`` and memoizing ``get``/``get_many``, and its
``put``/``clear``/``__contains__``; and ``close``/``__enter__``/``__exit__``.
Wire rows whose server-side target is private (the service's text
paths, such as ``Broker._complete_texts``) get no generated method:
the written-out methods above reach them.

Round trips reuse persistent HTTP/1.1 connections: :func:`rpc_call`
keeps one :class:`http.client.HTTPConnection` (or ``HTTPSConnection``)
open per process, thread and endpoint — scheme, host, port and SSL
context — instead of paying a TCP (and TLS) handshake per call.  The
cache is thread local, so one client instance stays safe to share
between a worker loop and its heartbeat thread (each thread talks over
its own socket), and it is keyed by pid, so a process forked after its
parent made RPCs opens its own socket instead of writing into the
parent's.  ``TCP_NODELAY`` is set on every socket: a request is one
small write answered by one small response, exactly the pattern Nagle's
algorithm plus delayed ACKs stalls by tens of milliseconds.  When a
*reused* connection turns out to be dead before any response byte
arrives (the server closed it while idle, or restarted), the call
reconnects once and resends; a failure on a fresh connection is
reported, never retried.

Payloads cross as JSON text, decoded once by the receiving client, and
results move in batches: :meth:`HttpResultStore.get_payload_many` and
``get_many`` fetch up to :data:`RESULT_BATCH` stored payload texts per
``result_texts`` round trip, and :meth:`HttpBroker.complete_many`
commits a worker's whole claimed batch in one ``complete_texts`` call.

Transient transport errors surface as :class:`ServiceError`; the lease
protocol is already built for missed beats, so callers treat them like
any other lost heartbeat.  Rejected credentials surface as the sharper
:class:`~repro.service.protocol.ServiceAuthError`, which is *not*
transient — retrying a bad token only hammers the server.

Security settings (bearer token, CA file, verification policy) come
from explicit constructor kwargs, falling back per field to the
``CHRONOS_TOKEN`` / ``CHRONOS_CAFILE`` / ``CHRONOS_TLS_VERIFY``
environment (see :class:`repro.service.security.Credentials`), so a
worker process spawned anywhere in the tree inherits the sweep's
credentials without plumbing.
"""

from __future__ import annotations

import functools
import http.client
import inspect
import json
import os
import socket
import ssl
import threading
import urllib.error
import urllib.parse
import urllib.request
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.api.facade import ScenarioResult, result_from_dict
from repro.distributed.broker import Broker, Task
from repro.distributed.leases import LeasePolicy
from repro.distributed.store import RESULT_BATCH, SqliteResultStore, payload_from_text
from repro.service.protocol import (
    BROKER,
    METRICS_PATH,
    RPC_PATH,
    STORE,
    WIRE_METHODS,
    ServiceAuthError,
    ServiceError,
)
from repro.service.security import Credentials, client_ssl_context

#: Seconds an RPC waits on the socket before failing.
RPC_TIMEOUT_S = 30.0

_AUTH_HINT = "missing or rejected bearer token — pass token=/--token or set CHRONOS_TOKEN"


class _ThreadConnections(dict):
    """One thread's open connections, by endpoint; closed with the thread."""

    def __init__(self) -> None:
        super().__init__()
        self.pid = os.getpid()

    def close_all(self) -> None:
        for connection in self.values():
            connection.close()
        self.clear()

    def __del__(self) -> None:
        try:
            self.close_all()
        except Exception:
            pass  # interpreter teardown: the sockets die with the process


_LOCAL = threading.local()


def _thread_connections() -> _ThreadConnections:
    """The calling thread's connection cache, fresh after a fork."""
    connections = getattr(_LOCAL, "connections", None)
    if connections is None or connections.pid != os.getpid():
        if connections is not None:
            # Inherited across fork: closing drops this process's copy of
            # the descriptors; the parent's sockets stay open and unshared.
            connections.close_all()
        connections = _LOCAL.connections = _ThreadConnections()
    return connections


def _endpoint(url: str, context: Optional[ssl.SSLContext]) -> Tuple[Any, ...]:
    """The connection-cache key of ``url``: scheme, host, port, SSL context."""
    try:
        parts = urllib.parse.urlsplit(url)
        port = parts.port
    except ValueError as error:
        raise ServiceError(f"cannot reach sweep service at {url}: {error}") from error
    if parts.scheme not in ("http", "https") or not parts.hostname:
        raise ServiceError(f"cannot reach sweep service at {url}: not an http(s) URL")
    return (parts.scheme, parts.hostname, port, context)


def _connect(endpoint: Tuple[Any, ...], timeout: float) -> http.client.HTTPConnection:
    scheme, host, port, context = endpoint
    if scheme == "https":
        connection: http.client.HTTPConnection = http.client.HTTPSConnection(
            host, port, timeout=timeout, context=context
        )
    else:
        connection = http.client.HTTPConnection(host, port, timeout=timeout)
    connection.connect()
    connection.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return connection


def _close_connection(url: str, context: Optional[ssl.SSLContext] = None) -> None:
    """Close the calling thread's cached connection to ``url`` (if any)."""
    try:
        endpoint = _endpoint(url, context)
    except ServiceError:
        return
    connection = _thread_connections().pop(endpoint, None)
    if connection is not None:
        connection.close()


def _exchange(
    url: str, body: bytes, headers: Dict[str, str], timeout: float,
    context: Optional[ssl.SSLContext],
) -> Tuple[int, bytes]:
    """POST ``body`` over a cached connection; returns ``(status, body)``.

    A reused connection that fails before any response byte arrives is
    replaced once; any other transport failure is a :class:`ServiceError`.
    """
    endpoint = _endpoint(url, context)
    path = urllib.parse.urlsplit(url).path.rstrip("/") + RPC_PATH
    connections = _thread_connections()
    while True:
        connection = connections.pop(endpoint, None)
        reused = connection is not None
        try:
            if connection is None:
                connection = _connect(endpoint, timeout)
            else:
                connection.sock.settimeout(timeout)
            connection.request("POST", path, body=body, headers=headers)
            response = connection.getresponse()
        except (OSError, http.client.HTTPException) as error:
            if connection is not None:
                connection.close()
            if reused and isinstance(error, OSError) and not isinstance(error, TimeoutError):
                continue  # stale keep-alive socket: one fresh connection
            raise ServiceError(f"cannot reach sweep service at {url}: {error}") from error
        try:
            data = response.read()
        except (OSError, http.client.HTTPException) as error:
            connection.close()
            raise ServiceError(f"cannot reach sweep service at {url}: {error}") from error
        if response.will_close:
            connection.close()
        else:
            connections[endpoint] = connection
        return response.status, data


def rpc_call(
    url: str,
    method: str,
    params: Optional[Dict[str, Any]] = None,
    timeout: float = RPC_TIMEOUT_S,
    token: Optional[str] = None,
    context: Optional[ssl.SSLContext] = None,
) -> Any:
    """One ``POST /rpc`` round trip; returns the ``result`` field.

    The request travels over the calling thread's persistent connection
    to the endpoint (opened on first use).  ``token`` is sent as an
    ``Authorization: Bearer`` header; ``context`` is the SSL context for
    ``https://`` URLs (``None`` uses stdlib defaults — the system trust
    store).  Raises :class:`ServiceError` on transport failures and on
    error responses, with the server's message attached when there is
    one, and :class:`ServiceAuthError` when the service rejects the
    credentials.
    """
    headers = {"Content-Type": "application/json"}
    if token:
        headers["Authorization"] = f"Bearer {token}"
    body = json.dumps({"method": method, "params": params or {}}).encode("utf-8")
    status, data = _exchange(url, body, headers, timeout, context)
    if status != 200:
        try:
            detail = json.loads(data.decode("utf-8")).get("error", "")
        except Exception:
            detail = ""
        if status in (401, 403):
            raise ServiceAuthError(f"{method} failed: HTTP {status} ({detail or _AUTH_HINT})")
        raise ServiceError(f"{method} failed: HTTP {status}" + (f" — {detail}" if detail else ""))
    try:
        reply = json.loads(data.decode("utf-8"))
    except ValueError as error:
        raise ServiceError(f"{method}: malformed response from {url}: {error}") from error
    if not isinstance(reply, dict) or "result" not in reply:
        raise ServiceError(f"{method}: malformed response from {url}")
    return reply["result"]


def fetch_metrics(
    url: str,
    timeout: float = RPC_TIMEOUT_S,
    token: Optional[str] = None,
    cafile: Optional[str] = None,
    verify: Optional[bool] = None,
) -> str:
    """``GET /metrics`` — the server's registry as Prometheus text.

    Credentials resolve exactly like the RPC clients' (explicit kwargs,
    then the ``CHRONOS_*`` environment), so ``chronos-experiments
    metrics --broker https://…`` works wherever ``workers status`` does.
    """
    credentials = Credentials.resolve(token=token, cafile=cafile, verify=verify)
    context = client_ssl_context(url, cafile=credentials.cafile, verify=credentials.verify)
    headers: Dict[str, str] = {}
    if credentials.token:
        headers["Authorization"] = f"Bearer {credentials.token}"
    request = urllib.request.Request(
        url.rstrip("/") + METRICS_PATH, headers=headers, method="GET"
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout, context=context) as response:
            return response.read().decode("utf-8")
    except urllib.error.HTTPError as error:
        if error.code in (401, 403):
            raise ServiceAuthError(
                f"metrics failed: HTTP {error.code} (missing or rejected bearer token — "
                "pass --token or set CHRONOS_TOKEN)"
            ) from error
        raise ServiceError(f"metrics failed: HTTP {error.code}") from error
    except (urllib.error.URLError, OSError, ValueError) as error:
        raise ServiceError(f"cannot reach sweep service at {url}: {error}") from error


class _ServiceClient:
    """What both HTTP clients share: endpoint, credentials, one RPC path."""

    def __init__(
        self,
        url: str,
        token: Optional[str] = None,
        cafile: Optional[str] = None,
        verify: Optional[bool] = None,
    ):
        self._url = url.rstrip("/")
        self._credentials = Credentials.resolve(token=token, cafile=cafile, verify=verify)
        self._context = client_ssl_context(
            self._url, cafile=self._credentials.cafile, verify=self._credentials.verify
        )

    @property
    def url(self) -> str:
        """Base URL of the sweep service."""
        return self._url

    @property
    def credentials(self) -> Credentials:
        """The resolved security settings this client sends with."""
        return self._credentials

    def _call(self, method: str, **params: Any) -> Any:
        """One RPC by wire name, coerced and decoded by its table row."""
        wire = WIRE_METHODS[method]
        return wire.from_wire(
            rpc_call(
                self._url,
                method,
                wire.coerce(params),
                token=self._credentials.token,
                context=self._context,
            )
        )

    def close(self) -> None:
        """Close the calling thread's connection to the service."""
        _close_connection(self._url, self._context)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class HttpBroker(_ServiceClient):
    """The :class:`~repro.distributed.Broker` interface over HTTP.

    Every method without client-side logic is generated from
    :data:`~repro.service.protocol.WIRE_METHODS` (see
    :func:`_derive_rpc_methods`).

    Lease timing is enforced by the *server* (it owns the database and
    grants the leases); :attr:`policy` reports the server's policy so
    clients can pace heartbeats to match.  The constructor's ``policy``
    is only a local fallback used until the server has answered once.
    """

    def __init__(
        self,
        url: str,
        policy: Optional[LeasePolicy] = None,
        token: Optional[str] = None,
        cafile: Optional[str] = None,
        verify: Optional[bool] = None,
    ):
        super().__init__(url, token=token, cafile=cafile, verify=verify)
        self._fallback_policy = policy if policy is not None else LeasePolicy()
        self._server_policy: Optional[LeasePolicy] = None

    @property
    def policy(self) -> LeasePolicy:
        """The server's lease policy (fetched once, then cached)."""
        if self._server_policy is None:
            try:
                self._server_policy = self._call("policy")
            except ServiceError:
                return self._fallback_policy
        return self._server_policy

    def enqueue(
        self,
        payloads: Sequence[Dict[str, Any]],
        fingerprints: Sequence[str],
        span: Optional[Dict[str, Any]] = None,
    ) -> int:
        if len(payloads) != len(fingerprints):
            raise ValueError("payloads and fingerprints must have equal length")
        return self._call("enqueue", payloads=payloads, fingerprints=fingerprints, span=span)

    def claim(self, worker_id: str) -> Optional[Task]:
        tasks = self.claim_many(worker_id, 1)
        return tasks[0] if tasks else None

    def claim_many(self, worker_id: str, limit: int) -> List[Task]:
        if limit < 1:
            raise ValueError("claim limit must be a positive integer")
        return self._call("claim_many", worker_id=worker_id, limit=limit)

    def register_worker(self, worker_id: str, pid: Optional[int] = None) -> None:
        self._call("register_worker", worker_id=worker_id, pid=os.getpid() if pid is None else pid)

    def complete(self, fingerprint: str, worker_id: str, result_payload: Dict[str, Any]) -> None:
        self.complete_many(worker_id, [(fingerprint, result_payload)])

    def complete_many(
        self, worker_id: str, completions: Sequence[Tuple[str, Dict[str, Any]]]
    ) -> None:
        texts = [(fingerprint, json.dumps(payload)) for fingerprint, payload in completions]
        self._call("complete_texts", worker_id=worker_id, completions=texts)

    def stats(self) -> Dict[str, Any]:
        stats = self._call("stats")
        stats["url"] = self._url  # where the answer came from, for status output
        return stats

    def metrics(self) -> Dict[str, Any]:
        """JSON snapshot of the *server's* telemetry registry.

        The same data ``GET /metrics`` renders as Prometheus text; this
        form is for programmatic consumers (the ``metrics --json`` CLI).
        """
        return self._call("metrics")


class HttpResultStore(_ServiceClient):
    """The :class:`~repro.distributed.SqliteResultStore` interface over HTTP.

    Parsed results are memoized locally (like the sqlite store's memory
    layer), so repeated ``get``/``get_many`` calls for collected
    fingerprints do not re-fetch or re-parse.  Payload reads share one
    chunked path, :meth:`_stored_payloads`.  Every other method is
    generated from :data:`~repro.service.protocol.WIRE_METHODS`.
    """

    def __init__(
        self,
        url: str,
        token: Optional[str] = None,
        cafile: Optional[str] = None,
        verify: Optional[bool] = None,
    ):
        super().__init__(url, token=token, cafile=cafile, verify=verify)
        self._memory: Dict[str, ScenarioResult] = {}

    def get(self, fingerprint: str) -> Optional[ScenarioResult]:
        return self.get_many([fingerprint]).get(fingerprint)

    def get_many(self, fingerprints: Iterable[str]) -> Dict[str, ScenarioResult]:
        """Stored results by fingerprint; misses (and corrupt rows) are absent.

        Memoized fingerprints are answered locally; the rest cost one
        ``result_texts`` round trip per :data:`RESULT_BATCH`.
        """
        wanted = list(dict.fromkeys(fingerprints))
        found = {fp: self._memory[fp] for fp in wanted if fp in self._memory}
        for fingerprint, payload in self._stored_payloads(fp for fp in wanted if fp not in found):
            try:
                result = result_from_dict(payload)
            except (ValueError, TypeError, KeyError):
                continue  # corrupt row: a miss, never an error
            self._memory[fingerprint] = found[fingerprint] = result
        return found

    def get_payload_many(self, fingerprints: Iterable[str]) -> Dict[str, Dict[str, Any]]:
        """Raw stored payloads by fingerprint (no :class:`ScenarioResult` parse).

        One ``result_texts`` round trip per :data:`RESULT_BATCH`; misses
        and corrupt rows are absent.
        """
        return dict(self._stored_payloads(dict.fromkeys(fingerprints)))

    def _stored_payloads(self, fingerprints: Iterable[str]) -> Iterator[Tuple[str, Dict[str, Any]]]:
        """``(fingerprint, payload dict)`` per stored row, corrupt rows skipped.

        Fetches :data:`RESULT_BATCH` payload texts per round trip and
        decodes each one once, as it goes.
        """
        wanted = list(fingerprints)
        for start in range(0, len(wanted), RESULT_BATCH):
            texts = self._call("result_texts", fingerprints=wanted[start:start + RESULT_BATCH])
            for fingerprint, text in texts.items():
                payload = payload_from_text(text)
                if payload is not None:
                    yield fingerprint, payload

    def put(self, result: ScenarioResult, worker_id: Optional[str] = None) -> None:
        self._memory[result.fingerprint] = result
        self._call("result_put", payload=result.to_dict(), worker_id=worker_id)

    def clear(self) -> None:
        """Drop the local memo (server rows are left alone)."""
        self._memory.clear()

    def __contains__(self, fingerprint: object) -> bool:
        return isinstance(fingerprint, str) and self.get(fingerprint) is not None


def _rpc_method(name: str, mirrored: Callable[..., Any]) -> Callable[..., Any]:
    """A client method sending its arguments, by name, as RPC ``name``.

    It takes the signature and docstring of ``mirrored``, the sqlite
    method the RPC runs on the server, and binds its arguments (defaults
    included) against that signature before the round trip.
    """
    signature = inspect.signature(mirrored)
    unbound = signature.replace(parameters=list(signature.parameters.values())[1:])

    @functools.wraps(mirrored, assigned=("__name__", "__doc__"))
    def method(self: _ServiceClient, *args: Any, **kwargs: Any) -> Any:
        bound = unbound.bind(*args, **kwargs)
        bound.apply_defaults()
        return self._call(name, **bound.arguments)

    return method


def _derive_rpc_methods(cls: type, owner: str, contract: type) -> None:
    """Give ``cls`` a generated method for each of ``owner``'s wire methods.

    A method ``cls`` writes out itself (client-side checks, memoizing)
    is kept, and so is any row whose target is not a plain method of
    ``contract`` (``policy`` is a property) or is private (a text path
    that a written-out method reaches through ``_call``).
    """
    for wire in WIRE_METHODS.values():
        mirrored = contract.__dict__.get(wire.target)
        private = wire.target.startswith("_") and not wire.target.endswith("__")
        if (
            wire.owner != owner
            or private
            or wire.target in cls.__dict__
            or not inspect.isfunction(mirrored)
        ):
            continue
        method = _rpc_method(wire.name, mirrored)
        method.__qualname__ = f"{cls.__name__}.{wire.target}"
        setattr(cls, wire.target, method)


_derive_rpc_methods(HttpBroker, BROKER, Broker)
_derive_rpc_methods(HttpResultStore, STORE, SqliteResultStore)
