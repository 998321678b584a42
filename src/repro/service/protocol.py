"""Wire protocol of the sweep service: JSON bodies shared by both ends.

The service speaks a deliberately small JSON-over-HTTP dialect:

- ``POST /rpc`` with ``{"method": <name>, "params": {...}}`` invokes one
  broker or result-store operation and answers ``{"result": ...}`` on
  success or ``{"error": "..."}`` with a 4xx/5xx status on failure.
- ``GET /healthz`` answers liveness (used by CI and load balancers).
- ``GET /status`` answers the broker's :meth:`~repro.distributed.Broker.
  stats` dict (handy for ``curl``; the CLI goes through RPC).
- ``GET /metrics`` answers the process-wide telemetry registry in the
  Prometheus text exposition format.  Like ``/status`` it sits behind
  the bearer token when one is configured; scrapers pass
  ``Authorization: Bearer <token>``.

Every RPC is one row of :data:`WIRE_METHODS`, and both ends are built
from that table.  The sqlite :class:`~repro.distributed.Broker` and
:class:`~repro.distributed.SqliteResultStore` are the contract: a row
names the wire method, its owner on the server (the broker, the result
store, or the telemetry registry), the owner's method that answers it,
the coercions applied to its named parameters, and a result codec pair
(``to_wire`` on the server, ``from_wire`` on the client; identity when
absent).  :class:`~repro.service.server.BrokerService` dispatches by
looking the row up, and :mod:`repro.service.client` generates every
pass-through method of ``HttpBroker``/``HttpResultStore`` from the
rows, with the signature and docstring of the sqlite method it mirrors
(the few methods with client-side logic — argument checks, the pid
default, the chunked result reads — are written out there).

Parameter coercions run on both ends: the client sends canonical JSON
and reports a bad argument as :class:`ValueError`/:class:`TypeError`
before the round trip, and the server applies them again against any
HTTP client, answering a malformed parameter with HTTP 400.

Everything on the wire is JSON-native: :class:`~repro.distributed.Task`
and :class:`~repro.distributed.LeasePolicy` cross as plain dicts via the
``*_to_wire`` / ``*_from_wire`` codecs of their rows, so the server
never pickles and any HTTP client can drive a queue.

Queue *progress* crosses the same way: the ``events_since`` method
relays the broker's monotonic event log as plain dicts (``{"seq", "ts",
"kind", "fingerprint", "worker_id", "detail"}``), ``last_event_seq``
answers where the log stands, and ``release_pending`` lets a cancelled
remote sweep withdraw its unclaimed tasks.  ``events_since`` with
``wait_s > 0`` is a long poll: the service parks the call until the
queue settles or ``wait_s`` passes, and the rows marked ``settles``
(the RPCs that can leave nothing pending or leased) wake it.  A 3.0
service rejects the parameter, and a sweep driver then falls back to
polling the result store.

Spec and result payloads cross as JSON *text* that the service neither
rebuilds nor re-encodes: ``claim_many`` answers each task's stored spec
text, and results cross in batches, ``result_texts``
(``{"fingerprints": [...]}`` → ``{fingerprint: payload text}``, misses
absent) and
``complete_texts`` (``{"worker_id", "completions": [[fingerprint,
payload text], ...]}``).  The service stores a completion's text as it
is, after checking that it decodes to a JSON object (a completion that
does not is an HTTP 400: nothing is stored and the leases stay held),
and each client decodes a payload it receives exactly once, so a
corrupt stored row is a miss on the client.  There is no one-at-a-time
result read, completion or claim on the wire, and no task-row or
whole-store reader either: ``task``, ``tasks``, ``results`` and
``result_len`` are unknown methods since 15.0 (every remaining row's
format is unchanged, so the protocol is still 2).

Protocol 2 (version 4.0) introduced the text payloads.  The methods
whose payloads changed type were renamed (protocol 1's batched result
read and ``complete_many`` are unknown methods now, an HTTP 400), and a protocol-2 client reading a protocol-1 ``claim_many``
raises instead of guessing, so mixing versions fails loudly rather
than dropping results.  Upgrade the service, fleets and drivers
together.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Mapping, Tuple

from repro.distributed.broker import Task
from repro.distributed.leases import MAX_ATTEMPTS, Lease, LeasePolicy
from repro.distributed.store import summary_columns

#: URL paths of the four endpoints.
RPC_PATH = "/rpc"
HEALTH_PATH = "/healthz"
STATUS_PATH = "/status"
METRICS_PATH = "/metrics"

#: Content type of the Prometheus text exposition format.
METRICS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Protocol revision, reported by ``/healthz`` (bump on breaking change).
PROTOCOL_VERSION = 2


class ServiceError(RuntimeError):
    """An RPC against the sweep service failed (transport or server side)."""


class ServiceAuthError(ServiceError):
    """The service rejected the request's credentials (HTTP 401/403).

    Kept distinct from plain :class:`ServiceError` because the two call
    for opposite reactions: transport blips are transient (workers retry
    them with backoff), but a bad or missing bearer token will never get
    better on its own — workers fail fast and the CLI turns it into an
    exit-2 diagnostic instead of a retry loop.
    """


def claimed_to_wire(claimed: Tuple[str, str, int, Lease]) -> Dict[str, Any]:
    """One task claimed by ``Broker._claim_texts`` as a JSON-native dict.

    The spec payload stays the JSON text the queue stored.
    """
    fingerprint, payload, attempts, lease = claimed
    return {
        "fingerprint": fingerprint,
        "payload": payload,
        "attempts": attempts,
        "lease": {
            "fingerprint": lease.fingerprint,
            "owner": lease.owner,
            "expires_at": lease.expires_at,
        },
    }


def task_from_wire(data: Mapping[str, Any]) -> Task:
    """Rebuild a :class:`Task` from :func:`claimed_to_wire` output.

    The payload text is decoded here, once.  A decoded payload means a
    protocol-1 service: a :class:`TypeError`, which a worker does not
    retry (it would only lease more tasks it cannot read).
    """
    payload = data["payload"]
    if not isinstance(payload, str):
        raise TypeError(
            f"claim_many answered a decoded payload: the service speaks an older protocol "
            f"than {PROTOCOL_VERSION}; upgrade the service, fleets and drivers together"
        )
    lease = data["lease"]
    return Task(
        fingerprint=str(data["fingerprint"]),
        payload=json.loads(payload),
        attempts=int(data["attempts"]),
        lease=Lease(
            fingerprint=str(lease["fingerprint"]),
            owner=str(lease["owner"]),
            expires_at=float(lease["expires_at"]),
        ),
    )


def policy_to_wire(policy: LeasePolicy) -> Dict[str, Any]:
    """A lease policy as a JSON-native dict.

    The heartbeat interval and attempt limit are derived, not set, but
    still cross the wire: clients of earlier releases read all three.
    """
    return {
        "timeout": policy.timeout,
        "heartbeat_interval": policy.heartbeat_interval,
        "max_attempts": MAX_ATTEMPTS,
    }


def policy_from_wire(data: Mapping[str, Any]) -> LeasePolicy:
    """Rebuild a :class:`LeasePolicy` from :func:`policy_to_wire` output."""
    return LeasePolicy(timeout=float(data["timeout"]))


#: Owners of wire methods on the server side.
BROKER, STORE, TELEMETRY = "broker", "store", "telemetry"


def _identity(value: Any) -> Any:
    return value


def _optional(convert: Callable[[Any], Any]) -> Callable[[Any], Any]:
    return lambda value: None if value is None else convert(value)


def _each(convert: Callable[[Any], Any]) -> Callable[[Any], Any]:
    return lambda items: [convert(item) for item in items]


_strings = _each(str)


def _text_pairs(completions: Any) -> Any:
    return [(str(fingerprint), text) for fingerprint, text in completions]


@dataclass(frozen=True)
class WireMethod:
    """One RPC: who answers it, how its parameters and result cross.

    ``owner`` is :data:`BROKER`, :data:`STORE` or :data:`TELEMETRY`;
    ``attr`` names the owner's method answering the call (the wire name
    when empty; a property such as the broker's ``policy`` is read, not
    called).  ``params`` maps parameter names to coercions; parameters
    it does not name pass through as decoded from JSON.  ``settles``
    marks a method after which the queue may be settled, so the service
    wakes the ``events_since`` calls parked on it.
    """

    name: str
    owner: str
    params: Mapping[str, Callable[[Any], Any]] = field(default_factory=dict)
    to_wire: Callable[[Any], Any] = _identity
    from_wire: Callable[[Any], Any] = _identity
    attr: str = ""
    settles: bool = False

    @property
    def target(self) -> str:
        """The owner's attribute answering this method."""
        return self.attr or self.name

    def coerce(self, params: Dict[str, Any]) -> Dict[str, Any]:
        """``params`` with this method's coercions applied."""
        if not self.params:
            return params
        return {
            name: self.params[name](value) if name in self.params else value
            for name, value in params.items()
        }


#: Every RPC the service exports, by wire name.
WIRE_METHODS: Dict[str, WireMethod] = {
    method.name: method
    for method in (
        # producer side
        WireMethod(
            "enqueue", BROKER,
            {"payloads": list, "fingerprints": _strings, "span": _optional(dict)},
        ),
        WireMethod("drain", BROKER),
        WireMethod("is_draining", BROKER),
        # consumer side
        WireMethod(
            "claim_many", BROKER, {"limit": int}, _each(claimed_to_wire), _each(task_from_wire),
            attr="_claim_texts",
        ),
        WireMethod("heartbeat", BROKER),
        WireMethod(
            "complete_texts", BROKER, {"completions": _text_pairs}, attr="_complete_texts",
            settles=True,
        ),
        WireMethod("fail", BROKER, {"error": str}, settles=True),
        WireMethod(
            "requeue_expired", BROKER,
            {"now": _optional(float), "dry_run": bool}, from_wire=tuple, settles=True,
        ),
        WireMethod("release_worker", BROKER, from_wire=tuple, settles=True),
        WireMethod("release_pending", BROKER, {"fingerprints": _strings}, settles=True),
        # worker liveness (remote pid travels with the registration)
        WireMethod("register_worker", BROKER, {"pid": _optional(int)}),
        WireMethod("touch_worker", BROKER),
        # introspection
        WireMethod("counts", BROKER),
        WireMethod("settled", BROKER),
        WireMethod("failed_payloads", BROKER, from_wire=_each(tuple)),
        WireMethod("workers", BROKER),
        WireMethod("leased", BROKER, {"now": _optional(float)}),
        WireMethod("stats", BROKER),
        WireMethod("telemetry_summary", BROKER, {"window_s": float}),
        WireMethod("policy", BROKER, to_wire=policy_to_wire, from_wire=policy_from_wire),
        # telemetry (JSON snapshot of the same registry /metrics renders)
        WireMethod("metrics", TELEMETRY, attr="snapshot"),
        # event log (live sweep progress over the wire)
        WireMethod("events_since", BROKER, {"seq": int, "limit": int, "wait_s": float}),
        WireMethod("last_event_seq", BROKER),
        WireMethod("record_event", BROKER, {"kind": str}),
        WireMethod("events_for", BROKER, {"fingerprint": str, "limit": int}),
        WireMethod("done_watermark", BROKER),
        WireMethod("prune_events", BROKER, {"before_seq": _optional(int)}),
        # result store
        WireMethod("result_texts", STORE, {"fingerprints": _strings}, attr="_payload_texts"),
        WireMethod("result_put", STORE, attr="put_payload"),
        WireMethod(
            "result_fingerprints", STORE, to_wire=sorted, from_wire=set, attr="fingerprints"
        ),
        WireMethod("summary_rows", STORE, {"columns": summary_columns}),
    )
}
