"""Multi-host sweep service: HTTP broker front-end and remote-worker clients.

PR 2's distributed executor shares work through a sqlite file, which
binds every worker to one filesystem.  This package puts a stdlib-only
HTTP server in front of that database and gives every distributed piece
an HTTP twin, so fleets on other hosts need nothing but a URL:

- :func:`make_server` / :func:`serve` — a
  :class:`~http.server.ThreadingHTTPServer` exposing every
  :class:`~repro.distributed.Broker` and
  :class:`~repro.distributed.SqliteResultStore` operation as
  JSON-over-HTTP (``POST /rpc``, plus ``GET /healthz`` and
  ``GET /status``).  The server is the only process touching sqlite.
- :class:`HttpBroker` / :class:`HttpResultStore` — clients implementing
  the same interfaces, so :class:`~repro.distributed.Worker`,
  :class:`~repro.distributed.WorkerPool` and ``run_specs(...,
  executor="distributed")`` run unchanged against a remote URL.

One deployment, three commands::

    chronos-experiments serve --db queue.sqlite --port 8176        # host A
    chronos-experiments workers start --broker http://a:8176       # hosts B, C
    chronos-experiments sweep --spec sweep.json --broker http://a:8176

Crossing an untrusted network?  Add a bearer token and a certificate
(:mod:`repro.service.security`) and nothing else changes::

    chronos-experiments serve --db queue.sqlite --token "$CHRONOS_TOKEN" \
        --certfile cert.pem --keyfile key.pem                      # host A
    CHRONOS_TOKEN=… CHRONOS_CAFILE=cert.pem \
        chronos-experiments workers start --broker https://a:8176  # hosts B, C

or in code::

    from repro.api import Sweep
    outcome = sweep.run(executor="distributed", broker="http://a:8176")

Determinism makes the transport invisible: fingerprints and result
payloads are byte-identical whether a sweep ran inline, on one machine,
or across a fleet of hosts.
"""

from repro._lazy import lazy_exports

#: Each public name and the module that defines it, imported on first
#: access (PEP 562): the server never loads the clients, and neither
#: loads the sweep API until a call decodes a result.
_EXPORTS = {
    # server
    **dict.fromkeys(
        (
            "BrokerService",
            "ServiceHTTPServer",
            "ServiceRequestHandler",
            "UnknownMethodError",
            "make_server",
            "serve",
        ),
        "repro.service.server",
    ),
    # clients
    **dict.fromkeys(
        ("HttpBroker", "HttpResultStore", "rpc_call", "fetch_metrics"), "repro.service.client"
    ),
    # protocol
    **dict.fromkeys(
        (
            "ServiceError",
            "ServiceAuthError",
            "RPC_PATH",
            "HEALTH_PATH",
            "STATUS_PATH",
            "METRICS_PATH",
            "METRICS_CONTENT_TYPE",
            "PROTOCOL_VERSION",
        ),
        "repro.service.protocol",
    ),
    # security
    **dict.fromkeys(
        (
            "Credentials",
            "token_matches",
            "client_ssl_context",
            "server_ssl_context",
            "TOKEN_ENV",
            "CAFILE_ENV",
            "VERIFY_ENV",
        ),
        "repro.service.security",
    ),
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
