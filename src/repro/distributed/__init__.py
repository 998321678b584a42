"""Distributed sweep execution: durable queue, lease-based workers, sqlite results.

This package runs :class:`repro.api.Sweep` on worker processes: a
:class:`Broker` persists a content-addressed work queue of scenario
fingerprints in a WAL-mode sqlite database, :class:`Worker` processes
claim tasks under expiring, heartbeat-renewed leases (crashed workers
are requeued automatically, with bounded attempts), and a
:class:`SqliteResultStore` keeps every finished
:class:`~repro.api.ScenarioResult` in the same database — so an
identical re-run executes nothing at all.

Most callers never touch these classes directly; they ask the sweep
layer for the backend::

    from repro.api import Sweep
    outcome = sweep.run(executor="distributed", workers=3, db="queue.sqlite")

or drive long-lived workers from the CLI::

    chronos-experiments workers start --db queue.sqlite --workers 4
    chronos-experiments sweep --spec sweep.json --executor distributed --db queue.sqlite
    chronos-experiments workers status --db queue.sqlite

Queue *targets* are strings: a sqlite path (``"queue.sqlite"`` /
``"sqlite:queue.sqlite"``) for workers sharing a filesystem, the
``http://host:port`` URL of a :mod:`repro.service` broker front-end for
multi-host fleets — :func:`open_broker` / :func:`open_store` dispatch,
and :class:`Worker`, :class:`WorkerPool` and :func:`execute_stream`
accept either.  The pieces are public for
anyone building a custom topology (remote workers pointed at a shared
service, say).
"""

from repro.distributed.broker import (
    EVENT_KINDS,
    TRIAL_EVENT_KINDS,
    Broker,
    Task,
    TaskFailedError,
)
from repro.distributed.executor import default_db_path, execute_stream
from repro.distributed.leases import Lease, LeaseKeeper, LeasePolicy
from repro.distributed.store import (
    SqliteResultStore,
    connect,
    normalize_db_path,
)
from repro.distributed.targets import is_service_url, open_broker, open_store
from repro.distributed.worker import (
    RestartPolicy,
    RestartRateLimiter,
    Worker,
    WorkerPool,
    make_worker_id,
    worker_main,
)

__all__ = [
    # queue
    "Broker",
    "Task",
    "TaskFailedError",
    "EVENT_KINDS",
    "TRIAL_EVENT_KINDS",
    # leases
    "Lease",
    "LeasePolicy",
    "LeaseKeeper",
    # workers
    "Worker",
    "WorkerPool",
    "RestartPolicy",
    "RestartRateLimiter",
    "worker_main",
    "make_worker_id",
    # results
    "SqliteResultStore",
    "connect",
    # targets
    "normalize_db_path",
    "is_service_url",
    "open_broker",
    "open_store",
    # driver
    "execute_stream",
    "default_db_path",
]
