"""Sqlite persistence layer of the distributed sweep subsystem.

One database file holds everything a distributed run needs: the durable
task queue (``tasks``), the content-addressed result store (``results``),
worker liveness records (``workers``) and a tiny ``control`` key/value
table (used by ``drain``).  The file is opened in WAL mode so one writer
and many readers — broker, workers and the supervising parent — can share
it without blocking each other.

:class:`SqliteResultStore` is the piece visible outside this package:
the sweep layer's result cache (``cache=`` of :func:`repro.api.run_specs`,
``--cache-dir`` of the CLI).  It keeps every scenario result as one row,
in a file or — with ``":memory:"`` — for the life of the process only.

Its export reads (:meth:`SqliteResultStore.results`,
:meth:`SqliteResultStore.summary_rows`) parse the stored rows one at a
time, in insertion order; a summary row is always
:meth:`ScenarioResult.summary_row` of the parsed result, so
``chronos-experiments export --columns ...`` prints the same cells as
the full export.
"""

from __future__ import annotations

import json
import sqlite3
import time
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Optional, Set, Tuple, Union

from repro.api.facade import ScenarioResult, result_from_dict
from repro.api.sweep import SweepResult

#: Milliseconds a connection waits on a locked database before failing.
BUSY_TIMEOUT_MS = 10_000

#: Fingerprints per ``IN (…)`` select of a batched read (well under
#: sqlite's bound-parameter limit).
READ_CHUNK = 500

#: Fingerprints per batched result read over HTTP (one ``result_texts``
#: round trip), and per chunk the sweep driver decodes.  Bounds one
#: response body, and so the sweep driver's peak memory.
RESULT_BATCH = 64

#: Optional scheme prefix accepted wherever a queue database path is taken
#: (``db="sqlite:queue.sqlite"``), mirroring the ``http://`` broker URLs of
#: :mod:`repro.service`.
SQLITE_PREFIX = "sqlite:"


def normalize_db_path(target: Union[str, Path]) -> Path:
    """A queue-database target as a filesystem path (``sqlite:`` stripped)."""
    text = str(target)
    if text.startswith(SQLITE_PREFIX):
        text = text[len(SQLITE_PREFIX):]
    return Path(text)

SCHEMA = """
CREATE TABLE IF NOT EXISTS tasks (
    fingerprint     TEXT PRIMARY KEY,
    payload         TEXT NOT NULL,
    status          TEXT NOT NULL DEFAULT 'pending',
    attempts        INTEGER NOT NULL DEFAULT 0,
    max_attempts    INTEGER NOT NULL DEFAULT 3,
    lease_owner     TEXT,
    lease_expires_at REAL,
    error           TEXT,
    enqueued_at     REAL NOT NULL,
    updated_at      REAL NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_tasks_status ON tasks(status, enqueued_at);
CREATE TABLE IF NOT EXISTS results (
    fingerprint TEXT PRIMARY KEY,
    payload     TEXT NOT NULL,
    worker_id   TEXT,
    created_at  REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS workers (
    worker_id    TEXT PRIMARY KEY,
    pid          INTEGER,
    started_at   REAL NOT NULL,
    last_seen_at REAL NOT NULL,
    tasks_done   INTEGER NOT NULL DEFAULT 0
);
CREATE TABLE IF NOT EXISTS control (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS events (
    seq         INTEGER PRIMARY KEY AUTOINCREMENT,
    ts          REAL NOT NULL,
    kind        TEXT NOT NULL,
    fingerprint TEXT,
    worker_id   TEXT,
    detail      TEXT
);
"""


def payload_from_text(text: Any) -> Optional[Dict[str, Any]]:
    """A stored payload's JSON text decoded, or ``None`` unless it is an object.

    The payload reads of both result stores, and the service's check of
    a completion's text, decode through here: a corrupt row (unparseable
    text, or JSON that is not an object) is a miss on every backend,
    never an error.
    """
    try:
        payload = json.loads(text)
    except (TypeError, ValueError):
        return None
    return payload if isinstance(payload, dict) else None


def summary_columns(columns: Optional[Iterable[str]] = None) -> List[str]:
    """The :attr:`SweepResult.COLUMNS` a ``summary_rows(columns)`` call selects.

    ``None`` selects every column.  Unknown names, or an empty
    selection, raise :class:`ValueError` on every result-store backend.
    """
    if columns is None:
        return list(SweepResult.COLUMNS)
    selected = list(columns)
    unknown = [column for column in selected if column not in SweepResult.COLUMNS]
    if unknown:
        raise ValueError(
            f"unknown summary column(s) {', '.join(unknown)} "
            f"(available: {', '.join(SweepResult.COLUMNS)})"
        )
    if not selected:
        raise ValueError("columns must name at least one summary column")
    return selected


def connect(path: Union[str, Path]) -> sqlite3.Connection:
    """Open (creating if needed) a queue database in WAL mode.

    Every process — broker, worker, heartbeat thread — gets its own
    connection; sqlite's WAL journal plus a generous busy timeout does the
    cross-process coordination.
    """
    path = normalize_db_path(path)
    if path.parent != Path("."):
        path.parent.mkdir(parents=True, exist_ok=True)
    # Autocommit mode: transactions are opened explicitly (BEGIN IMMEDIATE)
    # where read-then-write atomicity matters, instead of relying on
    # pysqlite's implicit transaction sniffing.  check_same_thread is off
    # because owners that *do* cross threads (the HTTP front-end's handler
    # threads) serialize every call under their own lock; everyone else
    # keeps the one-connection-per-thread discipline.
    conn = sqlite3.connect(
        str(path),
        timeout=BUSY_TIMEOUT_MS / 1000.0,
        isolation_level=None,
        check_same_thread=False,
    )
    conn.row_factory = sqlite3.Row
    conn.execute(f"PRAGMA busy_timeout = {BUSY_TIMEOUT_MS}")
    deadline = time.monotonic() + BUSY_TIMEOUT_MS / 1000.0
    while True:
        try:
            conn.execute("PRAGMA journal_mode = WAL")
            break
        except sqlite3.OperationalError as error:
            # Switching a fresh file to WAL needs an exclusive lock that
            # sqlite does not wait for (the busy handler is skipped), so
            # processes opening a new queue together retry here.
            if "locked" not in str(error) or time.monotonic() > deadline:
                conn.close()
                raise
            time.sleep(0.01)
    conn.execute("PRAGMA synchronous = NORMAL")
    conn.executescript(SCHEMA)
    conn.commit()
    return conn


class SqliteResultStore:
    """Fingerprint-keyed scenario results in one sqlite database.

    Implements :class:`repro.api.ResultStore`, so it can be passed
    anywhere a cache is accepted (``run_specs(...,
    cache=SqliteResultStore("queue.sqlite"))``); ``":memory:"`` gives a
    process-local cache that creates no file.  Rows are written inside a
    transaction, so readers never see a partial result, and are shared
    with the broker's queue tables, which is what lets a re-run of a
    distributed sweep answer every scenario without executing anything.
    """

    def __init__(self, path: Union[str, Path]):
        self._path = normalize_db_path(path)
        self._conn = connect(self._path)
        self._memory: Dict[str, ScenarioResult] = {}

    @property
    def path(self) -> Path:
        """Location of the backing database file."""
        return self._path

    def get(self, fingerprint: str) -> Optional[ScenarioResult]:
        """The stored result for a fingerprint, or ``None`` on a miss."""
        return self.get_many([fingerprint]).get(fingerprint)

    def get_many(self, fingerprints: Iterable[str]) -> Dict[str, ScenarioResult]:
        """Stored results by fingerprint; misses (and corrupt rows) are absent.

        The in-memory layer answers first; the rest is one ``IN (…)``
        select per :data:`READ_CHUNK` fingerprints — the sweep driver's
        batched replacement for one point read per completion.
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

    def get_payload(self, fingerprint: str) -> Optional[Dict[str, Any]]:
        """The raw stored result payload (no :class:`ScenarioResult` parse)."""
        return self.get_payload_many([fingerprint]).get(fingerprint)

    def get_payload_many(self, fingerprints: Iterable[str]) -> Dict[str, Dict[str, Any]]:
        """Raw stored payloads by fingerprint (no :class:`ScenarioResult` parse).

        The sweep driver reads these and rebuilds each result from the
        spec it already holds.  Misses and corrupt rows are absent.
        """
        return dict(self._stored_payloads(dict.fromkeys(fingerprints)))

    def _payload_texts(self, fingerprints: Iterable[str]) -> Dict[str, str]:
        """Stored payload texts by fingerprint, exactly as stored.

        The HTTP front-end serves these undecoded, so it pays no JSON
        work for results it only relays; each client decodes the text
        once (:func:`payload_from_text`), and a corrupt row is a miss
        there.  Misses are absent.
        """
        return dict(self._stored_texts(dict.fromkeys(fingerprints)))

    def _stored_payloads(self, fingerprints: Iterable[str]) -> Iterator[Tuple[str, Dict[str, Any]]]:
        """``(fingerprint, payload dict)`` per stored row, corrupt rows skipped.

        Rows are decoded one at a time, so a caller that parses as it
        goes never holds a whole chunk of decoded payloads.
        """
        for fingerprint, text in self._stored_texts(fingerprints):
            payload = payload_from_text(text)
            if payload is not None:
                yield fingerprint, payload

    def _stored_texts(self, fingerprints: Iterable[str]) -> Iterator[Tuple[str, str]]:
        """``(fingerprint, payload text)`` per stored row, read in chunks."""
        wanted = list(fingerprints)
        for start in range(0, len(wanted), READ_CHUNK):
            chunk = wanted[start:start + READ_CHUNK]
            for row in self._conn.execute(
                "SELECT fingerprint, payload FROM results WHERE fingerprint IN "
                f"({', '.join('?' for _ in chunk)})",
                chunk,
            ):
                yield row["fingerprint"], row["payload"]

    def put(self, result: ScenarioResult, worker_id: Optional[str] = None) -> None:
        """Store a result under its fingerprint (idempotent upsert)."""
        self._memory[result.fingerprint] = result
        self.put_payload(result.to_dict(), worker_id=worker_id, fingerprint=result.fingerprint)

    def put_payload(
        self,
        payload: Dict[str, Any],
        worker_id: Optional[str] = None,
        fingerprint: Optional[str] = None,
    ) -> None:
        """Store an already-serialized result dict (the HTTP server's path)."""
        if fingerprint is None:
            fingerprint = str(payload["fingerprint"])
        self._conn.execute(
            "INSERT OR REPLACE INTO results (fingerprint, payload, worker_id, created_at) "
            "VALUES (?, ?, ?, ?)",
            (fingerprint, json.dumps(payload), worker_id, time.time()),
        )
        self._conn.commit()

    def summary_rows(
        self, columns: Optional[Iterable[str]] = None
    ) -> List[Dict[str, Any]]:
        """:meth:`ScenarioResult.summary_row` of every stored result, in insertion order.

        ``columns`` selects a subset of :attr:`SweepResult.COLUMNS`;
        unknown names raise :class:`ValueError`.  Corrupt rows are
        skipped, as :meth:`results` skips them.  Results are parsed one
        at a time and not kept, so exporting a large store does not hold
        every result in memory.
        """
        selected = summary_columns(columns)
        rows = []
        for result in self._scan():
            row = result.summary_row()
            rows.append({column: row[column] for column in selected})
        return rows

    def fingerprints(self) -> Set[str]:
        """All stored fingerprints in one query (cheap presence check)."""
        rows = self._conn.execute("SELECT fingerprint FROM results").fetchall()
        return {row["fingerprint"] for row in rows}

    def results(self) -> List[ScenarioResult]:
        """Every stored result, in insertion order (skipping corrupt rows).

        A full scan parsed into :class:`ScenarioResult` objects, ready to
        wrap in a :class:`repro.api.SweepResult` for tabular output.  Like
        :meth:`summary_rows`, it leaves the in-memory layer alone, so a
        long-lived owner (the HTTP service) does not keep every result it
        once listed.
        """
        return list(self._scan())

    def _scan(self) -> Iterator[ScenarioResult]:
        """Every stored result in insertion order, parsed one row at a time.

        The in-memory layer answers rows it holds; corrupt rows are
        skipped, never an error.
        """
        for row in self._conn.execute(
            "SELECT fingerprint, payload FROM results ORDER BY created_at, fingerprint"
        ):
            result = self._memory.get(row["fingerprint"])
            if result is None:
                try:
                    result = result_from_dict(json.loads(row["payload"]))
                except (ValueError, TypeError, KeyError):
                    continue
            yield result

    def clear(self) -> None:
        """Drop the in-memory layer (database rows are left alone)."""
        self._memory.clear()

    def __len__(self) -> int:
        row = self._conn.execute("SELECT COUNT(*) AS n FROM results").fetchone()
        return int(row["n"])

    def __contains__(self, fingerprint: object) -> bool:
        return isinstance(fingerprint, str) and self.get(fingerprint) is not None

    def close(self) -> None:
        """Close the underlying connection (further calls will fail)."""
        self._conn.close()

    def __enter__(self) -> "SqliteResultStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
