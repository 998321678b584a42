"""The trial ledger: durable ask/tell state for resumable searches.

A search is only as crash-safe as its bookkeeping.  The
:class:`TrialLedger` records every trial an algorithm has proposed —
its parameters, the scenario fingerprint it resolved to, and its
lifecycle state — in one sqlite file opened with the same WAL idiom as
the distributed queue (:func:`repro.distributed.store.connect`): WAL
journal, generous busy timeout, explicit ``BEGIN IMMEDIATE`` where
read-then-write atomicity matters.  Kill the driver at any point and a
re-run replays completed trials from the ledger (telling their recorded
objectives back to the algorithm) instead of re-executing them; combined
with the fingerprint-keyed result store this makes a resumed search
execute **zero** repeated scenarios.

Trial lifecycle::

    propose --> leased --complete--> completed
                   \\------fail-----> failed
    (never executed) ----prune----> pruned

``propose`` records a trial and the fingerprint of the scenario it runs
in one statement, so a ledger row is ``leased`` from the moment it
exists.  Completed rows stay: :attr:`SearchResult.trials` lists them,
and a resume over the default in-memory result cache has no other
record of their objectives.

The ledger deliberately has its own schema — ``trials`` plus a
``search_meta`` key/value table — rather than piggybacking on the queue
database: a search can run against any executor (inline, pool,
distributed, remote HTTP service) and its ledger must not depend on one
backend's storage existing.  A ``search_meta`` mismatch (resuming a
ledger with a different algorithm, objective or base spec) is refused
loudly instead of silently mixing two searches' trials.
"""

from __future__ import annotations

import json
import sqlite3
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Union

from repro.distributed.store import BUSY_TIMEOUT_MS, normalize_db_path

#: Trial states, in roughly the order of the lifecycle.
TRIAL_STATES = ("leased", "completed", "failed", "pruned")

_SCHEMA = """
CREATE TABLE IF NOT EXISTS trials (
    trial_id    TEXT PRIMARY KEY,
    params      TEXT NOT NULL,
    fingerprint TEXT,
    state       TEXT NOT NULL,
    objective   REAL,
    score       REAL,
    metrics     TEXT,
    detail      TEXT,
    proposed_at REAL NOT NULL,
    updated_at  REAL NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_trials_state ON trials(state, proposed_at);
CREATE TABLE IF NOT EXISTS search_meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
"""


@dataclass(frozen=True)
class TrialRecord:
    """A read-only snapshot of one ledger row."""

    trial_id: str
    params: Dict[str, Any]
    fingerprint: Optional[str]
    state: str
    objective: Optional[float]
    score: Optional[float]
    metrics: Optional[Dict[str, Any]]
    detail: Optional[str]
    proposed_at: float
    updated_at: float


def _row_to_record(row: sqlite3.Row) -> TrialRecord:
    metrics = None
    if row["metrics"]:
        try:
            metrics = json.loads(row["metrics"])
        except ValueError:
            metrics = None
    try:
        params = json.loads(row["params"])
    except ValueError:
        params = {}
    return TrialRecord(
        trial_id=row["trial_id"],
        params=params if isinstance(params, dict) else {},
        fingerprint=row["fingerprint"],
        state=row["state"],
        objective=row["objective"],
        score=row["score"],
        metrics=metrics if isinstance(metrics, dict) else None,
        detail=row["detail"],
        proposed_at=row["proposed_at"],
        updated_at=row["updated_at"],
    )


class TrialLedger:
    """Durable trial bookkeeping for one adaptive search.

    ``path=None`` keeps the ledger in memory — the search still works,
    it just is not resumable.  Every mutation is idempotent, so replays
    after a crash (or two shards racing on a shared ledger file) never
    corrupt state: a completed trial stays completed no matter how many
    times its completion is reported.
    """

    def __init__(self, path: Optional[Union[str, Path]] = None):
        self._path = normalize_db_path(path) if path is not None else None
        if self._path is not None and self._path.parent != Path("."):
            self._path.parent.mkdir(parents=True, exist_ok=True)
        self._conn = sqlite3.connect(
            str(self._path) if self._path is not None else ":memory:",
            timeout=BUSY_TIMEOUT_MS / 1000.0,
            isolation_level=None,
            check_same_thread=False,
        )
        self._conn.row_factory = sqlite3.Row
        self._conn.execute(f"PRAGMA busy_timeout = {BUSY_TIMEOUT_MS}")
        if self._path is not None:
            self._conn.execute("PRAGMA journal_mode = WAL")
            self._conn.execute("PRAGMA synchronous = NORMAL")
        self._conn.executescript(_SCHEMA)
        self._conn.commit()

    @property
    def path(self) -> Optional[Path]:
        """Location of the backing database file (``None`` = in memory)."""
        return self._path

    # ------------------------------------------------------------------
    # Search identity
    # ------------------------------------------------------------------
    def claim_meta(self, key: str, value: str) -> None:
        """Set ``key`` to ``value``, refusing a conflicting existing value.

        This is the resume guard: pointing a ``frontier_bisect`` run at a
        ledger written by ``successive_halving`` (or at a different base
        spec) raises instead of silently interleaving two searches.
        """
        self._conn.execute(
            "INSERT OR IGNORE INTO search_meta (key, value) VALUES (?, ?)", (key, value)
        )
        existing = self._conn.execute(
            "SELECT value FROM search_meta WHERE key = ?", (key,)
        ).fetchone()["value"]
        if existing != value:
            raise ValueError(
                f"ledger {self._path or ':memory:'} was created with {key}="
                f"{existing!r}; refusing to resume it with {key}={value!r}"
            )

    # ------------------------------------------------------------------
    # Lifecycle transitions
    # ------------------------------------------------------------------
    def propose(self, trial_id: str, params: Mapping[str, Any], fingerprint: str) -> bool:
        """Record a trial as ``leased`` to its scenario's fingerprint.

        Returns ``False`` if the trial is already known (a resumed search
        re-running an unsettled row); the existing row is left as it is.
        """
        now = time.time()
        cursor = self._conn.execute(
            "INSERT OR IGNORE INTO trials "
            "(trial_id, params, fingerprint, state, proposed_at, updated_at) "
            "VALUES (?, ?, ?, 'leased', ?, ?)",
            (trial_id, json.dumps(dict(params), sort_keys=True), fingerprint, now, now),
        )
        return bool(cursor.rowcount)

    def complete(
        self,
        trial_id: str,
        objective: Optional[float],
        score: Optional[float],
        metrics: Optional[Mapping[str, Any]] = None,
    ) -> None:
        """Record a trial's objective (idempotent; completed rows win)."""
        self._conn.execute(
            "UPDATE trials SET state = 'completed', objective = ?, score = ?, "
            "metrics = ?, detail = NULL, updated_at = ? "
            "WHERE trial_id = ? AND state != 'completed'",
            (
                objective,
                score,
                json.dumps(dict(metrics)) if metrics is not None else None,
                time.time(),
                trial_id,
            ),
        )

    def fail(self, trial_id: str, detail: str = "") -> None:
        """Mark a trial failed (its scenario raised); completed rows win."""
        self._conn.execute(
            "UPDATE trials SET state = 'failed', detail = ?, updated_at = ? "
            "WHERE trial_id = ? AND state NOT IN ('completed', 'failed')",
            (str(detail), time.time(), trial_id),
        )

    def prune(self, trial_id: str, params: Mapping[str, Any], reason: str = "") -> None:
        """Record a trial the algorithm ruled out without executing it.

        Pruned trials were often never proposed (that is the saving), so
        this is an upsert; a trial that already ran keeps its state.
        """
        now = time.time()
        self._conn.execute(
            "INSERT INTO trials (trial_id, params, state, detail, proposed_at, updated_at) "
            "VALUES (?, ?, 'pruned', ?, ?, ?) "
            "ON CONFLICT (trial_id) DO UPDATE SET state = 'pruned', "
            "detail = excluded.detail, updated_at = excluded.updated_at "
            "WHERE trials.state = 'leased'",
            (trial_id, json.dumps(dict(params), sort_keys=True), str(reason), now, now),
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def get(self, trial_id: str) -> Optional[TrialRecord]:
        """A snapshot of one trial, or ``None`` if never recorded."""
        row = self._conn.execute(
            "SELECT * FROM trials WHERE trial_id = ?", (trial_id,)
        ).fetchone()
        return _row_to_record(row) if row is not None else None

    def records(self, state: Optional[str] = None) -> List[TrialRecord]:
        """All trials in proposal order, optionally filtered by state."""
        query = "SELECT * FROM trials"
        args: tuple = ()
        if state is not None:
            if state not in TRIAL_STATES:
                raise ValueError(
                    f"unknown trial state {state!r} (available: {', '.join(TRIAL_STATES)})"
                )
            query += " WHERE state = ?"
            args = (state,)
        query += " ORDER BY proposed_at, trial_id"
        return [_row_to_record(row) for row in self._conn.execute(query, args).fetchall()]

    def best(self) -> Optional[TrialRecord]:
        """The completed trial with the highest oriented score, if any."""
        row = self._conn.execute(
            "SELECT * FROM trials WHERE state = 'completed' AND score IS NOT NULL "
            "ORDER BY score DESC, proposed_at, trial_id LIMIT 1"
        ).fetchone()
        return _row_to_record(row) if row is not None else None

    def close(self) -> None:
        """Close the underlying connection (further calls will fail)."""
        self._conn.close()

    def __enter__(self) -> "TrialLedger":
        """Context-manager entry: the ledger itself."""
        return self

    def __exit__(self, *exc_info: object) -> None:
        """Context-manager exit: close the connection."""
        self.close()
