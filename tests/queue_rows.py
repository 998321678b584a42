"""Task rows read straight from a queue database file.

The broker has no per-task reader.  A test that checks one task's state,
attempts, lease or error reads the ``tasks`` table of the sqlite file
that the broker, or the service in front of it, owns.
"""

from __future__ import annotations

import sqlite3
from contextlib import closing
from types import SimpleNamespace
from typing import Optional

from repro.distributed import normalize_db_path


def task_row(db, fingerprint: str) -> Optional[SimpleNamespace]:
    """The task row of ``fingerprint``, one attribute per column, or ``None``."""
    with closing(sqlite3.connect(str(normalize_db_path(db)))) as conn:
        conn.row_factory = sqlite3.Row
        row = conn.execute("SELECT * FROM tasks WHERE fingerprint = ?", (fingerprint,)).fetchone()
    return None if row is None else SimpleNamespace(**dict(row))
