"""Pure helpers shared by ``run.py`` and its repetitions.

Everything here is stdlib-only and side-effect free, so the self-tests in
``selftest.py`` can pin it down without running a sweep.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple


def percentile(values: Iterable[float], q: float) -> Tuple[Optional[float], int]:
    """Nearest-rank ``q``-th percentile of ``values`` and the sample count.

    Returns ``(None, 0)`` for no samples.  Nearest rank (not interpolation)
    keeps the answer an observed sample, so a p90 of 10 samples is the
    9th-smallest value rather than a blend of two.
    """
    if not 0 < q <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    data = sorted(values)
    if not data:
        return None, 0
    rank = max(1, math.ceil(q / 100.0 * len(data)))
    return data[rank - 1], len(data)


def completed_times(rows: Iterable[Mapping]) -> Dict[str, float]:
    """Fingerprint -> ``ts`` of its first ``completed`` row in a broker event log."""
    times: Dict[str, float] = {}
    for row in rows:
        if row.get("kind") == "completed" and row.get("fingerprint") not in times:
            times[row["fingerprint"]] = float(row["ts"])
    return times


def join_lags(completed: Mapping[str, float], observed: Mapping[str, float]) -> List[float]:
    """Per-fingerprint lag from completion to observation, joined on fingerprint.

    ``completed`` maps fingerprints to the broker's completion timestamp
    and ``observed`` to the wall-clock time the sweep driver yielded the
    result.  Fingerprints present on only one side are skipped (another
    sweep's task, or a result served from the store).
    """
    return [observed[fp] - ts for fp, ts in completed.items() if fp in observed]


def lease_expiries(rows: Iterable[Mapping]) -> int:
    """Event-log rows that record an expired lease.

    An expiry is logged as ``retried`` while attempts remain and as
    ``failed`` on the last one; both carry a ``lease expired`` detail.
    ``retried`` rows written when a dead worker's leases are released say
    otherwise and are not counted.
    """
    return sum(
        1
        for row in rows
        if row.get("kind") in ("retried", "failed")
        and str(row.get("detail") or "").startswith("lease expired")
    )


def summary_digest(rows: Iterable[Mapping]) -> str:
    """SHA-256 of the summary rows minus ``wall_time_s``, order-insensitive.

    Rows are sorted by fingerprint, so executors that complete scenarios
    in different orders still agree whenever they computed the same
    results.
    """
    canonical = sorted(
        ({key: value for key, value in row.items() if key != "wall_time_s"} for row in rows),
        key=lambda row: str(row["fingerprint"]),
    )
    text = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def failed_scenarios(
    attempted: Iterable[str],
    completed: Iterable[str],
    failed: Iterable[str] = (),
    retried: Iterable[str] = (),
) -> Set[str]:
    """Attempted fingerprints that failed, were retried, or never completed.

    Their count over the attempted count is the ``failed_ratio``; the
    benchmark reports its complement, ``completed_ratio``.
    """
    attempted = set(attempted)
    bad = set(failed) | set(retried) | (attempted - set(completed))
    return bad & attempted
