""":class:`FederatedResultStore` — one result store over N shards.

Results follow their tasks: a fingerprint's result lives on the same
shard its task was routed to (:mod:`repro.federation.routing`), so a
federated re-run's cache probe is one point read on one shard, and the
store and the queue stay colocated per shard exactly like the single
sqlite database they federate.

Point operations (``get``/``put``/``__contains__``) route, ``get_many``
groups its fingerprints by owning shard (one batched read each); collection
operations (``fingerprints``/``results``/``summary_rows``/``len``)
scatter-gather.  Every shard, sqlite or HTTP, has the full store
surface, so column selection is pushed down to each shard (to its SQL,
through the service for an HTTP shard), and merged rows are ordered by
fingerprint — a total order every process agrees on regardless of
which shard answered first or when each row was written.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Set, Union

from repro.api.facade import ScenarioResult
from repro.distributed.store import summary_columns
from repro.distributed.targets import open_store
from repro.federation.topology import ShardTopology


class FederatedResultStore:
    """The :class:`~repro.distributed.SqliteResultStore` interface over shards."""

    def __init__(
        self,
        target: Union[str, ShardTopology],
        *,
        token: Optional[str] = None,
        cafile: Optional[str] = None,
        verify: Optional[bool] = None,
    ):
        self._topology = (
            target if isinstance(target, ShardTopology) else ShardTopology.parse(target)
        )
        self._shards = [
            open_store(shard, token=token, cafile=cafile, verify=verify)
            for shard in self._topology.shards
        ]

    @property
    def topology(self) -> ShardTopology:
        """The canonical shard topology this store federates."""
        return self._topology

    @property
    def path(self) -> str:
        """The canonical ``shards:`` target string (for status output)."""
        return self._topology.spec

    def _owner(self, fingerprint: str):
        return self._shards[self._topology.owner_of(fingerprint)]

    # ------------------------------------------------------------------
    # Point surface (routed)
    # ------------------------------------------------------------------
    def get(self, fingerprint: str) -> Optional[ScenarioResult]:
        """The stored result for a fingerprint, from its owning shard."""
        return self.get_many([fingerprint]).get(fingerprint)

    def get_many(self, fingerprints: Iterable[str]) -> Dict[str, ScenarioResult]:
        """Stored results by fingerprint: one batched read per owning shard."""
        groups: Dict[int, List[str]] = {}
        for fingerprint in fingerprints:
            groups.setdefault(self._topology.owner_of(fingerprint), []).append(fingerprint)
        found: Dict[str, ScenarioResult] = {}
        for shard_index, group in groups.items():
            found.update(self._shards[shard_index].get_many(group))
        return found

    def get_payload(self, fingerprint: str) -> Optional[Dict[str, Any]]:
        """The raw result payload from the owning shard (parse-free)."""
        return self._owner(fingerprint).get_payload_many([fingerprint]).get(fingerprint)

    def put(self, result: ScenarioResult, worker_id: Optional[str] = None) -> None:
        """Store a result on its fingerprint's owning shard."""
        self._owner(result.fingerprint).put(result, worker_id=worker_id)

    def __contains__(self, fingerprint: object) -> bool:
        return isinstance(fingerprint, str) and self.get(fingerprint) is not None

    # ------------------------------------------------------------------
    # Collection surface (scatter-gather)
    # ------------------------------------------------------------------
    def fingerprints(self) -> Set[str]:
        """Every stored fingerprint across all shards (disjoint union)."""
        merged: Set[str] = set()
        for shard in self._shards:
            merged |= shard.fingerprints()
        return merged

    def results(self) -> List[ScenarioResult]:
        """Every stored result, merged and ordered by fingerprint.

        Fingerprint order (rather than each shard's insertion order)
        gives the federation a deterministic total order independent of
        shard count and write timing.
        """
        gathered: List[ScenarioResult] = []
        for shard in self._shards:
            gathered.extend(shard.results())
        gathered.sort(key=lambda result: result.fingerprint)
        return gathered

    def summary_rows(
        self, columns: Optional[Iterable[str]] = None
    ) -> List[Dict[str, Any]]:
        """Columnar summaries merged across shards, ordered by fingerprint.

        The column selection is pushed down to each shard.  Unknown
        columns raise :class:`ValueError`, exactly like the single-store
        surface.
        """
        selected = summary_columns(columns)
        # The merge key must ride along even when the caller did not ask
        # for it; it is stripped again below.
        pushdown = selected if "fingerprint" in selected else ["fingerprint", *selected]
        merged: List[Dict[str, Any]] = []
        for shard in self._shards:
            merged.extend(shard.summary_rows(pushdown))
        merged.sort(key=lambda row: row["fingerprint"])
        if "fingerprint" not in selected:
            merged = [
                {column: row[column] for column in selected} for row in merged
            ]
        return merged

    def backfill_summaries(self) -> int:
        """Backfill columnar summaries on every shard."""
        return sum(shard.backfill_summaries() for shard in self._shards)

    def clear(self) -> None:
        """Drop every shard's in-memory layer (rows are left alone)."""
        for shard in self._shards:
            shard.clear()

    def __len__(self) -> int:
        return sum(len(shard) for shard in self._shards)

    def close(self) -> None:
        """Close every shard connection."""
        for shard in self._shards:
            try:
                shard.close()
            except Exception:
                pass

    def __enter__(self) -> "FederatedResultStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
