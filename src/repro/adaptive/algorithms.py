"""Ask/tell search algorithms and their registry.

The protocol is deliberately tiny.  An :class:`AlgorithmAdapter` is asked
for up to ``n`` unique :class:`Proposal`\\ s (``ask``), told the oriented
objective score of each resolved trial (``tell`` — idempotent, ``None``
for a failed trial), asked whether it has anything left (``finished``)
and drained of the trials it decided *not* to run (``drain_pruned``).
The driver in :mod:`repro.adaptive.search` owns everything else:
converting proposals to :class:`~repro.api.spec.ScenarioSpec`\\ s,
executing batches, persistence and events.

Proposal identity is content-based: ``Proposal.trial_id`` is the
truncated SHA-256 of the canonical JSON of its override mapping (the
same construction as :meth:`ScenarioSpec.fingerprint`), so two searches
— or a search killed and resumed — agree on ids without coordination.

Two built-ins, registered under the same string-keyed
:class:`~repro.api.registry.Registry` idiom as strategies and
estimators.  They answer different questions, so a search names one:

``successive_halving``
    The configuration with the best *mean* score.  Treats one axis
    (default ``"seed"``) as the *resource*: every config is evaluated on
    a slice of seeds per rung, the worst half (by mean score, with
    ``min_pocd`` infeasibility trumping score) is eliminated at each
    rung boundary, and survivors graduate to more seeds.  The eliminated
    configs' remaining evaluations surface as pruned trials.  Without a
    resource axis every config runs once, at the base spec's seed.
``frontier_bisect``
    The paper's Fig. 4/5 question — the cheapest configuration with
    PoCD ≥ target — answered by bisecting a single monotone axis
    (PoCD non-decreasing, cost increasing along it) in ~log₂ N
    evaluations; every value the bracket rules out is pruned.
"""

from __future__ import annotations

import hashlib
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.api.registry import Registry
from repro.api.spec import canonical_json
from repro.api.sweep import Sweep


@dataclass(frozen=True)
class Proposal:
    """One proposed trial: a stable id plus its override mapping."""

    trial_id: str
    params: Dict[str, Any] = field(default_factory=dict)


def make_proposal(params: Mapping[str, Any]) -> Proposal:
    """Build a proposal whose id is the content hash of its params.

    The id is stable across processes and runs (canonical JSON, like
    spec fingerprints), which is what makes ``tell`` idempotent and
    resumed searches able to replay ledger rows by id.
    """
    params = dict(params)
    digest = hashlib.sha256(canonical_json(params).encode("utf-8"))
    return Proposal(trial_id=digest.hexdigest()[:16], params=params)


class AlgorithmAdapter(ABC):
    """The ask/tell contract every search algorithm implements.

    Invariants the driver relies on:

    * :meth:`ask` never repeats a trial id it already handed out;
    * :meth:`tell` is idempotent — the first report of a trial wins,
      replays (a resumed search telling ledger rows back) are no-ops;
    * :meth:`finished` answering ``True`` means no future :meth:`ask`
      will yield proposals;
    * :meth:`drain_pruned` returns each pruned trial exactly once.
    """

    #: Registry name, set by the factory for reporting.
    name: str = "algorithm"

    @abstractmethod
    def ask(self, n: int) -> List[Proposal]:
        """Up to ``n`` fresh proposals (may be empty while waiting)."""

    @abstractmethod
    def tell(
        self,
        trial_id: str,
        score: Optional[float],
        metrics: Optional[Mapping[str, float]] = None,
    ) -> None:
        """Report a trial's oriented score (``None`` = the trial failed)."""

    @abstractmethod
    def finished(self) -> bool:
        """Whether the algorithm has nothing left to propose or await."""

    def drain_pruned(self) -> List[Tuple[Proposal, str]]:
        """Trials ruled out since the last drain, with a reason each."""
        return []

    def best_trial_id(self) -> Optional[str]:
        """The algorithm's own answer, when it knows better than argmax.

        Constrained algorithms (``frontier_bisect``) optimize *subject
        to* a feasibility bound, so the trial with the best raw score is
        not necessarily their answer.  ``None`` defers to the ledger's
        best completed score.
        """
        return None

    def best_trial_ids(self) -> Tuple[str, ...]:
        """The trials whose mean objective is the answer's objective.

        Algorithms that rank a configuration by its mean over several
        trials (``successive_halving`` over seeds) report that mean, not
        the single :meth:`best_trial_id`'s value.  The default is just
        :meth:`best_trial_id`.
        """
        best = self.best_trial_id()
        return () if best is None else (best,)

    def config_params(self, params: Mapping[str, Any]) -> Dict[str, Any]:
        """The configuration a trial's ``params`` evaluate.

        An algorithm that spends a resource axis on each config
        (``successive_halving`` over seeds) leaves that axis out: its
        answer is the config, ranked by the mean of
        :meth:`best_trial_ids`.  The default is every param.
        """
        return dict(params)


#: Algorithm name -> factory ``(axes, **params) -> AlgorithmAdapter``.
ALGORITHMS: Registry[Callable[..., AlgorithmAdapter]] = Registry("algorithm")


def register_algorithm(name: str, factory: Optional[Callable[..., AlgorithmAdapter]] = None, **kwargs: Any):
    """Register an algorithm factory; decorator form when omitted."""
    return ALGORITHMS.register(name, factory, **kwargs)


def make_algorithm(
    name: str,
    axes: Mapping[str, Sequence[Any]],
    **params: Any,
) -> AlgorithmAdapter:
    """Instantiate a registered algorithm over the given search axes."""
    factory = ALGORITHMS.get(name)
    try:
        algorithm = factory(axes, **params)
    except TypeError as error:
        raise ValueError(f"invalid parameters for algorithm {name!r}: {error}") from error
    algorithm.name = ALGORITHMS._normalize(name)
    return algorithm


def available_algorithms() -> tuple:
    """Names of every registered algorithm."""
    return ALGORITHMS.names()


class SuccessiveHalving(AlgorithmAdapter):
    """Successive halving over seed replicas: prune configs early.

    The *configs* are the cartesian product of every axis except the
    resource axis (default ``"seed"``); the resource axis's values are
    the replicas each config can be evaluated on.  Rung ``k`` evaluates
    the surviving configs on seeds ``[c_{k-1}:c_k)`` where
    ``c_k = min(S, eta^k)``, then keeps the best ``ceil(n/eta)`` by mean
    oriented score.  A config whose intermediate PoCD falls below
    ``min_pocd`` (when set) is eliminated regardless of score — the
    "prune on intermediate PoCD" rule: a configuration that misses
    deadlines on its first seed will not be saved by seven more.

    Without a resource axis the proposals carry no resource override:
    every config runs once, at the base spec's seed.

    Eliminated configs' never-run evaluations (their remaining seeds)
    are reported through :meth:`drain_pruned` — those are exactly the
    scenarios a full grid would have paid for.
    """

    def __init__(
        self,
        axes: Mapping[str, Sequence[Any]],
        *,
        eta: int = 2,
        resource_axis: str = "seed",
        min_pocd: Optional[float] = None,
    ):
        if eta < 2:
            raise ValueError("eta must be an integer >= 2")
        axes = dict(axes)
        # No resource axis: one evaluation per config, with no override.
        self._resource_axis: Optional[str] = resource_axis if resource_axis in axes else None
        self._resources: List[Any] = list(axes.pop(resource_axis, [None]))
        if not axes:
            raise ValueError(
                "successive_halving needs at least one config axis besides "
                f"the resource axis {resource_axis!r}"
            )
        self._eta = int(eta)
        self._min_pocd = min_pocd
        self._configs: List[Dict[str, Any]] = Sweep.grid_overrides(axes)
        # Survivors, best mean first once a rung has been ranked.
        self._survivors: List[int] = list(range(len(self._configs)))
        # Per config: trial_id -> oriented score (None until told).
        self._scores: List[Dict[str, Optional[float]]] = [{} for _ in self._configs]
        self._infeasible: set = set()
        self._rung = 0
        self._rung_trials: Dict[str, int] = {}  # trial_id -> config index
        self._pruned: List[Tuple[Proposal, str]] = []
        self._queue: List[Proposal] = []
        self._done = False
        self._build_rung()

    def _resource_bounds(self, rung: int) -> Tuple[int, int]:
        """The half-open seed slice rung ``rung`` evaluates.

        Rung ``k`` covers ``[c_{k-1}, c_k)`` with ``c_k = min(S, eta^k)``
        (and ``c_{-1} = 0``): each graduation roughly multiplies a
        survivor's cumulative evaluations by ``eta``.
        """
        total = len(self._resources)
        low = 0 if rung == 0 else min(total, self._eta ** (rung - 1))
        high = min(total, self._eta**rung)
        return low, high

    def _config_proposal(self, config_index: int, resource: Any) -> Proposal:
        params = dict(self._configs[config_index])
        if self._resource_axis is not None:
            params[self._resource_axis] = resource
        return make_proposal(params)

    def _build_rung(self) -> None:
        low, high = self._resource_bounds(self._rung)
        if low >= high or not self._survivors:
            self._done = True
            return
        self._rung_trials = {}
        queue: List[Proposal] = []
        for config_index in self._survivors:
            for resource in self._resources[low:high]:
                proposal = self._config_proposal(config_index, resource)
                self._rung_trials[proposal.trial_id] = config_index
                queue.append(proposal)
        self._queue = queue

    def _advance_if_ready(self) -> None:
        while not self._done and not self._queue and self._rung_told():
            self._eliminate()
            self._rung += 1
            self._build_rung()

    def _rung_told(self) -> bool:
        return all(
            trial_id in self._scores[config_index]
            for trial_id, config_index in self._rung_trials.items()
        )

    def _mean_score(self, config_index: int) -> float:
        scores = [
            score
            for score in self._scores[config_index].values()
            if score is not None
        ]
        return sum(scores) / len(scores) if scores else float("-inf")

    def _eliminate(self) -> None:
        """Rank the rung's survivors and cut to the next rung's quota.

        When every survivor is infeasible none is kept, which ends the
        search: nothing is worth more seeds.
        """
        viable = sorted(
            (index for index in self._survivors if index not in self._infeasible),
            key=self._mean_score,
            reverse=True,
        )
        keep = min(len(viable), -(-len(self._survivors) // self._eta))  # ceil division
        infeasible = [index for index in self._survivors if index in self._infeasible]
        _, high = self._resource_bounds(self._rung)
        for config_index in viable[keep:] + infeasible:
            reason = (
                f"pocd below {self._min_pocd} at rung {self._rung}"
                if config_index in self._infeasible
                else f"eliminated at rung {self._rung} "
                f"(rank > {keep} of {len(self._survivors)})"
            )
            for resource in self._resources[high:]:
                proposal = self._config_proposal(config_index, resource)
                self._pruned.append((proposal, reason))
        self._survivors = viable[:keep]

    def ask(self, n: int) -> List[Proposal]:
        """Up to ``n`` proposals from the current rung's queue."""
        if n < 1:
            raise ValueError("ask count must be a positive integer")
        self._advance_if_ready()
        batch, self._queue = self._queue[:n], self._queue[n:]
        return batch

    def tell(
        self,
        trial_id: str,
        score: Optional[float],
        metrics: Optional[Mapping[str, float]] = None,
    ) -> None:
        """Record a rung trial's score and advance the rung when complete."""
        config_index = self._rung_trials.get(trial_id)
        if config_index is None:
            return  # a replay from a previous rung; already counted
        if trial_id in self._scores[config_index]:
            return  # idempotent: first report wins
        self._scores[config_index][trial_id] = score
        if score is None:
            self._infeasible.add(config_index)
        elif self._min_pocd is not None:
            pocd = (metrics or {}).get("pocd")
            if pocd is not None and pocd < self._min_pocd:
                self._infeasible.add(config_index)
        self._advance_if_ready()

    def finished(self) -> bool:
        """Whether the final rung has completed and nothing is queued."""
        self._advance_if_ready()
        return self._done and not self._queue

    def drain_pruned(self) -> List[Tuple[Proposal, str]]:
        """Pop the accumulated (proposal, reason) pruning decisions."""
        pruned, self._pruned = self._pruned, []
        return pruned

    def best_trial_id(self) -> Optional[str]:
        """The best-scoring trial of the config that survived every rung.

        ``None`` while rungs remain, or when every config was eliminated
        as infeasible: the driver then falls back to the ledger's best
        completed score.
        """
        if not self._done or not self._survivors:
            return None
        scores = self._scores[self._survivors[0]]
        return max(scores, key=scores.__getitem__, default=None)

    def best_trial_ids(self) -> Tuple[str, ...]:
        """Every trial of the surviving config: it was ranked by their mean."""
        if not self._done or not self._survivors:
            return ()
        return tuple(self._scores[self._survivors[0]])

    def config_params(self, params: Mapping[str, Any]) -> Dict[str, Any]:
        """``params`` without the resource axis."""
        return {key: value for key, value in params.items() if key != self._resource_axis}


register_algorithm("successive_halving", SuccessiveHalving)


class FrontierBisect(AlgorithmAdapter):
    """Bisect a monotone axis for the cheapest PoCD-feasible value.

    Chronos's Fig. 4/5 question: along an axis where PoCD is
    non-decreasing and cost is increasing (e.g. the fixed extra-attempt
    budget ``strategy_params.fixed_r``), find the smallest value with
    ``pocd >= min_pocd``.  Exactly one axis may have multiple values;
    the others are folded into every proposal as constants.  The bracket
    converges in ~log₂ N evaluations; every value it rules out — too
    small to be feasible, or larger than a known-feasible point — is
    reported as pruned.

    A failed trial (or one whose metrics lack ``pocd``) is treated as
    infeasible, which keeps the bracket sound under
    ``on_failure="continue"``.
    """

    def __init__(
        self,
        axes: Mapping[str, Sequence[Any]],
        *,
        min_pocd: float = 0.99,
        axis: Optional[str] = None,
    ):
        axes = dict(axes)
        multi = [key for key, values in axes.items() if len(list(values)) > 1]
        if axis is None:
            if len(multi) != 1:
                raise ValueError(
                    "frontier_bisect needs exactly one multi-valued axis "
                    f"(got {len(multi)}: {', '.join(multi) or '<none>'}); "
                    "pass axis=<dotted path> to choose"
                )
            axis = multi[0]
        if axis not in axes:
            raise ValueError(f"axis {axis!r} is not one of the search axes")
        self._axis = axis
        self._values = list(axes.pop(axis))
        if not self._values:
            raise ValueError(f"axis {axis!r} must have at least one value")
        self._constants: Dict[str, Any] = {}
        for key, values in axes.items():
            values = list(values)
            if len(values) != 1:
                raise ValueError(
                    f"frontier_bisect axis {key!r} must be single-valued "
                    f"(the search axis is {axis!r})"
                )
            self._constants[key] = values[0]
        self._min_pocd = float(min_pocd)
        self._lo = 0
        self._hi = len(self._values) - 1
        self._best_feasible: Optional[int] = None
        self._feasible: Dict[int, bool] = {}
        self._outstanding: Optional[Tuple[str, int]] = None
        self._pruned: List[Tuple[Proposal, str]] = []

    def _proposal_for(self, value_index: int) -> Proposal:
        params = dict(self._constants)
        params[self._axis] = self._values[value_index]
        return make_proposal(params)

    def ask(self, n: int) -> List[Proposal]:
        """The bracket's midpoint trial (bisection asks one at a time)."""
        if n < 1:
            raise ValueError("ask count must be a positive integer")
        if self._outstanding is not None or self.finished():
            return []
        mid = (self._lo + self._hi) // 2
        proposal = self._proposal_for(mid)
        self._outstanding = (proposal.trial_id, mid)
        return [proposal]

    def tell(
        self,
        trial_id: str,
        score: Optional[float],
        metrics: Optional[Mapping[str, float]] = None,
    ) -> None:
        """Fold the midpoint's feasibility into the bracket and shrink it."""
        if self._outstanding is None or self._outstanding[0] != trial_id:
            return  # idempotent replay, or a trial from another bracket
        _, index = self._outstanding
        self._outstanding = None
        pocd = (metrics or {}).get("pocd")
        feasible = score is not None and pocd is not None and pocd >= self._min_pocd
        self._feasible[index] = feasible
        if feasible:
            # Everything above `index` is at least as feasible but costs
            # more: the bracket discards it without evaluation.
            for ruled_out in range(index + 1, self._hi + 1):
                if ruled_out not in self._feasible and (
                    self._best_feasible is None or ruled_out != self._best_feasible
                ):
                    self._pruned.append(
                        (
                            self._proposal_for(ruled_out),
                            f"{self._axis}={self._values[ruled_out]} dominated by "
                            f"feasible {self._axis}={self._values[index]}",
                        )
                    )
            self._best_feasible = index
            self._hi = index - 1
        else:
            # PoCD is monotone along the axis: everything below `index`
            # is at most as feasible and can be discarded.
            for ruled_out in range(self._lo, index):
                if ruled_out not in self._feasible:
                    self._pruned.append(
                        (
                            self._proposal_for(ruled_out),
                            f"{self._axis}={self._values[ruled_out]} infeasible by "
                            f"monotonicity ({self._axis}={self._values[index]} has "
                            f"pocd < {self._min_pocd})",
                        )
                    )
            self._lo = index + 1

    def finished(self) -> bool:
        """Whether the bracket is empty and no trial is outstanding."""
        return self._outstanding is None and self._lo > self._hi

    def drain_pruned(self) -> List[Tuple[Proposal, str]]:
        """Pop the accumulated (proposal, reason) pruning decisions."""
        pruned, self._pruned = self._pruned, []
        return pruned

    def best_trial_id(self) -> Optional[str]:
        """Trial id of the cheapest feasible value found, if any."""
        if self._best_feasible is None:
            return None
        return self._proposal_for(self._best_feasible).trial_id


register_algorithm("frontier_bisect", FrontierBisect)
