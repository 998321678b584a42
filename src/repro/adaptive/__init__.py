"""Adaptive search over scenario space: ask/tell algorithms, not just grids.

Chronos is an optimization paper — "what is the cheapest speculation
configuration that still meets the PoCD target?" — yet a grid sweep
answers it by paying for every corner of the lattice.  This package adds
the missing layer: a small ask/tell protocol
(:class:`~repro.adaptive.algorithms.AlgorithmAdapter`) in which an
algorithm proposes trial configurations, a driver
(:func:`~repro.adaptive.search.run_search`) executes them as ordinary
:class:`~repro.api.spec.ScenarioSpec` batches on any executor backend,
and objective values flow back to steer the next proposals.

The pieces:

* :mod:`~repro.adaptive.algorithms` — the :class:`AlgorithmAdapter` ABC,
  a string-keyed registry (:func:`register_algorithm`, mirroring the
  strategy/estimator registries) and two built-ins, each kept for a
  measured win over the grid (PERFORMANCE.md): ``successive_halving``
  (the best mean score, pruning configs on intermediate PoCD/score
  across seed rungs) and ``frontier_bisect`` (minimize cost subject to
  PoCD ≥ target — the paper's Fig. 4/5 question, answered in ~log₂ N
  scenarios).
* :mod:`~repro.adaptive.ledger` — a persisted :class:`TrialLedger`
  (sqlite, same WAL idiom as the distributed broker) recording every
  trial's LEASED → COMPLETED/FAILED/PRUNED lifecycle, so a killed
  search resumes with zero re-executed trials.
* :mod:`~repro.adaptive.objectives` — named objective functions
  (``utility``, ``cost``, ``pocd``, ...) with a max/min direction, plus
  their own registry (:func:`register_objective`).
* :mod:`~repro.adaptive.search` — the driver: :func:`stream_search`
  yields the same :class:`~repro.api.events.SweepEvent` stream as a grid
  sweep (plus ``TrialProposed``/``TrialPruned``/``SearchFinished``), and
  :func:`run_search` blocks and returns a :class:`SearchResult`.

Everything here is re-exported from :mod:`repro.api`, and the CLI grows
``chronos-experiments search --algorithm ... --objective ...``.
"""

from repro.adaptive.algorithms import (
    ALGORITHMS,
    AlgorithmAdapter,
    FrontierBisect,
    Proposal,
    SuccessiveHalving,
    available_algorithms,
    make_algorithm,
    make_proposal,
    register_algorithm,
)
from repro.adaptive.ledger import TRIAL_STATES, TrialLedger, TrialRecord
from repro.adaptive.objectives import (
    OBJECTIVES,
    Objective,
    available_objectives,
    make_objective,
    register_objective,
    summary_metrics,
)
from repro.adaptive.search import SearchResult, run_search, stream_search

__all__ = [
    "ALGORITHMS",
    "AlgorithmAdapter",
    "FrontierBisect",
    "OBJECTIVES",
    "Objective",
    "Proposal",
    "SearchResult",
    "SuccessiveHalving",
    "TRIAL_STATES",
    "TrialLedger",
    "TrialRecord",
    "available_algorithms",
    "available_objectives",
    "make_algorithm",
    "make_objective",
    "make_proposal",
    "register_algorithm",
    "register_objective",
    "run_search",
    "stream_search",
    "summary_metrics",
]
