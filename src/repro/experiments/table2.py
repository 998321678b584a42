"""Table II: sweeping the attempt-pruning time ``tau_kill``.

Trace-driven simulation that varies ``tau_kill`` in ``{0.4, 0.6, 0.8} *
tmin`` while keeping ``tau_est`` fixed (0 for Clone, ``0.3 * tmin`` for
the speculative strategies).

Expected shape: a larger ``tau_kill`` lets clone/speculative attempts run
longer before pruning, so cost increases monotonically with ``tau_kill``;
PoCD is not monotone because the optimizer reduces ``r`` to compensate
for the higher per-attempt cost.
"""

from __future__ import annotations

from typing import Any

from repro.core.model import StrategyName
from repro.experiments.common import ExperimentScale, ExperimentTable, timing_table
from repro.experiments.table1 import THETA

#: tau_kill sweep values, as multiples of tmin (paper's Table II).
TAU_KILL_FACTORS = (0.4, 0.6, 0.8)
#: Fixed detection time for the speculative strategies.
TAU_EST_FACTOR = 0.3


def run_table2(
    scale: ExperimentScale = ExperimentScale.SMALL,
    seed: int = 0,
    theta: float = THETA,
    **options: Any,
) -> ExperimentTable:
    """Reproduce Table II (PoCD / cost / utility vs ``tau_kill``).

    All rows run as one sweep; ``options`` are its sweep options (see
    :func:`repro.api.run_specs`).
    """
    timings = [(StrategyName.CLONE, 0.0, factor) for factor in TAU_KILL_FACTORS]
    for name in (StrategyName.SPECULATIVE_RESTART, StrategyName.SPECULATIVE_RESUME):
        timings += [(name, TAU_EST_FACTOR, factor) for factor in TAU_KILL_FACTORS]
    return timing_table(
        "table2",
        "Performance with varying tau_kill (tau_est fixed)",
        timings,
        scale,
        seed,
        theta,
        **options,
    )
