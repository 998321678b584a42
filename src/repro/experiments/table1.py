"""Table I: sweeping the straggler-detection time ``tau_est``.

Trace-driven simulation that varies ``tau_est`` while keeping the
speculation window fixed (``tau_kill - tau_est = 0.5 * tmin``).  The paper
reports PoCD, cost and utility for:

* Clone at ``tau_est = 0`` (the only possible value for a proactive
  strategy), ``tau_kill = 0.5 * tmin``,
* S-Restart and S-Resume at ``tau_est`` in ``{0.1, 0.3, 0.5} * tmin``.

Expected shape: under the speculative strategies, a small ``tau_est``
over-detects stragglers (high PoCD, high cost), a large ``tau_est``
detects them too late; the best net utility lands at an intermediate
value (0.3 * tmin in the paper).
"""

from __future__ import annotations

from typing import Any

from repro.core.model import StrategyName
from repro.experiments.common import ExperimentScale, ExperimentTable, timing_table

#: tau_est sweep values, as multiples of tmin (paper's Table I).
TAU_EST_FACTORS = (0.1, 0.3, 0.5)
#: Fixed speculation window: tau_kill - tau_est = 0.5 * tmin.
WINDOW_FACTOR = 0.5
#: Tradeoff factor used for the utility column.
THETA = 1e-4


def run_table1(
    scale: ExperimentScale = ExperimentScale.SMALL,
    seed: int = 0,
    theta: float = THETA,
    **options: Any,
) -> ExperimentTable:
    """Reproduce Table I (PoCD / cost / utility vs ``tau_est``).

    All rows run as one sweep; ``options`` are its sweep options (see
    :func:`repro.api.run_specs`).
    """
    timings = [(StrategyName.CLONE, 0.0, WINDOW_FACTOR)]
    for name in (StrategyName.SPECULATIVE_RESTART, StrategyName.SPECULATIVE_RESUME):
        timings += [(name, factor, factor + WINDOW_FACTOR) for factor in TAU_EST_FACTORS]
    return timing_table(
        "table1",
        "Performance with varying tau_est (tau_kill - tau_est = 0.5 tmin)",
        timings,
        scale,
        seed,
        theta,
        **options,
    )
