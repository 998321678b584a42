"""Strategy dominance relations (Theorem 7).

For a fixed number of extra attempts ``r``, Theorem 7 establishes that

1. ``R_Clone > R_S-Restart`` whenever ``r > 0`` and ``tau_est > 0``,
2. ``R_S-Resume > R_S-Restart`` whenever ``D - tau_est >= (1 - phi) * tmin``,
3. Clone beats S-Resume if and only if ``r`` exceeds a threshold that
   depends on the detection time and the straggler's progress.

This module exposes those relations as predicates and as a structured
report.  No harness reads the report yet: the tests check it against
the closed forms, and checking the paper's claims (ROADMAP item 8) is
what it is kept for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict

from repro.core.model import StragglerModel, StrategyName
from repro.core.pocd import pocd


@dataclass(frozen=True)
class StrategyComparison:
    """PoCD values of the three strategies at a common ``r``."""

    r: int
    clone: float
    restart: float
    resume: float

    @property
    def best(self) -> StrategyName:
        """Strategy with the highest PoCD at this ``r``."""
        values = {
            StrategyName.CLONE: self.clone,
            StrategyName.SPECULATIVE_RESTART: self.restart,
            StrategyName.SPECULATIVE_RESUME: self.resume,
        }
        return max(values, key=values.get)

    def as_dict(self) -> Dict[str, float]:
        """Mapping of display names to PoCD values."""
        return {
            StrategyName.CLONE.display_name: self.clone,
            StrategyName.SPECULATIVE_RESTART.display_name: self.restart,
            StrategyName.SPECULATIVE_RESUME.display_name: self.resume,
        }


def compare_strategies(model: StragglerModel, r: int) -> StrategyComparison:
    """Evaluate the PoCD of all three Chronos strategies at the same ``r``."""
    if r < 0:
        raise ValueError("r must be non-negative")
    return StrategyComparison(
        r=r,
        clone=pocd(model, StrategyName.CLONE, r),
        restart=pocd(model, StrategyName.SPECULATIVE_RESTART, r),
        resume=pocd(model, StrategyName.SPECULATIVE_RESUME, r),
    )


def clone_dominates_restart(model: StragglerModel, r: int) -> bool:
    """Theorem 7 part 1: Clone's PoCD is at least S-Restart's.

    The inequality is strict whenever ``r > 0`` and ``tau_est > 0`` (clone
    attempts have a head start of ``tau_est`` over restarted attempts).
    """
    return pocd(model, StrategyName.CLONE, r) >= pocd(model, StrategyName.SPECULATIVE_RESTART, r)


def resume_dominates_restart(model: StragglerModel, r: int) -> bool:
    """Theorem 7 part 2: S-Resume's PoCD is at least S-Restart's.

    Requires ``D - tau_est >= (1 - phi) * tmin``, i.e. a resumed attempt can
    in principle finish before the deadline, which is the regime in which
    speculation is launched at all.
    """
    return pocd(model, StrategyName.SPECULATIVE_RESUME, r) >= pocd(
        model, StrategyName.SPECULATIVE_RESTART, r
    )


def clone_beats_resume_threshold(model: StragglerModel) -> float:
    """Theorem 7 part 3: ``r`` threshold above which Clone beats S-Resume.

    Derived from eq. (59)-(60): with ``Dbar = D - tau_est`` and
    ``phibar = 1 - phi``::

        r > log_{Dbar / (phibar * D)} ( phibar**beta * tmin**beta / Dbar )
            ... expressed in the paper as
        r > beta * (ln(phibar * tmin) - ln(Dbar)) / (ln(Dbar) - ln(phibar * D))

    Returns ``inf`` when Clone can never beat S-Resume for any finite ``r``
    (the denominator is non-negative in the straggler regime
    ``Dbar < phibar * D``; a degenerate model can make it vanish).
    """
    d_bar = model.time_after_detection
    phi_bar = model.remaining_work_fraction
    if phi_bar <= 0:
        return math.inf
    denominator = math.log(d_bar) - math.log(phi_bar * model.deadline)
    numerator = model.beta * (math.log(phi_bar * model.tmin) - math.log(d_bar))
    if denominator == 0:
        return math.inf
    return numerator / denominator


def clone_dominates_resume(model: StragglerModel, r: int) -> bool:
    """Whether Clone's PoCD is at least S-Resume's at this ``r``."""
    return pocd(model, StrategyName.CLONE, r) >= pocd(model, StrategyName.SPECULATIVE_RESUME, r)


def dominance_report(model: StragglerModel, r: int) -> Dict[str, object]:
    """Structured summary of the Theorem 7 relations at a given ``r``."""
    comparison = compare_strategies(model, r)
    return {
        "r": r,
        "pocd": comparison.as_dict(),
        "clone_ge_restart": clone_dominates_restart(model, r),
        "resume_ge_restart": resume_dominates_restart(model, r),
        "clone_ge_resume": clone_dominates_resume(model, r),
        "clone_beats_resume_threshold": clone_beats_resume_threshold(model),
        "best_strategy": comparison.best.display_name,
    }
