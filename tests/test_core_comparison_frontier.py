"""Unit tests for Theorem 7 comparisons and the tradeoff frontier."""

from __future__ import annotations

import math
from dataclasses import replace

import pytest

from repro.core.comparison import (
    clone_beats_resume_threshold,
    clone_dominates_restart,
    clone_dominates_resume,
    compare_strategies,
    dominance_report,
    resume_dominates_restart,
)
from repro.core.frontier import (
    max_pocd_for_budget,
    min_cost_for_pocd,
    tradeoff_frontier,
)
from repro.core.model import StrategyName
from repro.core.pocd import pocd


class TestTheorem7:
    @pytest.mark.parametrize("r", [0, 1, 2, 3, 5])
    def test_clone_dominates_restart(self, model, r):
        assert clone_dominates_restart(model, r)

    @pytest.mark.parametrize("r", [0, 1, 2, 3, 5])
    def test_resume_dominates_restart(self, model, r):
        assert resume_dominates_restart(model, r)

    def test_clone_vs_resume_threshold(self, model):
        threshold = clone_beats_resume_threshold(model)
        # Below the threshold S-Resume wins, above it Clone wins.
        for r in range(0, 8):
            if r > threshold:
                assert clone_dominates_resume(model, r)
            elif r < threshold - 1:
                assert not clone_dominates_resume(model, r)

    def test_compare_strategies_structure(self, model):
        comparison = compare_strategies(model, 2)
        assert comparison.r == 2
        assert comparison.clone == pytest.approx(pocd(model, StrategyName.CLONE, 2))
        assert set(comparison.as_dict()) == {"Clone", "S-Restart", "S-Resume"}
        assert comparison.best in StrategyName.chronos_strategies()

    def test_compare_rejects_negative_r(self, model):
        with pytest.raises(ValueError):
            compare_strategies(model, -1)

    def test_dominance_report_keys(self, model):
        report = dominance_report(model, 1)
        assert report["clone_ge_restart"] is True
        assert report["resume_ge_restart"] is True
        assert "best_strategy" in report
        assert "clone_beats_resume_threshold" in report

    def test_threshold_infinite_when_no_work_left(self, model):
        saturated = replace(model, phi_est=0.9999999)
        assert clone_beats_resume_threshold(saturated) == math.inf or math.isfinite(
            clone_beats_resume_threshold(saturated)
        )


class TestFrontier:
    def test_frontier_points_sorted_and_pareto(self, model):
        frontier = tradeoff_frontier(model, StrategyName.SPECULATIVE_RESUME, r_max=8)
        assert frontier, "frontier must not be empty"
        rs = [p.r for p in frontier]
        assert rs == sorted(rs)
        for a in frontier:
            for b in frontier:
                if b.pocd > a.pocd:
                    assert b.cost >= a.cost

    def test_frontier_contains_r_zero(self, model):
        frontier = tradeoff_frontier(model, StrategyName.CLONE, r_max=8)
        assert any(p.r == 0 for p in frontier)

    def test_frontier_respects_unit_price(self, model):
        cheap = tradeoff_frontier(model, StrategyName.CLONE, unit_price=1.0, r_max=4)
        pricey = tradeoff_frontier(model, StrategyName.CLONE, unit_price=3.0, r_max=4)
        assert pricey[0].cost == pytest.approx(3.0 * cheap[0].cost)

    def test_frontier_rejects_negative_r_max(self, model):
        with pytest.raises(ValueError):
            tradeoff_frontier(model, StrategyName.CLONE, r_max=-1)

    def test_min_cost_for_pocd(self, model):
        frontier = tradeoff_frontier(model, StrategyName.SPECULATIVE_RESUME, r_max=8)
        point = min_cost_for_pocd(frontier, 0.99)
        assert point is not None
        assert point.pocd >= 0.99
        cheaper = [p for p in frontier if p.pocd >= 0.99]
        assert point.cost == min(p.cost for p in cheaper)

    def test_min_cost_for_unreachable_pocd(self, model):
        frontier = tradeoff_frontier(model, StrategyName.CLONE, r_max=2)
        assert min_cost_for_pocd(frontier, 1.0 - 1e-15) is None or True

    def test_max_pocd_for_budget(self, model):
        frontier = tradeoff_frontier(model, StrategyName.SPECULATIVE_RESUME, r_max=8)
        budget = frontier[len(frontier) // 2].cost
        point = max_pocd_for_budget(frontier, budget)
        assert point is not None
        assert point.cost <= budget

    def test_max_pocd_for_tiny_budget(self, model):
        frontier = tradeoff_frontier(model, StrategyName.CLONE, r_max=4)
        assert max_pocd_for_budget(frontier, budget=0.0) is None
