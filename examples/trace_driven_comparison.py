#!/usr/bin/env python3
"""Trace-driven comparison of all six strategies on a synthetic Google trace.

Mirrors the paper's large-scale simulation (Section VII-B) at laptop
scale, expressed declaratively: one base ``ScenarioSpec`` with a
``google-trace`` workload (priced by a synthetic EC2 spot-price history),
swept across every strategy by ``Sweep`` over local worker processes.

Run with::

    python examples/trace_driven_comparison.py [num_jobs]
"""

from __future__ import annotations

import sys

from repro import ScenarioSpec, StrategyName, Sweep, WorkloadSpec


def main(num_jobs: int = 150) -> None:
    base = ScenarioSpec(
        workload=WorkloadSpec(
            "google-trace",
            {"num_jobs": num_jobs, "spot_price_mean": 1.0},
        ),
        strategy=StrategyName.SPECULATIVE_RESUME,
        strategy_params={
            "tau_est": 0.3,
            "tau_kill": 0.8,
            "theta": 1e-4,
            "unit_price": 1.0,
            "timing_relative_to_tmin": True,
        },
        cluster={"num_nodes": 0},  # unbounded, as in the paper's datacenter
        hadoop={"mantri_threshold": 10.0},  # scaled to the trace's task durations
        seed=11,
    )
    print(f"base scenario {base.fingerprint()}: {num_jobs} trace jobs\n")

    sweep = Sweep.grid(base, {"strategy": [name.value for name in StrategyName]})
    outcome = sweep.run(jobs=2)

    reports = {spec.strategy: result.report for spec, result in zip(
        (r.spec for r in outcome), outcome.results
    )}
    r_min = max(0.0, reports[StrategyName.HADOOP_NO_SPECULATION.value].pocd - 1e-6)

    print(f"{'strategy':12s} {'PoCD':>7s} {'cost':>10s} {'att/task':>9s} {'utility':>9s}")
    for name in StrategyName:
        report = reports[name.value]
        utility = report.net_utility(r_min_pocd=r_min, theta=1e-4)
        print(
            f"{name.display_name:12s} {report.pocd:7.3f} {report.mean_cost:10.1f} "
            f"{report.mean_attempts_per_task:9.2f} {utility:9.3f}"
        )

    best = max(
        StrategyName,
        key=lambda n: reports[n.value].net_utility(r_min_pocd=r_min, theta=1e-4),
    )
    print(f"\nbest net utility: {best.display_name}")
    print(f"({outcome.executed} simulations in {outcome.wall_time_s:.1f}s across 2 workers)")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 150)
