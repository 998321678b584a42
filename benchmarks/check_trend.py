#!/usr/bin/env python
"""Gate benchmark throughput against a committed baseline.

CI uploads a pytest-benchmark JSON per commit but nothing used to read
it — a 2x sweep slowdown would merge silently.  This script compares
the throughput numbers each benchmark records in ``extra_info`` (every
``*_per_sec`` key) against ``benchmarks/BENCH_baseline.json`` and fails
on a regression beyond the tolerance:

    python -m pytest benchmarks/test_bench_sweep.py benchmarks/test_bench_cluster.py \\
        -q --benchmark-json /tmp/bench.json
    python benchmarks/check_trend.py /tmp/bench.json            # gate (exit 1 on regression)
    python benchmarks/check_trend.py /tmp/bench.json --update   # raise the baseline after a win

The default tolerance is generous (30% below baseline fails) because
shared CI runners are noisy; the point is catching the step-function
regressions — an accidentally quadratic queue, eager materialization on
the stream path — not 5% jitter.  Benchmarks present on only one side
are reported but never fail the gate, so adding or retiring a benchmark
doesn't need a lockstep baseline commit.  ``--update`` only ever raises
the baseline: it takes the metrics of this run that rose (or are new)
and keeps every other entry, so a partial or noisy run cannot lower a
bar or drop the benchmarks it did not run.  Stdlib only.

Besides gating, every run appends one line to
``benchmarks/BENCH_trend.jsonl`` — ``{"recorded_at", "commit",
"benchmarks"}``, the commit being ``GITHUB_SHA`` or else ``git rev-parse
HEAD`` — so the repository accumulates a visible performance
trajectory instead of a single mutable baseline; disable with
``--no-trend`` or redirect with ``--trend PATH``.  The line also carries
a ``"counters"`` entry with every ``extra_info`` key ending in
``_per_attempt`` (Python calls and collector passes per simulated
attempt): deterministic work counts, recorded but never gated, that
read the same on a fast or a slow host, so the trajectory shows a cost
change that host noise hides in the throughputs.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Optional

#: Fraction below baseline that fails the gate.
DEFAULT_TOLERANCE = 0.30

#: The committed baseline, next to this script.
DEFAULT_BASELINE = Path(__file__).resolve().parent / "BENCH_baseline.json"

#: Append-only run history, next to this script (one JSON object per line).
DEFAULT_TREND = Path(__file__).resolve().parent / "BENCH_trend.jsonl"


def _extra_info(bench_json: dict, suffix: str) -> Dict[str, Dict[str, float]]:
    """``{benchmark name: {key: value}}`` for the numeric keys ending in ``suffix``."""
    out: Dict[str, Dict[str, float]] = {}
    for bench in bench_json.get("benchmarks", []):
        metrics = {
            key: float(value)
            for key, value in (bench.get("extra_info") or {}).items()
            if key.endswith(suffix) and isinstance(value, (int, float))
        }
        if metrics:
            out[bench["name"]] = metrics
    return out


def throughputs(bench_json: dict) -> Dict[str, Dict[str, float]]:
    """Extract ``{benchmark name: {metric: value}}`` throughput numbers.

    Every ``extra_info`` key ending in ``_per_sec`` is a throughput the
    benchmark chose to publish; anything else (labels, counts) is
    context, not a gated metric.
    """
    return _extra_info(bench_json, "_per_sec")


def counters(bench_json: dict) -> Dict[str, Dict[str, float]]:
    """Extract the ``_per_attempt`` work counters: recorded, never gated."""
    return _extra_info(bench_json, "_per_attempt")


def compare(
    current: Dict[str, Dict[str, float]],
    baseline: Dict[str, Dict[str, float]],
    tolerance: float,
) -> int:
    """Print a comparison; return the number of regressions."""
    regressions = 0
    for name in sorted(current):
        if name not in baseline:
            print(f"  new       {name} (no baseline; not gated)")
            continue
        for metric, value in sorted(current[name].items()):
            base = baseline[name].get(metric)
            if base is None or base <= 0:
                continue
            ratio = value / base
            if ratio < 1.0 - tolerance:
                regressions += 1
                verdict = "REGRESSED"
            else:
                verdict = "ok" if ratio < 1.0 + tolerance else "improved"
            print(
                f"  {verdict:9s} {name} {metric}: "
                f"{value:,.1f} vs baseline {base:,.1f} ({ratio:+.0%} of baseline)"
            )
    for name in sorted(set(baseline) - set(current)):
        print(f"  missing   {name} (in baseline, not in this run; not gated)")
    return regressions


def raised(
    current: Dict[str, Dict[str, float]], baseline: Dict[str, Dict[str, float]]
) -> Dict[str, Dict[str, float]]:
    """``baseline`` with each metric of ``current`` that rose or is new.

    Nothing is lowered and nothing is dropped: a metric that fell, and a
    benchmark this run did not measure, keep their baseline values.
    """
    merged = {name: dict(metrics) for name, metrics in baseline.items()}
    for name, metrics in current.items():
        entry = merged.setdefault(name, {})
        for metric, value in metrics.items():
            if value > entry.get(metric, float("-inf")):
                entry[metric] = value
    return merged


def current_commit() -> Optional[str]:
    """The commit being measured: ``GITHUB_SHA``, else ``git rev-parse HEAD``.

    ``None`` when neither answers (no git, or not a checkout).
    """
    sha = os.environ.get("GITHUB_SHA")
    if sha:
        return sha
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = completed.stdout.strip()
    return sha if completed.returncode == 0 and sha else None


def append_trend(
    path: Path,
    current: Dict[str, Dict[str, float]],
    counted: Optional[Dict[str, Dict[str, float]]] = None,
) -> None:
    """Append one run's throughputs and counters to the JSONL trajectory.

    Best effort: the commit comes from :func:`current_commit`; a missing
    or unwritable trend file never fails the gate — the trajectory is an
    observability aid, not a correctness check.  ``counted`` (the
    :func:`counters` of the run) is written only when there are some.
    """
    record = {
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "commit": current_commit(),
        "benchmarks": current,
    }
    if counted:
        record["counters"] = counted
    line = json.dumps(record, sort_keys=True)
    try:
        with path.open("a", encoding="utf-8") as handle:
            handle.write(line + "\n")
    except OSError as error:
        print(f"warning: cannot append trend line to {path}: {error}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("bench_json", type=Path, help="pytest-benchmark JSON output")
    parser.add_argument(
        "--baseline",
        type=Path,
        default=DEFAULT_BASELINE,
        help=f"baseline JSON to compare against (default: {DEFAULT_BASELINE.name})",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help="allowed fractional drop below baseline (default: 0.30)",
    )
    parser.add_argument(
        "--update",
        action="store_true",
        help="raise the baseline entries this run beat instead of gating against them",
    )
    parser.add_argument(
        "--trend",
        type=Path,
        default=DEFAULT_TREND,
        help=f"JSONL run history to append this run to (default: {DEFAULT_TREND.name})",
    )
    parser.add_argument(
        "--no-trend",
        action="store_true",
        help="skip appending this run to the trend file",
    )
    args = parser.parse_args(argv)

    try:
        data = json.loads(args.bench_json.read_text())
        current = throughputs(data)
    except (OSError, ValueError) as error:
        print(f"cannot read benchmark JSON {args.bench_json}: {error}", file=sys.stderr)
        return 2
    if not current:
        print(f"{args.bench_json}: no *_per_sec metrics found", file=sys.stderr)
        return 2

    if not args.no_trend:
        append_trend(args.trend, current, counters(data))

    try:
        baseline = json.loads(args.baseline.read_text())
    except OSError as error:
        if not args.update:
            print(
                f"cannot read baseline {args.baseline}: {error} "
                f"(generate one with --update)",
                file=sys.stderr,
            )
            return 2
        baseline = {}
    except ValueError as error:
        print(f"invalid JSON in baseline {args.baseline}: {error}", file=sys.stderr)
        return 2

    if args.update:
        merged = raised(current, baseline)
        args.baseline.write_text(json.dumps(merged, indent=2, sort_keys=True) + "\n")
        changed = sum(merged[name] != baseline.get(name) for name in merged)
        print(
            f"baseline updated: {args.baseline} "
            f"({changed} of {len(merged)} benchmarks raised or added)"
        )
        return 0

    print(f"benchmark trend vs {args.baseline.name} (tolerance {args.tolerance:.0%}):")
    regressions = compare(current, baseline, args.tolerance)
    if regressions:
        print(f"{regressions} throughput regression(s) beyond {args.tolerance:.0%}")
        return 1
    print("no throughput regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
