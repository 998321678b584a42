"""The repository benchmark: Chronos sweeps, end to end and layer by layer.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  ``run.py`` starts every repetition in a
fresh interpreter (``rep.py``) and repeats until ``--seconds`` have been
spent measuring (at least :data:`MIN_REPS` times), then prints one JSON
object as the last line of stdout::

    {"correct": true, "attempted": N, "failed": 0,
     "metrics": {"scenarios_per_sec": {"value": ..., "unit": "scen/s"}, ...}}

``--trace 0`` reports the end-to-end metrics: medians over the
repetitions, with the timings scaled to a reference host speed
(``calibration.py`` samples the host's speed while they run).  ``--trace 1``
alternates untraced and traced repetitions and reports the medians of
the per-layer metrics of the traced ones, plus ``trace.overhead_ratio``
(the median traced sweep's wall time over the median untraced one).
``BENCHMARK.json`` lists every metric with its unit; ``README.md`` says
which end-to-end metric each layer metric should move, on which workload.

Correctness: the summary rows of every repetition (minus ``wall_time_s``)
must hash to one digest; on the fan-out workloads that digest must also
equal a fresh inline run of the same spec list, so ``fanout-sqlite`` and
``fanout-http`` agree for the same seed.  A mismatch prints
``"correct": false`` and exits 1.

All scratch files live under ``.bench_work/`` in the checkout and are
removed at exit.  The warm-up writes the package's bytecode cache next
to its sources, as an installed package would ship it.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import mean, median
from typing import Any, Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from calibration import SpeedSampler, slowdown  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Fewest measured repetitions per run, however short ``--seconds`` is.
MIN_REPS = 3
#: Seconds one repetition may take before it is killed.
REP_TIMEOUT_S = 120


class RepetitionError(RuntimeError):
    """A repetition exited non-zero, timed out or printed no result."""


def _run_child(arguments: List[str], env: Dict[str, str]) -> Dict[str, Any]:
    """Run ``rep.py`` in its own session and return its JSON result.

    The repetition's whole process group (pool workers, fleet, service)
    is killed afterwards, so a crashed repetition leaves nothing behind.
    """
    process = subprocess.Popen(
        [sys.executable, str(HERE / "rep.py"), *arguments],
        stdout=subprocess.PIPE,
        env=env,
        cwd=ROOT,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = process.communicate(timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise RepetitionError(f"rep.py {arguments[0]} timed out after {REP_TIMEOUT_S}s")
    finally:
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    lines = stdout.strip().splitlines()
    if process.returncode != 0 or not lines:
        raise RepetitionError(f"rep.py {arguments[0]} exited with code {process.returncode}")
    return json.loads(lines[-1])


def _units(kind: str) -> Dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics in ``BENCHMARK.json``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def _end_to_end(reps: List[Dict[str, Any]], samples: List[Tuple[float, float]]) -> Dict[str, float]:
    """Medians over the repetitions; timings at the reference host speed.

    Each repetition's sweep rate is multiplied, and its set-up time
    divided, by how much slower than the reference the host ran during
    that phase.
    """
    attempted = sum(rep["attempted"] for rep in reps)
    failed = sum(rep["failed"] for rep in reps)
    rates = [
        (rep["attempted"] - rep["failed"]) / rep["sweep_s"] * slowdown(samples, *rep["sweep_window"])
        for rep in reps
    ]
    setups = [rep["setup_s"] / slowdown(samples, *rep["setup_window"]) for rep in reps]
    return {
        "scenarios_per_sec": median(rates),
        "setup_s": median(setups),
        "peak_rss_mb": median([rep["peak_rss_mb"] for rep in reps]),
        "completed_ratio": 1.0 - failed / attempted,
    }


def _per_layer(
    untraced: List[Dict[str, Any]],
    traced: List[Dict[str, Any]],
    samples: List[Tuple[float, float]],
) -> Dict[str, float]:
    """Medians of the traced repetitions' layer metrics, unscaled."""
    values = {
        name: median([rep["layers"][name] for rep in traced]) for name in traced[0]["layers"]
    }
    values["trace.overhead_ratio"] = median(rep["sweep_s"] for rep in traced) / median(
        rep["sweep_s"] for rep in untraced
    )
    values["host.speed_sample_ms"] = 1000.0 * mean(seconds for _, seconds in samples)
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Chronos sweep benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    work = ROOT / ".bench_work" / f"run-{os.getpid()}"
    (work / "tmp").mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(work / "tmp"))
    # An installed package ships its bytecode: let the warm-up compile it
    # once, so no repetition times the compiler instead of the import.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        _run_child(["warmup"], env)
        reference = None
        if workload.inline_reference:
            reference = _run_child(["reference", *common], env)["digest"]

        # Repetitions run on the first CPUs, one per executing process, and
        # the host speed is sampled on exactly those.
        cpus = sorted(os.sched_getaffinity(0))[: workload.processes]
        common += ["--cpus", ",".join(map(str, cpus))]
        untraced: List[Dict[str, Any]] = []
        traced: List[Dict[str, Any]] = []
        started = time.perf_counter()
        with SpeedSampler(cpus) as sampler:
            while (
                len(untraced) + len(traced) < MIN_REPS
                or (args.trace and not traced)
                or time.perf_counter() - started < args.seconds
            ):
                trace = bool(args.trace) and len(traced) < len(untraced)
                index = len(untraced) + len(traced)
                arguments = ["measure", *common, "--workdir", str(work / f"rep-{index}")]
                rep = _run_child(arguments + (["--trace"] if trace else []), env)
                (traced if trace else untraced).append(rep)
    except RepetitionError as error:
        print(f"benchmark failed: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    reps = untraced + traced
    digests = {rep["digest"] for rep in reps}
    correct = len(digests) == 1 and (reference is None or digests == {reference})
    if not correct:
        print(
            f"digest mismatch: repetitions {sorted(digests)}, reference {reference}",
            file=sys.stderr,
        )
    if args.trace:
        values, units = _per_layer(untraced, traced, sampler.samples), _units("per_layer")
    else:
        values, units = _end_to_end(untraced, sampler.samples), _units("end_to_end")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": sum(rep["attempted"] for rep in reps),
                "failed": sum(rep["failed"] for rep in reps),
                "metrics": {
                    name: {"value": values[name], "unit": unit} for name, unit in units.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
