"""One benchmark repetition, in a fresh interpreter.

Usage: ``python3 perfbench/rep.py ROLE --workload NAME --seed N --workdir DIR [--cpus 0,1] [--trace]``

``run.py`` starts one of these per repetition, because Algorithm 1's
``lru_cache`` and the ``RunnerTemplate`` LRU live per process: a reused
interpreter would find ``core`` work cached after the first sweep, while
a command-line sweep pays for it cold every time.  The last line of
stdout is one JSON object with the repetition's measurements.

Roles:

``warmup``
    Import every module the workloads use (fills the bytecode cache, and
    fails fast when the program is missing).
``reference``
    Run the workload's spec list with the inline executor and print the
    digest of its summary rows.
``measure``
    Set up the workload's fixtures (timed as ``setup_s``), run the sweep
    (timed from the sweep call to the last ``ScenarioCompleted``) and
    measure it.  With ``--trace`` the layer wrappers are installed after
    set-up and before the sweep forks anything.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Dict, List, Optional  # noqa: E402

HERE = Path(__file__).resolve().parent


def _service(db: Path, trace_dir: Optional[Path]) -> "tuple[subprocess.Popen, str]":
    """Start ``serve.py`` on ``db``; returns the process and its URL."""
    command = [sys.executable, str(HERE / "serve.py"), str(db)]
    if trace_dir is not None:
        command += ["--trace-dir", str(trace_dir)]
    process = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
    port = process.stdout.readline().strip()
    if not port.isdigit():
        _stop(process)
        raise RuntimeError("sweep service did not start")
    return process, f"http://127.0.0.1:{port}"


def _stop(process: subprocess.Popen) -> None:
    if process.poll() is None:
        process.send_signal(signal.SIGTERM)
        try:
            process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
    process.stdout.close()


def _event_log(db: Path) -> List[Dict[str, Any]]:
    """Every row of the queue's event log, read back via ``Broker.events_since``."""
    from repro.distributed import Broker

    rows: List[Dict[str, Any]] = []
    with Broker(db) as broker:
        while True:
            batch = broker.events_since(rows[-1]["seq"] if rows else 0, limit=1000)
            if not batch:
                return rows
            rows.extend(batch)


def layer_metrics(
    trace: Dict[str, Any],
    *,
    import_s: float,
    sweep_s: float,
    scenarios: int,
    processes: int,
    wall_sum: float,
    lags: List[float],
    retries: int,
    lease_expiries: int,
) -> Dict[str, float]:
    """The per-layer metrics of one traced repetition (``trace.overhead_ratio`` aside)."""
    from stats import percentile
    from tracing import BROKER_METHODS, RPC_METHODS

    calls, seconds, self_seconds = trace["calls"], trace["seconds"], trace["self_seconds"]
    counts, samples = trace["counts"], trace["samples"]
    optimize_calls = calls.get("core.optimize", 0)
    optimize_s = seconds.get("core.optimize", 0.0)
    simulator_self = self_seconds.get("simulator.run", 0.0)
    events = counts.get("simulator.events", 0)
    capacity = processes * sweep_s
    out: Dict[str, float] = {
        "import_s": import_s,
        "core.optimize_calls": optimize_calls,
        "core.optimize_s": optimize_s,
        "core.optimize_ms_per_call": 1000.0 * optimize_s / optimize_calls if optimize_calls else 0.0,
        "simulator.run_calls": calls.get("simulator.run", 0),
        "simulator.self_s": simulator_self,
        "simulator.events": events,
        "simulator.events_per_sec": events / simulator_self if simulator_self > 0 else 0.0,
        "cluster.run_calls": calls.get("cluster.run", 0),
        "cluster.run_s": seconds.get("cluster.run", 0.0),
        "api.fingerprint_calls": calls.get("api.fingerprint", 0),
        "api.fingerprint_s": seconds.get("api.fingerprint", 0.0),
        "api.codec_s": seconds.get("api.codec", 0.0),
        "api.overhead_ms_per_scenario": 1000.0 * (capacity - wall_sum) / scenarios,
        "pool.utilization": wall_sum / capacity,
    }
    for method in BROKER_METHODS:
        out[f"distributed.broker.{method}_calls"] = calls.get(f"distributed.broker.{method}", 0)
        out[f"distributed.broker.{method}_s"] = seconds.get(f"distributed.broker.{method}", 0.0)
    empty = counts.get("distributed.broker.empty_claims", 0)
    filled = calls.get("distributed.broker.claim_many", 0) - empty
    sizes = samples.get("distributed.result_bytes", [])
    lifetime = seconds.get("distributed.worker.lifetime", 0.0)
    out.update(
        {
            "distributed.broker.tasks_per_claim": (
                counts.get("distributed.broker.tasks_claimed", 0) / filled if filled > 0 else 0.0
            ),
            "distributed.store.get_calls": calls.get("distributed.store.get", 0),
            "distributed.store.get_s": seconds.get("distributed.store.get", 0.0),
            "distributed.result_bytes": sum(sizes) / len(sizes) if sizes else 0.0,
            "distributed.worker.busy_ratio": (
                seconds.get("distributed.worker.busy", 0.0) / lifetime if lifetime > 0 else 0.0
            ),
            "distributed.worker.empty_claims": empty,
            "distributed.executor.supervise_passes": counts.get(
                "distributed.executor.supervise_passes", 0
            ),
            "distributed.executor.result_lag_samples": len(lags),
            "distributed.retries": retries,
            "distributed.lease_expiries": lease_expiries,
        }
    )
    for q in (50, 90, 99):
        value, _ = percentile(lags, q) if lags else (0.0, 0)
        out[f"distributed.executor.result_lag_p{q}_s"] = value
    for method in RPC_METHODS:
        latencies = samples.get(f"service.rpc.{method}", [])
        out[f"service.rpc_calls.{method}"] = len(latencies)
        for q in (50, 90):
            value, _ = percentile(latencies, q) if latencies else (0.0, 0)
            out[f"service.rpc_p{q}_ms.{method}"] = 1000.0 * value
    out["service.handler_s"] = seconds.get("service.handler", 0.0)
    out["service.lock_wait_s"] = self_seconds.get("service.handler", 0.0)
    return out


def measure(args, import_s: float) -> Dict[str, Any]:
    """Set up, sweep and measure one repetition."""
    from stats import completed_times, failed_scenarios, join_lags, lease_expiries, summary_digest
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    workdir = Path(args.workdir)
    trace_dir = workdir / "trace" if args.trace else None
    if trace_dir is not None:
        trace_dir.mkdir(parents=True)
    specs = workload.specs(args.seed)
    # The traced run imports every layer to wrap it; importing them in
    # every repetition keeps the lazy imports out of both sweeps' timings,
    # so traced and untraced repetitions time the same work.
    import repro.cluster  # noqa: F401
    import repro.distributed  # noqa: F401
    import repro.service.client  # noqa: F401

    service = None
    db = None
    if workload.executor == "inline":
        kwargs: Dict[str, Any] = {"executor": "inline"}
    elif workload.executor == "pool":
        kwargs = {"executor": "pool", "workers": workload.processes}
    elif workload.executor == "distributed":
        db = workdir / "queue.sqlite"
        kwargs = {"executor": "distributed", "workers": workload.processes, "db": db}
    else:
        db = workdir / "service.sqlite"
        service, url = _service(db, trace_dir)
        kwargs = {"executor": "distributed", "workers": workload.processes, "broker": url}
    setup_end = time.perf_counter()

    try:
        tracer = None
        if trace_dir is not None:
            from tracing import Tracer, install

            tracer = Tracer(trace_dir)
            install(tracer)
            tracer.reset()
        from repro.api import ScenarioCompleted, ScenarioFailed, ScenarioRetried, stream_specs

        observed: Dict[str, float] = {}
        rows: List[Dict[str, Any]] = []
        failed, retried = set(), set()
        wall_sum = 0.0
        last = None
        started = time.perf_counter()
        for event in stream_specs(specs, on_failure="continue", **kwargs):
            if isinstance(event, ScenarioCompleted):
                wall_clock = time.time()
                last = time.perf_counter()
                observed[event.fingerprint] = wall_clock
                rows.append(event.result.summary_row())
                wall_sum += event.result.wall_time_s
            elif isinstance(event, ScenarioFailed):
                failed.add(event.fingerprint)
            elif isinstance(event, ScenarioRetried):
                retried.add(event.fingerprint)
        driver_trace = tracer.snapshot() if tracer is not None else None
    finally:
        if service is not None:
            _stop(service)
    if last is None:
        raise RuntimeError("the sweep completed no scenario")
    sweep_s = last - started
    fingerprints = [spec.fingerprint() for spec in specs]

    lags: List[float] = []
    expiries = 0
    if db is not None:
        log = _event_log(db)
        lags = join_lags(completed_times(log), observed)
        expiries = lease_expiries(log)

    usage = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    result: Dict[str, Any] = {
        "import_s": import_s,
        "setup_s": setup_end - _STARTED,
        "sweep_s": sweep_s,
        # perf_counter windows, comparable across processes on Linux; run.py
        # looks up the host speed sampled in each.
        "setup_window": [_STARTED, setup_end],
        "sweep_window": [started, last],
        "attempted": len(set(fingerprints)),
        "failed": len(failed_scenarios(fingerprints, observed, failed, retried)),
        "digest": summary_digest(rows),
        "peak_rss_mb": usage / 1024.0,
        "layers": None,
    }
    if driver_trace is not None:
        from tracing import merge, read_flushed

        trace = merge([driver_trace] + read_flushed(trace_dir))
        result["layers"] = layer_metrics(
            trace,
            import_s=import_s,
            sweep_s=sweep_s,
            scenarios=len(observed),
            processes=workload.processes,
            wall_sum=wall_sum,
            lags=lags,
            retries=len(retried),
            lease_expiries=expiries,
        )
    return result


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description="one benchmark repetition")
    parser.add_argument("role", choices=("warmup", "reference", "measure"))
    parser.add_argument("--workload", default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workdir", default=None)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--cpus", default=None, help="comma-separated CPUs to run on")
    args = parser.parse_args(argv)
    if args.cpus:
        # Children (pool, fleet, service) inherit the affinity.
        os.sched_setaffinity(0, {int(cpu) for cpu in args.cpus.split(",")})

    started = time.perf_counter()
    import repro.api  # noqa: F401

    import_s = time.perf_counter() - started
    if args.role == "warmup":
        import repro.cluster  # noqa: F401
        import repro.distributed  # noqa: F401
        import repro.service.server  # noqa: F401

        output: Dict[str, Any] = {"import_s": import_s}
    elif args.role == "reference":
        from repro.api import run_specs
        from stats import summary_digest
        from workloads import WORKLOADS

        outcome = run_specs(WORKLOADS[args.workload].specs(args.seed), executor="inline")
        output = {"digest": summary_digest(result.summary_row() for result in outcome.results)}
    else:
        output = measure(args, import_s)
    print(json.dumps(output))


if __name__ == "__main__":
    main()
