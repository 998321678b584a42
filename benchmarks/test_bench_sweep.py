"""Benchmark sweep throughput across the executor backends and the queue.

Runs the same small scenario grid through the inline, process-pool and
distributed executors and records scenarios/sec in the benchmark
``extra_info``, so ``--benchmark-verbose`` (or saved benchmark JSON)
shows how much the parallel backends buy — and what the queue's
durability costs — on this machine.  A second benchmark isolates the
queue itself: claim/complete cycles at different ``claim_many`` batch
sizes, quantifying how much batch claims amortize the per-transaction
overhead.  A third times the spec/result codec round trip that wraps
every scenario on its way through a worker, with no simulation in it.

Two streaming benchmarks track the PR 5 event redesign: the cost of
consuming a sweep as an event stream versus the blocking call built on
top of it (asserted to stay within 5%), and how fast the broker's event
log drains through batched ``events_since`` reads — the path a remote
progress observer pays.
"""

from __future__ import annotations

import time

import pytest

from conftest import count_calls

from repro.api import ScenarioSpec, WorkloadSpec, job_spec_to_dict, run_specs, stream_specs
from repro.simulator.entities import JobSpec

#: Grid size: 2 strategies x 2 seeds x 2 thetas.
GRID = {
    "strategy": ["hadoop-ns", "s-resume"],
    "seed": [0, 1],
    "strategy_params.theta": [1e-5, 1e-4],
}


def _sweep_specs():
    jobs = [
        JobSpec(
            job_id=f"j{i}", num_tasks=4, deadline=90.0, tmin=15.0, beta=1.5, submit_time=2.0 * i
        )
        for i in range(4)
    ]
    base = ScenarioSpec(
        workload=WorkloadSpec("explicit", {"jobs": [job_spec_to_dict(j) for j in jobs]}),
        strategy="s-resume",
        strategy_params={"tau_est": 30.0, "tau_kill": 60.0, "fixed_r": 1},
        cluster={"num_nodes": 0},
    )
    from repro.api import Sweep

    return Sweep.grid(base, GRID).specs


@pytest.mark.parametrize("executor", ["inline", "pool", "distributed"])
def test_sweep_executor_throughput(benchmark, executor, tmp_path):
    specs = _sweep_specs()
    kwargs = {"executor": executor}
    if executor == "pool":
        kwargs["workers"] = 2
    elif executor == "distributed":
        kwargs["workers"] = 2
        kwargs["db"] = tmp_path / "queue.sqlite"

    def sweep_once():
        # A fresh distributed run each round would be answered from the
        # result store; benchmark the first (cold) run only.
        if executor == "distributed":
            db = kwargs["db"]
            for leftover in db.parent.glob(db.name + "*"):
                leftover.unlink()
        return run_specs(specs, **kwargs)

    outcome = benchmark.pedantic(sweep_once, rounds=1, iterations=1)
    assert len(outcome.results) == len(specs)
    assert outcome.executed == len(specs)
    elapsed = max(outcome.wall_time_s, 1e-9)
    benchmark.extra_info["executor"] = executor
    benchmark.extra_info["scenarios"] = len(specs)
    benchmark.extra_info["scenarios_per_sec"] = len(specs) / elapsed


#: Tasks drained per round of the queue-overhead benchmark.
QUEUE_TASKS = 128


@pytest.mark.parametrize("batch", [1, 16])
def test_broker_claim_batch_throughput(benchmark, batch, tmp_path):
    """Queue overhead per task: single claims vs ``claim_many`` batches.

    No scenarios are executed — the payloads are tiny stubs — so the
    measured time is purely the broker's transaction cost, the ~ms/task
    overhead batch claims exist to amortize.
    """
    from repro.distributed import Broker

    db = tmp_path / "queue.sqlite"
    payloads = [{"i": i} for i in range(QUEUE_TASKS)]
    fingerprints = [f"bench{i:04d}" for i in range(QUEUE_TASKS)]

    def drain_once() -> int:
        for leftover in db.parent.glob(db.name + "*"):
            leftover.unlink()
        with Broker(db) as broker:
            broker.enqueue(payloads, fingerprints)
            drained = 0
            while True:
                tasks = broker.claim_many("bench-worker", batch)
                if not tasks:
                    return drained
                for task in tasks:
                    broker.complete(task.fingerprint, "bench-worker", {"ok": True})
                drained += len(tasks)

    drained = benchmark.pedantic(drain_once, rounds=3, iterations=1)
    assert drained == QUEUE_TASKS
    mean_s = benchmark.stats.stats.mean
    benchmark.extra_info["claim_batch"] = batch
    benchmark.extra_info["tasks"] = QUEUE_TASKS
    benchmark.extra_info["tasks_per_sec"] = QUEUE_TASKS / max(mean_s, 1e-9)


#: Codec round trips per round of the codec benchmark.
CODEC_ROUNDTRIPS = 256


def test_codec_roundtrip_throughput(benchmark):
    """Per-scenario codec cost: the wire work around one tiny scenario.

    A fleet worker decodes a spec payload, fingerprints it and encodes
    the result; the sweep driver decodes that result.  This times
    ``spec_from_dict`` -> ``fingerprint`` -> ``result.to_dict`` ->
    ``result_from_dict`` with the simulation done beforehand, so the
    number is the ``api`` layer's per-scenario overhead alone.
    """
    from repro.api import ScenarioResult, result_from_dict, run, spec_from_dict

    reports = {spec.fingerprint(): run(spec).report for spec in _sweep_specs()}
    payloads = [spec.to_dict() for spec in _sweep_specs()]
    payloads = (payloads * (CODEC_ROUNDTRIPS // len(payloads) + 1))[:CODEC_ROUNDTRIPS]

    def roundtrip_all() -> int:
        for payload in payloads:
            spec = spec_from_dict(payload)
            fingerprint = spec.fingerprint()
            result = ScenarioResult(spec, reports[fingerprint], fingerprint, 0.001)
            result_from_dict(result.to_dict())
        return len(payloads)

    done = benchmark.pedantic(roundtrip_all, rounds=5, iterations=1)
    assert done == CODEC_ROUNDTRIPS
    best_s = benchmark.stats.stats.min
    benchmark.extra_info["roundtrips"] = CODEC_ROUNDTRIPS
    benchmark.extra_info["codec_roundtrips_per_sec"] = CODEC_ROUNDTRIPS / max(best_s, 1e-9)


#: Rounds of the streaming-vs-blocking comparison (min-of-N is compared,
#: which is far more stable than a single sample).  A host slowdown that
#: starts mid-comparison skews the minima only when it starts between the
#: first blocking and the first streaming round, so more rounds shrink
#: that window; each round takes ~25 ms.
OVERHEAD_ROUNDS = 9


def test_event_stream_overhead(benchmark):
    """Streaming a sweep must cost within 5% of the blocking call, and no more calls.

    ``run_specs`` *is* a consumer of ``stream_specs``, so draining the
    stream by hand does strictly less work (no result assembly); this
    benchmark pins that relationship down so an accidental inversion —
    eager materialization sneaking back into the stream path — shows up
    in CI rather than in a 10⁴-scenario sweep.
    """
    specs = _sweep_specs()
    expected = len(specs)

    def drain_stream() -> int:
        completed = 0
        for event in stream_specs(specs, executor="inline"):
            if event.kind == "scenario-completed":
                completed += 1
        return completed

    # Interleave the timed rounds so a noise burst on a shared CI runner
    # lands on both sides of the comparison instead of skewing one.
    blocking_times, stream_times = [], []
    for _ in range(OVERHEAD_ROUNDS):
        blocking_times.append(_timed(lambda: run_specs(specs, executor="inline")))
        stream_times.append(_timed(drain_stream))
    blocking_min, stream_min = min(blocking_times), min(stream_times)

    completed = benchmark.pedantic(drain_stream, rounds=1, iterations=1)
    assert completed == expected
    benchmark.extra_info["scenarios"] = expected
    benchmark.extra_info["blocking_min_s"] = blocking_min
    benchmark.extra_info["stream_min_s"] = stream_min
    benchmark.extra_info["overhead_ratio"] = stream_min / max(blocking_min, 1e-9)
    assert stream_min <= blocking_min * 1.05, (
        f"event stream added {stream_min / blocking_min - 1:.1%} over the blocking drain"
    )
    # The same relation in Python calls, which no host noise moves.
    _, stream_calls = count_calls(drain_stream)
    _, blocking_calls = count_calls(run_specs, specs, executor="inline")
    benchmark.extra_info["stream_calls"] = stream_calls
    benchmark.extra_info["blocking_calls"] = blocking_calls
    assert stream_calls <= blocking_calls, (
        f"event stream made {stream_calls} Python calls, the blocking drain {blocking_calls}"
    )


def _timed(fn) -> float:
    started = time.perf_counter()
    fn()
    return time.perf_counter() - started


def _search_base():
    """A tight-deadline variant of the sweep workload for adaptive search.

    ``deadline=30`` with ``tau_est=10/tau_kill=20`` puts the scenarios on
    an actual PoCD frontier over ``strategy_params.fixed_r`` (0.25 → 1.0
    as replicas are added) instead of the comfortable 90-second deadline
    every configuration meets.
    """
    jobs = [
        JobSpec(
            job_id=f"j{i}", num_tasks=4, deadline=30.0, tmin=15.0, beta=1.5, submit_time=2.0 * i
        )
        for i in range(4)
    ]
    return ScenarioSpec(
        workload=WorkloadSpec("explicit", {"jobs": [job_spec_to_dict(j) for j in jobs]}),
        strategy="s-resume",
        strategy_params={"tau_est": 10.0, "tau_kill": 20.0, "fixed_r": 1},
        cluster={"num_nodes": 0},
    )


#: Replica-count configurations the halving search races (r=0 is left
#: out: a single catastrophic late-seed draw makes its full-grid mean
#: diverge from every prefix mean, which is a property of the workload,
#: not of the search).
HALVING_CONFIGS = list(range(1, 9))
#: Seed replicas per configuration (the halving resource axis).
HALVING_SEEDS = list(range(8))


@pytest.mark.parametrize("executor", ["inline", "distributed"])
def test_search_vs_grid_scenarios_to_best(benchmark, executor, tmp_path):
    """Adaptive search must reach the grid-optimal config on ≤ 50% of the grid.

    The PR 6 comparison: ``successive_halving`` races the replica
    configurations on progressively more seeds, and ``frontier_bisect``
    answers the paper's Fig. 4/5 question (cheapest ``fixed_r`` with
    PoCD ≥ target) by bisection — both must land on the exact
    configuration the exhaustive grid picks while *executing* at most
    half of its scenarios, on the inline and distributed backends alike.
    """
    import statistics

    from repro.api import Sweep, run_search

    base = _search_base()
    exec_kwargs = {}
    if executor == "distributed":
        exec_kwargs = {"executor": "distributed", "workers": 2, "db": tmp_path / "queue.sqlite"}

    # The exhaustive baseline: every config x every seed, aggregated by hand.
    grid = Sweep.grid(
        base, {"strategy_params.fixed_r": HALVING_CONFIGS, "seed": HALVING_SEEDS}
    ).run(**exec_kwargs)
    by_config = {}
    for result in grid.results:
        by_config.setdefault(result.spec.strategy_params.fixed_r, []).append(
            result.report.mean_cost
        )
    grid_best = min(by_config, key=lambda r: statistics.mean(by_config[r]))
    # the grid frontier: cheapest config whose PoCD clears the target
    feasible = {
        result.spec.strategy_params.fixed_r: result.report.mean_cost
        for result in grid.results
        if result.spec.seed == 0 and result.report.pocd >= 0.9
    }
    grid_frontier = min(feasible, key=feasible.get)

    def search_once():
        if executor == "distributed":
            db = exec_kwargs["db"]
            for leftover in db.parent.glob(db.name + "*"):
                leftover.unlink()
        halving = run_search(
            base,
            {"strategy_params.fixed_r": HALVING_CONFIGS, "seed": HALVING_SEEDS},
            algorithm="successive_halving",
            objective="cost",
            on_event=lambda event: None,
            **exec_kwargs,
        )
        bisect = run_search(
            base,
            {"strategy_params.fixed_r": sorted(HALVING_CONFIGS)},
            algorithm="frontier_bisect",
            objective="cost",
            algorithm_params={"min_pocd": 0.9},
            on_event=lambda event: None,
            **exec_kwargs,
        )
        return halving, bisect

    halving, bisect = benchmark.pedantic(search_once, rounds=1, iterations=1)

    grid_size = len(HALVING_CONFIGS) * len(HALVING_SEEDS)
    assert halving.best_params["strategy_params.fixed_r"] == grid_best
    assert halving.executed <= grid_size // 2, (
        f"successive_halving executed {halving.executed} of a {grid_size} grid"
    )
    assert bisect.best_params == {"strategy_params.fixed_r": grid_frontier}
    assert bisect.executed <= len(HALVING_CONFIGS) // 2, (
        f"frontier_bisect executed {bisect.executed} of {len(HALVING_CONFIGS)} candidates"
    )
    benchmark.extra_info["executor"] = executor
    benchmark.extra_info["grid_scenarios"] = grid_size
    benchmark.extra_info["halving_executed"] = halving.executed
    benchmark.extra_info["halving_saving"] = 1.0 - halving.executed / grid_size
    benchmark.extra_info["bisect_executed"] = bisect.executed


def test_events_since_drain_throughput(benchmark, tmp_path):
    """Events/sec through batched ``events_since`` reads.

    Every queue transition writes one log row, so a remote observer
    tailing a sweep reads ~3 events per scenario (queued, started,
    completed).  This measures the read path alone — the stub tasks are
    completed before the clock starts — in the same batch size the sweep
    driver uses.
    """
    from repro.distributed import Broker

    db = tmp_path / "queue.sqlite"
    tasks = QUEUE_TASKS
    with Broker(db) as broker:
        broker.enqueue([{"i": i} for i in range(tasks)], [f"ev{i:04d}" for i in range(tasks)])
        while True:
            batch = broker.claim_many("bench-worker", 16)
            if not batch:
                break
            for task in batch:
                broker.complete(task.fingerprint, "bench-worker", {"ok": True})

        def drain_events() -> int:
            seq = 0
            total = 0
            while True:
                rows = broker.events_since(seq, limit=128)
                if not rows:
                    return total
                seq = rows[-1]["seq"]
                total += len(rows)

        total = benchmark.pedantic(drain_events, rounds=3, iterations=1)
        assert total == 3 * tasks  # queued + started + completed per task
        mean_s = benchmark.stats.stats.mean
        benchmark.extra_info["events"] = total
        benchmark.extra_info["events_per_sec"] = total / max(mean_s, 1e-9)
