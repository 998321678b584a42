"""Tests of the adaptive search subsystem: ledger, algorithms, driver, CLI.

Covers the acceptance scenario of the subsystem: ask/tell algorithms
propose unique, content-addressed trials; the sqlite ledger makes a
search resumable (a re-run replays settled trials and executes zero
repeated scenarios); the driver speaks the sweep event vocabulary plus
``TrialProposed``/``TrialPruned``/``SearchFinished``; and the whole
thing runs through the public API and the ``search`` CLI command on the
same executors as grids.
"""

from __future__ import annotations

import json

import pytest

from repro.adaptive import (
    ALGORITHMS,
    AlgorithmAdapter,
    FrontierBisect,
    SuccessiveHalving,
    TrialLedger,
    available_algorithms,
    available_objectives,
    make_algorithm,
    make_objective,
    make_proposal,
    register_algorithm,
    run_search,
    stream_search,
    summary_metrics,
)
from repro.api import (
    ScenarioSpec,
    SearchFinished,
    SpecValidationError,
    Sweep,
    TrialProposed,
    UnknownPluginError,
    WorkloadSpec,
    job_spec_to_dict,
    run,
)
from repro.simulator.entities import JobSpec


def _tiny_spec(seed: int = 0) -> ScenarioSpec:
    jobs = [
        JobSpec(job_id=f"j{i}", num_tasks=3, deadline=90.0, tmin=15.0, beta=1.5, submit_time=2.0 * i)
        for i in range(3)
    ]
    return ScenarioSpec(
        workload=WorkloadSpec("explicit", {"jobs": [job_spec_to_dict(j) for j in jobs]}),
        strategy="s-resume",
        strategy_params={"tau_est": 30.0, "tau_kill": 60.0, "fixed_r": 1},
        cluster={"num_nodes": 0},
        seed=seed,
    )


def _frontier_spec() -> ScenarioSpec:
    """A tight-deadline spec with a real PoCD frontier over ``fixed_r``."""
    jobs = [
        JobSpec(job_id=f"j{i}", num_tasks=4, deadline=30.0, tmin=15.0, beta=1.5, submit_time=2.0 * i)
        for i in range(4)
    ]
    return ScenarioSpec(
        workload=WorkloadSpec("explicit", {"jobs": [job_spec_to_dict(j) for j in jobs]}),
        strategy="s-resume",
        strategy_params={"tau_est": 10.0, "tau_kill": 20.0, "fixed_r": 1},
        cluster={"num_nodes": 0},
    )


#: Four configs and no seed axis: ``successive_halving`` runs each once.
AXES = {"strategy_params.fixed_r": [0, 1, 2, 3]}


class TestProposal:
    def test_ids_are_content_addressed_and_order_insensitive(self):
        a = make_proposal({"seed": 1, "strategy_params.fixed_r": 2})
        b = make_proposal({"strategy_params.fixed_r": 2, "seed": 1})
        assert a.trial_id == b.trial_id
        assert len(a.trial_id) == 16
        assert a.params == {"seed": 1, "strategy_params.fixed_r": 2}

    def test_distinct_params_distinct_ids(self):
        assert make_proposal({"seed": 1}).trial_id != make_proposal({"seed": 2}).trial_id


class TestTrialLedger:
    def test_lifecycle_round_trip(self, tmp_path):
        proposal = make_proposal({"seed": 0})
        with TrialLedger(tmp_path / "trials.sqlite") as book:
            assert book.propose(proposal.trial_id, proposal.params, "fp0") is True
            assert book.propose(proposal.trial_id, proposal.params, "fp1") is False
            record = book.get(proposal.trial_id)
            assert record.state == "leased" and record.fingerprint == "fp0"
            book.complete(proposal.trial_id, 1.25, 1.25, {"pocd": 0.99})
            record = book.get(proposal.trial_id)
            assert record.state == "completed"
            assert record.objective == 1.25 and record.metrics == {"pocd": 0.99}
            assert [r.fingerprint for r in book.records("completed")] == ["fp0"]

    def test_complete_is_idempotent_first_report_wins(self):
        proposal = make_proposal({"seed": 0})
        with TrialLedger() as book:
            book.propose(proposal.trial_id, proposal.params, "fp0")
            book.complete(proposal.trial_id, 1.0, 1.0)
            book.complete(proposal.trial_id, 9.0, 9.0)  # replay: ignored
            assert book.get(proposal.trial_id).objective == 1.0

    def test_fail_cannot_clobber_completed(self):
        proposal = make_proposal({"seed": 0})
        with TrialLedger() as book:
            book.propose(proposal.trial_id, proposal.params, "fp0")
            book.complete(proposal.trial_id, 1.0, 1.0)
            book.fail(proposal.trial_id, "late failure report")
            assert book.get(proposal.trial_id).state == "completed"

    def test_propose_cannot_drag_back_a_settled_trial(self):
        proposal = make_proposal({"seed": 0})
        with TrialLedger() as book:
            book.propose(proposal.trial_id, proposal.params, "fp0")
            book.complete(proposal.trial_id, 1.0, 1.0)
            assert book.propose(proposal.trial_id, proposal.params, "fp-replay") is False
            record = book.get(proposal.trial_id)
            assert record.state == "completed" and record.fingerprint == "fp0"

    def test_prune_upserts_but_never_overwrites_executions(self):
        ran = make_proposal({"seed": 0})
        unsettled = make_proposal({"seed": 1})
        never_ran = make_proposal({"seed": 2})
        with TrialLedger() as book:
            book.propose(ran.trial_id, ran.params, "fp0")
            book.complete(ran.trial_id, 1.0, 1.0)
            book.propose(unsettled.trial_id, unsettled.params, "fp1")
            book.prune(ran.trial_id, ran.params, "too late")
            book.prune(unsettled.trial_id, unsettled.params, "cut")
            book.prune(never_ran.trial_id, never_ran.params, "eliminated")
            assert book.get(ran.trial_id).state == "completed"
            assert book.get(unsettled.trial_id).state == "pruned"
            pruned = book.get(never_ran.trial_id)
            assert pruned.state == "pruned" and pruned.detail == "eliminated"

    def test_best_is_max_score(self):
        with TrialLedger() as book:
            for seed, score in ((0, -2.0), (1, -1.0), (2, -3.0)):
                proposal = make_proposal({"seed": seed})
                book.propose(proposal.trial_id, proposal.params, f"fp{seed}")
                book.complete(proposal.trial_id, score, score)
            assert len(book.records("completed")) == 3
            assert book.best().params == {"seed": 1}

    def test_records_filter_validates_state(self):
        with TrialLedger() as book:
            with pytest.raises(ValueError, match="unknown trial state"):
                book.records("running")
            with pytest.raises(ValueError, match="unknown trial state"):
                book.records("pending")  # proposals are leased from the start

    def test_meta_guard_refuses_a_conflicting_resume(self, tmp_path):
        path = tmp_path / "trials.sqlite"
        with TrialLedger(path) as book:
            book.claim_meta("algorithm", "successive_halving")
        with TrialLedger(path) as book:
            book.claim_meta("algorithm", "successive_halving")  # same value: fine
            with pytest.raises(ValueError, match="refusing to resume"):
                book.claim_meta("algorithm", "frontier_bisect")

    def test_state_survives_reopen(self, tmp_path):
        path = tmp_path / "trials.sqlite"
        proposal = make_proposal({"seed": 0})
        with TrialLedger(path) as book:
            book.propose(proposal.trial_id, proposal.params, "fp0")
            book.complete(proposal.trial_id, 0.5, 0.5)
        with TrialLedger(path) as book:
            record = book.get(proposal.trial_id)
            assert record.state == "completed" and record.fingerprint == "fp0"

    def test_a_ledger_with_the_old_pending_default_still_resumes(self, tmp_path):
        """A ledger created before ``propose`` leased in one statement.

        Its ``trials.state`` column defaults to ``'pending'`` and its
        unsettled rows are ``leased``; a resume replays the completed row
        and re-executes only the leased one.
        """
        import sqlite3

        path = tmp_path / "trials.sqlite"
        spec = _tiny_spec()
        axes = {"strategy_params.fixed_r": [0, 1]}
        reference = run_search(spec, axes, algorithm="successive_halving")
        done, unsettled = (make_proposal({"strategy_params.fixed_r": r}) for r in (0, 1))
        row = next(r for r in reference.trials if r.trial_id == done.trial_id)
        conn = sqlite3.connect(path)
        conn.executescript(
            "CREATE TABLE trials (trial_id TEXT PRIMARY KEY, params TEXT NOT NULL, "
            "fingerprint TEXT, state TEXT NOT NULL DEFAULT 'pending', objective REAL, "
            "score REAL, metrics TEXT, detail TEXT, proposed_at REAL NOT NULL, "
            "updated_at REAL NOT NULL);"
            "CREATE TABLE search_meta (key TEXT PRIMARY KEY, value TEXT NOT NULL);"
        )
        conn.executemany(
            "INSERT INTO search_meta VALUES (?, ?)",
            [("algorithm", "successive_halving"), ("objective", "utility"),
             ("base_fingerprint", spec.fingerprint())],
        )
        conn.execute(
            "INSERT INTO trials VALUES (?, ?, ?, 'completed', ?, ?, ?, NULL, 1.0, 1.0)",
            (done.trial_id, json.dumps(done.params), row.fingerprint, row.objective,
             row.score, json.dumps(row.metrics)),
        )
        conn.execute(
            "INSERT INTO trials VALUES (?, ?, ?, 'leased', NULL, NULL, NULL, NULL, 2.0, 2.0)",
            (unsettled.trial_id, json.dumps(unsettled.params),
             spec.with_overrides(unsettled.params).fingerprint()),
        )
        conn.commit()
        conn.close()

        resumed = run_search(spec, axes, algorithm="successive_halving", ledger=path)
        assert resumed.executed == 1
        assert {r.trial_id for r in resumed.completed} == {done.trial_id, unsettled.trial_id}
        assert resumed.best.trial_id == reference.best.trial_id


class TestObjectives:
    def test_builtins_are_registered(self):
        names = available_objectives()
        for name in ("utility", "pocd", "cost", "response_time", "machine_time"):
            assert name in names

    def test_orientation_negates_min_objectives(self):
        cost = make_objective("cost")
        assert cost.direction == "min"
        assert cost.orient(10.0) == -10.0
        utility = make_objective("utility")
        assert utility.orient(10.0) == 10.0

    def test_unknown_objective_lists_available(self):
        with pytest.raises(UnknownPluginError, match="available"):
            make_objective("profit")

    def test_summary_metrics_reads_the_report(self):
        result = run(_tiny_spec())
        metrics = summary_metrics(result)
        assert metrics["pocd"] == result.report.pocd
        assert metrics["mean_cost"] == result.report.mean_cost
        assert metrics["num_jobs"] == 3
        # every objective evaluates off the same result
        for name in available_objectives():
            assert isinstance(make_objective(name).value(result), float)


class TestAlgorithmRegistry:
    def test_builtins_are_exactly_the_two_measured_algorithms(self):
        assert available_algorithms() == ("frontier_bisect", "successive_halving")

    def test_unknown_algorithm_lists_available(self):
        with pytest.raises(UnknownPluginError, match="available"):
            make_algorithm("bayes", AXES)

    def test_bad_factory_params_become_value_error(self):
        with pytest.raises(ValueError, match="invalid parameters"):
            make_algorithm("frontier_bisect", AXES, eta=3)
        with pytest.raises(ValueError, match="invalid parameters"):
            make_algorithm("successive_halving", AXES, seed=0)  # no seed parameter

    def test_custom_algorithm_registers_and_resolves(self):
        class Fixed(FrontierBisect):
            pass

        register_algorithm("test-fixed", lambda axes, **kw: Fixed(axes))
        try:
            algorithm = make_algorithm("Test-Fixed", AXES)  # case-insensitive
            assert algorithm.name == "test-fixed"
            assert isinstance(algorithm, Fixed)
        finally:
            ALGORITHMS.unregister("test-fixed")


def _drive(algorithm: AlgorithmAdapter, score_fn, batch: int = 64):
    """Run an algorithm to completion against a synthetic score function."""
    executed = []
    while not algorithm.finished():
        batch_proposals = algorithm.ask(batch)
        if not batch_proposals:
            break
        for proposal in batch_proposals:
            executed.append(proposal)
            score, metrics = score_fn(proposal.params)
            algorithm.tell(proposal.trial_id, score, metrics)
    return executed


class TestSuccessiveHalving:
    AXES = {"strategy_params.fixed_r": list(range(8)), "seed": list(range(8))}

    def test_rung_schedule_executes_a_fraction_of_the_grid(self):
        algorithm = SuccessiveHalving(self.AXES)

        def score(params):
            # higher fixed_r is better, deterministically
            return float(params["strategy_params.fixed_r"]), {"pocd": 1.0}

        executed = _drive(algorithm, score)
        # rungs over 8 seeds with eta=2: 8x1 + 4x1 + 2x2 + 1x4 = 20 of 64
        assert len(executed) == 20
        assert len({p.trial_id for p in executed}) == 20
        pruned = algorithm.drain_pruned()
        assert len(pruned) == 44  # everything the grid would have paid for
        assert len({p.trial_id for p, _ in pruned}) == 44
        # the winner was evaluated on every seed
        winner_trials = [
            p for p in executed if p.params["strategy_params.fixed_r"] == 7
        ]
        assert {p.params["seed"] for p in winner_trials} == set(range(8))

    def test_min_pocd_infeasibility_trumps_score(self):
        algorithm = SuccessiveHalving(self.AXES, min_pocd=0.9)

        def score(params):
            r = params["strategy_params.fixed_r"]
            # the best-scoring config misses the PoCD bar
            return float(r), {"pocd": 0.5 if r == 7 else 1.0}

        executed = _drive(algorithm, score)
        survivors = {p.params["strategy_params.fixed_r"] for p in executed[-4:]}
        assert survivors == {6}  # 7 was cut despite the top score
        reasons = [reason for _, reason in algorithm.drain_pruned()]
        assert any("pocd below 0.9" in reason for reason in reasons)

    def test_failed_trials_count_as_infeasible(self):
        algorithm = SuccessiveHalving(
            {"strategy_params.fixed_r": [0, 1], "seed": [0, 1]}
        )

        def score(params):
            if params["strategy_params.fixed_r"] == 1:
                return None, None  # simulated scenario failure
            return 1.0, {"pocd": 1.0}

        executed = _drive(algorithm, score)
        assert {p.params["strategy_params.fixed_r"] for p in executed[-1:]} == {0}

    def test_last_survivor_is_the_answer_not_the_luckiest_trial(self):
        algorithm = SuccessiveHalving(
            {"strategy_params.fixed_r": [0, 1, 2, 3], "seed": [0, 1, 2, 3]}
        )

        def score(params):
            r, seed = params["strategy_params.fixed_r"], params["seed"]
            if r == 0:  # config A: the best seed-0 score, a poor mean
                return (10.0 if seed == 0 else 0.0), {"pocd": 1.0}
            if r == 1:  # config B: the best mean
                return 8.0, {"pocd": 1.0}
            return 1.0, {"pocd": 1.0}

        executed = _drive(algorithm, score)
        assert algorithm.finished()
        assert {p.params["strategy_params.fixed_r"] for p in executed[-2:]} == {1}
        b_trials = {
            make_proposal({"strategy_params.fixed_r": 1, "seed": seed}).trial_id
            for seed in range(4)
        }
        assert algorithm.best_trial_id() in b_trials

    def test_no_answer_until_the_last_rung_or_when_all_infeasible(self):
        algorithm = SuccessiveHalving(
            {"strategy_params.fixed_r": [0, 1], "seed": [0, 1, 2, 3]}, min_pocd=0.9
        )
        (first,) = algorithm.ask(1)
        algorithm.tell(first.trial_id, 1.0, {"pocd": 0.5})
        assert algorithm.best_trial_id() is None  # rung 0 still open
        executed = [first] + _drive(algorithm, lambda params: (1.0, {"pocd": 0.5}))
        assert algorithm.finished()
        assert algorithm.best_trial_id() is None  # the driver falls back
        pruned = {p.trial_id for p, _ in algorithm.drain_pruned()}
        assert len(executed) == 2 and len(pruned) == 6
        assert not pruned & {p.trial_id for p in executed}

    def test_without_a_resource_axis_every_config_runs_once_at_the_base_seed(self):
        axes = {"strategy_params.fixed_r": [1, 2, 3], "strategy_params.tau_est": [10.0, 30.0]}
        algorithm = SuccessiveHalving(axes)
        executed = _drive(algorithm, lambda params: (0.0, {"pocd": 1.0}), batch=4)
        assert [p.params for p in executed] == Sweep.grid_overrides(axes)  # no seed key
        assert algorithm.drain_pruned() == []
        assert algorithm.finished()

    def test_not_finished_until_told(self):
        algorithm = SuccessiveHalving({"strategy_params.fixed_r": [0]})
        (proposal,) = algorithm.ask(1)
        assert not algorithm.finished()  # proposed but unresolved
        algorithm.tell(proposal.trial_id, 1.0)
        assert algorithm.finished()
        assert algorithm.best_trial_id() == proposal.trial_id

    def test_requires_a_config_axis(self):
        with pytest.raises(ValueError, match="config axis"):
            SuccessiveHalving({"seed": [0, 1, 2, 3]})

    def test_rejects_eta_below_two(self):
        with pytest.raises(ValueError, match="eta"):
            SuccessiveHalving(self.AXES, eta=1)

    def test_tell_is_idempotent_across_rungs(self):
        algorithm = SuccessiveHalving({"strategy_params.fixed_r": [0, 1], "seed": [0, 1]})
        first_rung = algorithm.ask(2)
        for proposal in first_rung:
            algorithm.tell(proposal.trial_id, 1.0, {"pocd": 1.0})
            algorithm.tell(proposal.trial_id, -99.0, {"pocd": 0.0})  # replay: no-op
        assert not algorithm.finished()
        _drive(algorithm, lambda params: (1.0, {"pocd": 1.0}))
        assert algorithm.finished()


class TestFrontierBisect:
    def test_bisection_finds_the_frontier_in_log_evaluations(self):
        values = list(range(8))
        algorithm = FrontierBisect(
            {"strategy_params.fixed_r": values}, min_pocd=0.9
        )

        def score(params):
            r = params["strategy_params.fixed_r"]
            return -float(r), {"pocd": 1.0 if r >= 3 else 0.5}

        executed = _drive(algorithm, score, batch=1)
        assert len(executed) == 3  # log2(8) evaluations
        assert algorithm.finished()
        best = algorithm.best_trial_id()
        assert best == make_proposal({"strategy_params.fixed_r": 3}).trial_id
        pruned = algorithm.drain_pruned()
        assert len(executed) + len(pruned) == len(values)
        reasons = " ".join(reason for _, reason in pruned)
        assert "dominated" in reasons and "monotonicity" in reasons

    def test_everything_infeasible_means_no_answer(self):
        algorithm = FrontierBisect({"strategy_params.fixed_r": [0, 1, 2, 3]}, min_pocd=0.99)
        _drive(algorithm, lambda params: (0.0, {"pocd": 0.1}), batch=1)
        assert algorithm.finished()
        assert algorithm.best_trial_id() is None

    def test_single_outstanding_trial_at_a_time(self):
        algorithm = FrontierBisect({"strategy_params.fixed_r": [0, 1, 2, 3]})
        first = algorithm.ask(4)
        assert len(first) == 1
        assert algorithm.ask(4) == []  # waiting on the outstanding trial

    def test_failed_trial_is_infeasible(self):
        algorithm = FrontierBisect({"strategy_params.fixed_r": [0, 1]}, min_pocd=0.5)

        def score(params):
            if params["strategy_params.fixed_r"] == 0:
                return None, None
            return 1.0, {"pocd": 1.0}

        _drive(algorithm, score, batch=1)
        best = algorithm.best_trial_id()
        assert best == make_proposal({"strategy_params.fixed_r": 1}).trial_id

    def test_requires_exactly_one_multi_valued_axis(self):
        with pytest.raises(ValueError, match="exactly one multi-valued axis"):
            FrontierBisect({"seed": [0, 1], "strategy_params.fixed_r": [1, 2]})
        # an explicit axis resolves the ambiguity — but the others must be constants
        with pytest.raises(ValueError, match="single-valued"):
            FrontierBisect(
                {"seed": [0, 1], "strategy_params.fixed_r": [1, 2]},
                axis="strategy_params.fixed_r",
            )
        with pytest.raises(ValueError, match="not one of the search axes"):
            FrontierBisect({"seed": [0, 1]}, axis="strategy_params.tau_est")

    def test_constant_axes_fold_into_proposals(self):
        algorithm = FrontierBisect(
            {"strategy_params.fixed_r": [0, 1, 2], "seed": [5]}
        )
        (proposal,) = algorithm.ask(1)
        assert proposal.params["seed"] == 5


class TestSearchEvents:
    def test_stream_speaks_the_search_vocabulary(self):
        events = list(stream_search(_tiny_spec(), AXES, algorithm="successive_halving", batch=2))
        kinds = [event.kind for event in events]
        assert "sweep-started" not in kinds  # inner batch frames are absorbed
        assert kinds[-1] == "search-finished"
        proposed = [e for e in events if isinstance(e, TrialProposed)]
        assert len(proposed) == 4
        assert all(e.algorithm == "successive_halving" and e.fingerprint for e in proposed)
        completed = [e for e in events if e.kind == "scenario-completed"]
        assert {e.fingerprint for e in completed} == {e.fingerprint for e in proposed}
        finished = events[-1]
        assert finished.trials == 4 and finished.executed == 4
        assert finished.best_trial_id is not None

    def test_stop_condition_sees_search_events(self):
        stopped_on = []

        def stop(event):
            if isinstance(event, TrialProposed):
                stopped_on.append(event)
                return len(stopped_on) >= 2
            return False

        events = list(
            stream_search(_tiny_spec(), AXES, algorithm="successive_halving", batch=1, stop=stop)
        )
        finished = events[-1]
        assert isinstance(finished, SearchFinished)
        assert finished.stopped and not finished.cancelled
        assert finished.trials < 4


class TestRunSearch:
    def test_halving_without_a_seed_axis_matches_the_sweep(self):
        result = run_search(_tiny_spec(), AXES, algorithm="successive_halving", objective="utility")
        sweep = Sweep.grid(_tiny_spec(), AXES).run()
        assert len(result.completed) == 4
        assert result.executed == 4 and result.failures == 0
        by_utility = max(sweep.results, key=lambda r: r.report.net_utility(
            r_min_pocd=r.spec.strategy_params.r_min_pocd, theta=r.spec.strategy_params.theta
        ))
        assert result.best.fingerprint == by_utility.fingerprint
        assert result.best_params == {
            "strategy_params.fixed_r": by_utility.spec.strategy_params.fixed_r
        }

    def test_halving_keeps_the_base_seed_without_a_seed_axis(self):
        base = _tiny_spec(seed=5)
        result = run_search(
            base, {"strategy_params.fixed_r": [0, 1]}, algorithm="successive_halving"
        )
        assert [record.params for record in result.completed] == [
            {"strategy_params.fixed_r": 0}, {"strategy_params.fixed_r": 1},
        ]
        assert [record.fingerprint for record in result.completed] == [
            base.with_overrides({"strategy_params.fixed_r": r}).fingerprint() for r in (0, 1)
        ]

    def test_halving_reports_the_winning_configs_mean_objective(self):
        """The answer's objective is the mean halving ranked it by, not one seed's."""
        base = ScenarioSpec(
            workload=WorkloadSpec("benchmark", {"name": "sort", "num_jobs": 5}),
            strategy="s-resume",
            cluster={"num_nodes": 0},
        )
        axes = {"strategy_params.fixed_r": [0, 2], "seed": [0, 1, 2, 3]}
        events = []
        result = run_search(base, axes, algorithm="successive_halving", on_event=events.append)
        config = {k: v for k, v in result.best.params.items() if k != "seed"}
        values = [
            record.objective
            for record in result.completed
            if {k: v for k, v in record.params.items() if k != "seed"} == config
        ]
        assert len(values) == 4 and len(set(values)) > 1  # seeds disagree
        mean = sum(values) / len(values)
        assert result.best_objective == pytest.approx(mean)
        finished = [event for event in events if isinstance(event, SearchFinished)]
        assert finished[-1].best_objective == pytest.approx(mean)
        assert f"utility={mean:.4g}" in result.to_text().splitlines()[-1]

    def test_halving_best_line_names_the_config_not_a_trial(self):
        """With a seed axis the ``best:`` line shows the config and its mean, no seed."""
        base = ScenarioSpec(
            workload=WorkloadSpec("benchmark", {"name": "sort", "num_jobs": 10}),
            strategy="s-resume",
            cluster={"num_nodes": 0},
        )
        axes = {"strategy": ["clone", "s-resume"], "seed": [0, 1]}
        result = run_search(base, axes, algorithm="successive_halving")
        line = result.to_text().splitlines()[-1]
        winner = result.best.params["strategy"]
        assert result.best_params == {"strategy": winner}
        assert line == f"best: utility={result.best_objective:.4g} (strategy={winner})"
        assert "seed=" not in line and result.best.trial_id not in line

    def test_max_trials_bounds_the_search(self):
        result = run_search(_tiny_spec(), AXES, algorithm="successive_halving", max_trials=2)
        assert len(result.completed) == 2 and result.executed == 2

    def test_shared_cache_turns_reruns_into_cache_hits(self, tmp_path):
        from repro.distributed import SqliteResultStore

        cache = SqliteResultStore(tmp_path / "cache.sqlite")
        first = run_search(_tiny_spec(), AXES, algorithm="successive_halving", cache=cache)
        assert first.executed == 4 and first.cache_hits == 0
        second = run_search(_tiny_spec(), AXES, algorithm="successive_halving", cache=cache)
        assert second.executed == 0 and second.cache_hits == 4
        assert second.best.trial_id == first.best.trial_id

    def test_failed_scenarios_are_failed_trials_not_aborts(self):
        bad = ScenarioSpec(
            workload=WorkloadSpec("benchmark", {"name": "sort", "num_jobs": 0}),
            strategy="s-resume",
            cluster={"num_nodes": 0},
        )
        result = run_search(
            bad, {"strategy_params.fixed_r": [0, 1]}, algorithm="successive_halving"
        )
        assert result.failures == 2
        assert result.best is None
        states = {record.state for record in result.trials}
        assert states == {"failed"}

    def test_on_failure_raise_propagates(self):
        bad = ScenarioSpec(
            workload=WorkloadSpec("benchmark", {"name": "sort", "num_jobs": 0}),
            strategy="s-resume",
            cluster={"num_nodes": 0},
        )
        with pytest.raises(Exception):
            run_search(
                bad, {"strategy_params.fixed_r": [0]}, algorithm="successive_halving",
                on_failure="raise",
            )

    def test_resume_executes_zero_scenarios(self, tmp_path):
        ledger = tmp_path / "trials.sqlite"
        first = run_search(
            _tiny_spec(), AXES, algorithm="successive_halving", objective="utility", ledger=ledger
        )
        assert first.executed == 4
        with TrialLedger(ledger) as book:
            executed_before = {r.fingerprint for r in book.records("completed")}

        re_executed = []

        def watch(event):
            if event.kind == "scenario-completed":
                re_executed.append(event.fingerprint)

        second = run_search(
            _tiny_spec(), AXES, algorithm="successive_halving", objective="utility",
            ledger=ledger, on_event=watch,
        )
        assert second.executed == 0 and re_executed == []
        assert len(second.completed) == 4
        assert second.best.trial_id == first.best.trial_id
        with TrialLedger(ledger) as book:
            assert {r.fingerprint for r in book.records("completed")} == executed_before

    def test_resume_with_another_algorithm_is_refused(self, tmp_path):
        ledger = tmp_path / "trials.sqlite"
        run_search(_tiny_spec(), AXES, algorithm="successive_halving", ledger=ledger)
        with pytest.raises(ValueError, match="refusing to resume"):
            run_search(_tiny_spec(), AXES, algorithm="frontier_bisect", ledger=ledger)

    def test_resume_with_another_base_spec_is_refused(self, tmp_path):
        ledger = tmp_path / "trials.sqlite"
        run_search(_tiny_spec(), AXES, algorithm="successive_halving", ledger=ledger)
        with pytest.raises(ValueError, match="refusing to resume"):
            run_search(_tiny_spec(seed=9), AXES, algorithm="successive_halving", ledger=ledger)

    def test_validation_errors_are_eager(self):
        with pytest.raises(TypeError, match="algorithm"):
            run_search(_tiny_spec(), AXES)  # no default: the algorithms answer different questions
        with pytest.raises(TypeError, match="seed"):
            run_search(_tiny_spec(), AXES, algorithm="successive_halving", seed=0)
        with pytest.raises(SpecValidationError):
            run_search("not a spec", AXES, algorithm="successive_halving")
        with pytest.raises(SpecValidationError):
            run_search(_tiny_spec(), {}, algorithm="successive_halving")
        with pytest.raises(ValueError, match="batch"):
            run_search(_tiny_spec(), AXES, algorithm="successive_halving", batch=0)
        with pytest.raises(ValueError, match="max_trials"):
            run_search(_tiny_spec(), AXES, algorithm="successive_halving", max_trials=0)
        with pytest.raises(ValueError, match="on_failure"):
            run_search(_tiny_spec(), AXES, algorithm="successive_halving", on_failure="retry")

    def test_search_result_renders_text_and_csv(self):
        result = run_search(_tiny_spec(), AXES, algorithm="successive_halving")
        text = result.to_text()
        assert "successive_halving search over utility" in text
        assert "best:" in text
        rows = result.to_csv().strip().splitlines()
        assert rows[0] == "trial_id,state,objective,score,fingerprint,params"
        assert len(rows) == 1 + len(result)

    def test_frontier_bisect_end_to_end(self):
        result = run_search(
            _frontier_spec(),
            {"strategy_params.fixed_r": list(range(8))},
            algorithm="frontier_bisect",
            objective="cost",
            algorithm_params={"min_pocd": 0.9},
        )
        # the paper's question: cheapest replica budget with PoCD >= 0.9
        assert result.best_params == {"strategy_params.fixed_r": 3}
        assert result.executed == 3 and result.pruned == 5


class TestSearchDistributed:
    def test_search_runs_on_the_distributed_executor(self, tmp_path):
        db = tmp_path / "queue.sqlite"
        result = run_search(
            _tiny_spec(), AXES, algorithm="successive_halving", objective="utility",
            executor="distributed", workers=2, db=db,
        )
        assert result.executed == 4 and len(result.completed) == 4
        inline = run_search(_tiny_spec(), AXES, algorithm="successive_halving", objective="utility")
        assert result.best.fingerprint == inline.best.fingerprint

    def test_trial_decisions_mirror_into_the_broker_event_log(self, tmp_path):
        from repro.distributed import Broker

        db = tmp_path / "queue.sqlite"
        run_search(
            _frontier_spec(),
            {"strategy_params.fixed_r": list(range(4))},
            algorithm="frontier_bisect",
            objective="cost",
            algorithm_params={"min_pocd": 0.9},
            executor="distributed", workers=2, db=db,
        )
        with Broker(db) as broker:
            kinds = [event["kind"] for event in broker.events_since(0, limit=10_000)]
        assert "trial-proposed" in kinds
        assert "trial-pruned" in kinds
        assert kinds[-1] == "search-finished"


class TestSearchCli:
    def _write_spec(self, tmp_path, axes=None):
        spec_file = tmp_path / "search.json"
        spec_file.write_text(json.dumps({
            "base": _tiny_spec().to_dict(),
            "axes": axes or AXES,
        }))
        return spec_file

    def test_search_command_prints_the_trial_table(self, tmp_path, capsys):
        from repro.experiments import cli

        spec_file = self._write_spec(tmp_path)
        code = cli.main([
            "search", "--spec", str(spec_file), "--algorithm", "successive_halving",
            "--quiet",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "successive_halving search over utility" in out
        assert "best:" in out

    def test_search_command_resumes_from_the_ledger(self, tmp_path, capsys):
        from repro.experiments import cli

        spec_file = self._write_spec(tmp_path)
        ledger = tmp_path / "trials.sqlite"
        base_args = [
            "search", "--spec", str(spec_file), "--algorithm", "successive_halving",
            "--ledger", str(ledger), "--quiet",
        ]
        assert cli.main(base_args) == 0
        first = capsys.readouterr().out
        assert "(4 executed" in first
        assert cli.main(base_args) == 0
        second = capsys.readouterr().out
        assert "(0 executed" in second

    def test_search_command_accepts_algo_params_and_csv(self, tmp_path, capsys):
        from repro.experiments import cli

        spec_file = tmp_path / "search.json"
        spec_file.write_text(json.dumps({
            "base": _frontier_spec().to_dict(),
            "grid": {"strategy_params.fixed_r": [0, 1, 2, 3, 4, 5, 6, 7]},
        }))
        code = cli.main([
            "search", "--spec", str(spec_file),
            "--algorithm", "frontier_bisect", "--objective", "cost",
            "--algo-param", "min_pocd=0.9", "--csv", "--quiet",
        ])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "trial_id,state,objective,score,fingerprint,params"
        assert len(lines) == 9  # 8 values: 3 completed + 5 pruned

    def test_search_command_rejects_unknown_algorithm(self, tmp_path, capsys):
        from repro.experiments import cli

        spec_file = self._write_spec(tmp_path)
        code = cli.main([
            "search", "--spec", str(spec_file), "--algorithm", "bogus", "--quiet",
        ])
        assert code == 2
        assert "unknown algorithm" in capsys.readouterr().err

    def test_search_command_requires_an_algorithm(self, tmp_path, capsys):
        from repro.experiments import cli

        spec_file = self._write_spec(tmp_path)
        assert cli.main(["search", "--spec", str(spec_file), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert "requires --algorithm" in err
        assert "frontier_bisect, successive_halving" in err

    def test_search_command_rejects_seed(self, tmp_path, capsys):
        """``--seed`` would be ignored by a search, so it is an error."""
        from repro.experiments import cli

        spec_file = self._write_spec(tmp_path)
        code = cli.main([
            "search", "--spec", str(spec_file), "--algorithm", "successive_halving",
            "--seed", "5", "--quiet",
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert "search does not take --seed" in captured.err
        assert "base spec's" in captured.err
        assert captured.out == ""  # nothing ran

    def test_other_commands_keep_seed_zero_by_default(self, monkeypatch):
        from repro.experiments import cli

        seen = []

        def fake_run_experiments(names, scale, seed, **options):
            seen.append(seed)
            return []

        monkeypatch.setattr(cli, "run_experiments", fake_run_experiments)
        assert cli.main(["figure2", "--scale", "smoke", "--quiet"]) == 0
        assert cli.main(["figure2", "--scale", "smoke", "--seed", "3", "--quiet"]) == 0
        assert seen == [0, 3]

    def test_search_command_rejects_bad_inputs(self, tmp_path, capsys):
        from repro.experiments import cli

        assert cli.main(["search", "--quiet"]) == 2  # no --spec
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"base": _tiny_spec().to_dict()}))  # no axes
        assert cli.main([
            "search", "--spec", str(bad), "--algorithm", "successive_halving", "--quiet",
        ]) == 2
        spec_file = self._write_spec(tmp_path)
        code = cli.main([
            "search", "--spec", str(spec_file), "--algorithm", "successive_halving",
            "--algo-param", "min_pocd", "--quiet",
        ])
        assert code == 2
        assert "KEY=VALUE" in capsys.readouterr().err

    def test_parse_algo_params_types_values(self):
        from repro.experiments.cli import parse_algo_params

        params = parse_algo_params([
            "min_pocd=0.95", "eta=3", "resource_axis=seed", "flag=true",
        ])
        assert params == {
            "min_pocd": 0.95, "eta": 3, "resource_axis": "seed", "flag": True,
        }


class TestPublicSurface:
    def test_repro_api_re_exports_the_adaptive_names(self):
        import repro.api as api

        for name in (
            "SearchResult", "run_search", "stream_search",
            "AlgorithmAdapter", "Proposal", "TrialLedger", "TrialRecord",
            "register_algorithm", "available_algorithms", "make_algorithm",
            "Objective", "register_objective", "available_objectives",
        ):
            assert getattr(api, name) is not None
            assert name in api.__all__
            assert name in dir(api)
        assert not hasattr(api, "Search")  # run_search/stream_search are the API

    def test_progress_line_renders_search_counters(self):
        import io

        from repro.experiments.cli import ProgressLine

        stream = io.StringIO()
        line = ProgressLine(stream=stream, min_interval=0.0)
        for event in stream_search(_tiny_spec(), AXES, algorithm="successive_halving", batch=2):
            line(event)
        output = stream.getvalue()
        assert "search" in output and "trials" in output
        assert "done in" in output
