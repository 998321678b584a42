"""Unit tests for the discrete-event engine."""

from __future__ import annotations

import numpy as np
import pytest

from repro.simulator.engine import SimulationEngine


class TestScheduling:
    def test_initial_state(self):
        engine = SimulationEngine(seed=1)
        assert engine.now == 0.0
        assert engine.pending_events == 0
        assert engine.processed_events == 0

    def test_events_run_in_time_order(self):
        engine = SimulationEngine()
        order = []
        engine.schedule_at(5.0, lambda: order.append("b"))
        engine.schedule_at(1.0, lambda: order.append("a"))
        engine.schedule_at(9.0, lambda: order.append("c"))
        engine.run()
        assert order == ["a", "b", "c"]
        assert engine.now == 9.0

    def test_ties_run_in_insertion_order(self):
        engine = SimulationEngine()
        order = []
        for label in "abc":
            engine.schedule_at(3.0, lambda l=label: order.append(l))
        engine.run()
        assert order == ["a", "b", "c"]

    def test_schedule_after_is_relative(self):
        engine = SimulationEngine()
        times = []
        engine.schedule_after(2.0, lambda: times.append(engine.now))
        engine.schedule_after(4.0, lambda: times.append(engine.now))
        engine.run()
        assert times == [2.0, 4.0]

    def test_schedule_in_past_rejected(self):
        engine = SimulationEngine()
        engine.schedule_at(5.0, lambda: engine.schedule_at(1.0, lambda: None))
        with pytest.raises(ValueError):
            engine.run()

    def test_schedule_negative_delay_rejected(self):
        engine = SimulationEngine()
        with pytest.raises(ValueError):
            engine.schedule_after(-1.0, lambda: None)

    def test_schedule_nan_rejected(self):
        engine = SimulationEngine()
        with pytest.raises(ValueError):
            engine.schedule_at(float("nan"), lambda: None)

    @pytest.mark.parametrize(
        "delay, message", [(float("nan"), "NaN"), (-1e-9, "non-negative"), (-float("inf"), "non-negative")]
    )
    def test_schedule_after_rejects_nan_and_negative_delays(self, delay, message):
        engine = SimulationEngine()
        engine.schedule_at(2.0, lambda: None)
        engine.run()
        with pytest.raises(ValueError, match=message):
            engine.schedule_after(delay, lambda: None)
        assert engine.pending_events == 0

    def test_schedule_after_passes_args_and_keeps_sequence_order(self):
        engine = SimulationEngine()
        seen = []
        engine.schedule_at(1.0, seen.append, "at")
        engine.schedule_after(1.0, seen.append, "after")
        engine.schedule_after(0.0, seen.append, "now")
        engine.run()
        assert seen == ["now", "at", "after"]

    def test_events_can_schedule_new_events(self):
        engine = SimulationEngine()
        seen = []

        def chain(n):
            seen.append(engine.now)
            if n > 0:
                engine.schedule_after(1.0, chain, n - 1)

        engine.schedule_at(0.0, chain, 3)
        engine.run()
        assert seen == [0.0, 1.0, 2.0, 3.0]

    def test_args_passed_to_callback(self):
        engine = SimulationEngine()
        received = []
        engine.schedule_at(1.0, lambda a, b: received.append((a, b)), 1, "x")
        engine.run()
        assert received == [(1, "x")]


class TestCancellation:
    def test_cancelled_event_not_executed(self):
        engine = SimulationEngine()
        calls = []
        event = engine.schedule_at(1.0, lambda: calls.append(1))
        event.cancel()
        engine.run()
        assert calls == []

    def test_cancelled_event_counts_as_skipped(self):
        engine = SimulationEngine()
        event = engine.schedule_at(1.0, lambda: None)
        event.cancel()
        engine.run()
        assert engine.processed_events == 0


class TestRunLimits:
    def test_until_stops_clock(self):
        engine = SimulationEngine()
        calls = []
        engine.schedule_at(1.0, lambda: calls.append(1))
        engine.schedule_at(10.0, lambda: calls.append(2))
        engine.run(until=5.0)
        assert calls == [1]
        assert engine.now == 5.0
        engine.run()
        assert calls == [1, 2]

    def test_until_advances_clock_when_idle(self):
        engine = SimulationEngine()
        engine.run(until=42.0)
        assert engine.now == 42.0

    def test_max_events_cap(self):
        engine = SimulationEngine()
        calls = []
        for i in range(5):
            engine.schedule_at(float(i), lambda i=i: calls.append(i))
        engine.run(max_events=2)
        assert calls == [0, 1]

    @staticmethod
    def _same_time_batches(engine, log):
        """Two same-time batches whose members schedule and cancel each other."""
        record = log.append
        victim = []
        engine.schedule_at(1.0, lambda: (record("a"), engine.schedule_at(1.0, record, "a2")))
        engine.schedule_at(1.0, lambda: (record("b"), victim[0].cancel()))
        engine.schedule_at(1.0, record, "c").cancel()  # cancelled before the run
        engine.schedule_at(1.0, record, "d")
        victim.append(engine.schedule_at(1.0, record, "e"))
        engine.schedule_at(1.0, record, "f")
        engine.schedule_at(2.0, record, "g")
        engine.schedule_at(2.0, record, "h")

    @pytest.mark.parametrize("cap", range(8))
    def test_cap_mid_batch_executes_exactly_k_then_resumes_in_order(self, cap):
        uncapped, expected = SimulationEngine(), []
        self._same_time_batches(uncapped, expected)
        uncapped.run()
        assert expected == ["a", "b", "d", "f", "a2", "g", "h"]

        engine, calls = SimulationEngine(), []
        self._same_time_batches(engine, calls)
        engine.run(max_events=cap)
        assert len(calls) == engine.processed_events == min(cap, len(expected))
        engine.run()
        assert calls == expected
        assert engine.processed_events == len(expected)

    def test_until_and_cap_together(self):
        """The horizon drops cancelled heads; the cap leaves the clock alone."""
        engine, calls = SimulationEngine(), []
        for time in (1.0, 2.0, 3.0, 4.0):
            engine.schedule_at(time, calls.append, time)
        engine.schedule_at(2.5, calls.append, "x").cancel()
        engine.run(until=2.7, max_events=5)
        assert calls == [1.0, 2.0]
        assert engine.now == 2.7
        assert engine.pending_events == 2  # the cancelled 2.5 was dropped
        engine.run(until=10.0, max_events=1)
        assert calls == [1.0, 2.0, 3.0]
        assert engine.now == 3.0  # capped: the clock stays at the last event
        engine.run(until=10.0, max_events=1)
        assert calls == [1.0, 2.0, 3.0, 4.0]
        assert engine.now == 10.0  # a drained queue reaches the horizon, cap or not

    def test_step_returns_false_when_idle(self):
        engine = SimulationEngine()
        assert engine.step() is False
        engine.schedule_at(1.0, lambda: None)
        assert engine.step() is True


class TestRandomStreams:
    def test_spawned_rngs_are_independent_and_deterministic(self):
        a = SimulationEngine(seed=3)
        b = SimulationEngine(seed=3)
        assert a.spawn_rng().uniform() == b.spawn_rng().uniform()
        assert a.spawn_rng().uniform() != a.rng.uniform() or True

    def test_root_rng_reads_the_seed_and_spawns_nothing(self):
        read = SimulationEngine(seed=3)
        unread = SimulationEngine(seed=3)
        read.spawn_rng()
        unread.spawn_rng()
        assert read.rng is read.rng
        assert read.rng.uniform() == np.random.default_rng(3).uniform()
        # Reading the root generator spawns no child, so later streams match.
        assert read.spawn_rng().uniform() == unread.spawn_rng().uniform()

    def test_different_seeds_differ(self):
        a = SimulationEngine(seed=1).spawn_rng().uniform()
        b = SimulationEngine(seed=2).spawn_rng().uniform()
        assert a != b


class TestOrderImmutability:
    def test_mutating_a_scheduled_event_does_not_reorder_the_queue(self):
        # The heap stores immutable (time, sequence, event) triples, so
        # the execution order is fixed at insertion even if a caller
        # mutates the Event afterwards.
        engine = SimulationEngine()
        calls = []
        first = engine.schedule_at(5.0, lambda: calls.append("first"))
        engine.schedule_at(10.0, lambda: calls.append("second"))
        first.time = 99.0  # would sort last if ordering consulted the field
        engine.run()
        assert calls == ["first", "second"]

    def test_tie_break_is_by_insertion_sequence_not_event_identity(self):
        engine = SimulationEngine()
        calls = []
        events = [engine.schedule_at(1.0, lambda i=i: calls.append(i)) for i in range(20)]
        assert [event.sequence for event in events] == sorted(e.sequence for e in events)
        engine.run()
        assert calls == list(range(20))
