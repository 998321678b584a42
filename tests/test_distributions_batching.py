"""Unit tests for the block-sampling layer behind the simulator hot path.

The simulator's byte-identical fast path rests on one numpy fact: the
partition of ``Generator`` draws into calls does not change the stream.
These tests pin both the fact itself and the :func:`sample_stream`
machinery that exploits it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.distributions import ParetoDistribution
from repro.distributions.batching import sample_stream


class TestSampleStream:
    def test_rejects_non_positive_batch(self):
        with pytest.raises(ValueError):
            sample_stream(lambda n: np.zeros(n), 0)

    def test_stream_identical_to_scalar_draws(self):
        """The load-bearing invariant: block draws == per-draw calls."""
        dist = ParetoDistribution(10.0, 1.5)
        buffered_rng = np.random.default_rng(1234)
        scalar_rng = np.random.default_rng(1234)
        stream = sample_stream(lambda n: dist.sample(n, rng=buffered_rng), batch=7)
        for _ in range(100):
            expected = float(dist.sample(1, rng=scalar_rng)[0])
            assert next(stream) == expected

    def test_draw_called_once_per_block(self):
        calls = []

        def draw(n):
            calls.append(n)
            return np.arange(len(calls) * 100, len(calls) * 100 + n, dtype=float)

        stream = sample_stream(draw, batch=4)
        values = [next(stream) for _ in range(10)]
        assert calls == [4, 4, 4]
        assert values == [100, 101, 102, 103, 200, 201, 202, 203, 300, 301]

    def test_draw_is_lazy(self):
        calls = []
        sample_stream(lambda n: calls.append(n) or np.zeros(n), batch=8)
        assert calls == []

    def test_a_new_stream_does_not_replay_pending_samples(self):
        """Changed draw parameters take a new stream; the old block is dropped."""
        blocks = iter([np.array([1.0, 2.0, 3.0]), np.array([7.0, 8.0, 9.0])])
        stream = sample_stream(lambda n: next(blocks), batch=3)
        assert next(stream) == 1.0
        stream = sample_stream(lambda n: next(blocks), batch=3)
        # The remaining 2.0 and 3.0 are gone; the new stream draws afresh.
        assert next(stream) == 7.0

    def test_batch_one_matches_historical_call_pattern(self):
        calls = []

        def draw(n):
            calls.append(n)
            return np.array([float(len(calls))])

        stream = sample_stream(draw, batch=1)
        assert [next(stream) for _ in range(3)] == [1.0, 2.0, 3.0]
        assert calls == [1, 1, 1]

    def test_returns_python_floats(self):
        stream = sample_stream(lambda n: np.full(n, 2.5), batch=4)
        assert type(next(stream)) is float

    @pytest.mark.parametrize("batch", [128, 1])
    def test_yields_builtin_floats_of_the_same_stream(self, batch):
        """Blocks become Python floats once; the values are the stream's."""
        dist = ParetoDistribution(10.0, 1.5)
        buffered_rng = np.random.default_rng(99)
        stream = sample_stream(lambda n: dist.sample(n, rng=buffered_rng), batch)
        values = [next(stream) for _ in range(300)]
        assert all(type(value) is float for value in values)
        expected = dist.sample(300, rng=np.random.default_rng(99))
        assert values == [float(x) for x in expected]


class TestNumpyPartitionInvariance:
    """Document the numpy contract the whole fast path depends on."""

    def test_uniform_block_equals_sequential_scalars(self):
        block = np.random.default_rng(42).uniform(size=32)
        rng = np.random.default_rng(42)
        singles = np.array([rng.uniform(size=1)[0] for _ in range(32)])
        assert np.array_equal(block, singles)

    def test_mixed_partitions_equal(self):
        rng_a = np.random.default_rng(7)
        rng_b = np.random.default_rng(7)
        a = np.concatenate([rng_a.uniform(size=5), rng_a.uniform(size=11)])
        b = np.concatenate([rng_b.uniform(size=2), rng_b.uniform(size=14)])
        assert np.array_equal(a, b)
