"""Batched random sampling with a stream-identical draw order.

The simulator's hot loops used to make one RNG round-trip per attempt
(``rng.uniform(size=1)`` → one-element array → ``float``).  For numpy's
``Generator`` the partition of draws into calls does not change the
stream: ``uniform(size=n)`` returns bit-for-bit the same values as ``n``
successive ``uniform(size=1)`` calls, and the same holds for the
inverse-transform samplers built on top of it.  :class:`SampleBuffer`
exploits this: it draws a block of samples per RNG round-trip and hands
them out one at a time, so consumers observe **exactly** the sequence
they would have seen with per-draw calls, at a fraction of the overhead.

Batching can be disabled (block size forced to 1, i.e. the historical
call pattern) by setting the environment variable ``CHRONOS_VECTORIZE``
to ``0``/``off``/``false``/``no``; the parity suite runs both modes and
asserts identical results.
"""

from __future__ import annotations

import os
from typing import Callable, List

import numpy as np

#: Values of ``CHRONOS_VECTORIZE`` that disable batched sampling.
_DISABLED_VALUES = frozenset({"0", "off", "false", "no"})


def vectorized_batch_size(default: int) -> int:
    """Effective sample-block size honouring ``CHRONOS_VECTORIZE``.

    Returns ``default`` (clamped to at least 1) normally, and ``1`` when
    the environment variable disables batching.  The variable is read at
    call time, not import time, so tests can toggle it per-scenario.
    """
    value = os.environ.get("CHRONOS_VECTORIZE", "1").strip().lower()
    if value in _DISABLED_VALUES:
        return 1
    return max(1, default)


class SampleBuffer:
    """Hands out scalar samples from block draws, preserving draw order.

    Parameters
    ----------
    draw:
        Callable mapping a block size to a numpy array of that many
        samples (e.g. ``lambda n: distribution.sample(n, rng)``).  It is
        invoked lazily, only when the buffer is empty.
    batch:
        Block size per ``draw`` call; pass the result of
        :func:`vectorized_batch_size` to honour the environment toggle.

    Because each underlying RNG must serve exactly one purpose for the
    partition invariance to apply, create one buffer per (RNG, purpose)
    pair — never share an RNG between a buffer and direct draws.

    Each block is converted to a list of Python floats once, when it is
    drawn, so :meth:`next` is a list read rather than a numpy scalar
    conversion per sample.
    """

    __slots__ = ("_draw", "_batch", "_buffer", "_position")

    def __init__(self, draw: Callable[[int], np.ndarray], batch: int):
        if batch < 1:
            raise ValueError("batch size must be at least 1")
        self._draw = draw
        self._batch = batch
        self._buffer: List[float] = []
        self._position = 0

    def next(self) -> float:
        """The next sample in the stream, as a Python float."""
        position = self._position
        buffer = self._buffer
        if position >= len(buffer):
            buffer = self._buffer = np.asarray(self._draw(self._batch), dtype=float).tolist()
            position = 0
        self._position = position + 1
        return buffer[position]

    def invalidate(self) -> None:
        """Drop buffered samples (e.g. when the draw parameters change).

        Pending samples are discarded, not replayed; callers must only
        invalidate when the underlying distribution genuinely changed.
        """
        self._buffer = []
        self._position = 0
