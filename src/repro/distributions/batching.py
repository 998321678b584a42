"""Batched random sampling with a stream-identical draw order.

The simulator's hot loops used to make one RNG round-trip per attempt
(``rng.uniform(size=1)`` → one-element array → ``float``).  For numpy's
``Generator`` the partition of draws into calls does not change the
stream: ``uniform(size=n)`` returns bit-for-bit the same values as ``n``
successive ``uniform(size=1)`` calls, and the same holds for the
inverse-transform samplers built on top of it.  :func:`sample_stream`
exploits this: it draws a block of samples per RNG round-trip and hands
them out one at a time, so consumers observe **exactly** the sequence
they would have seen with per-draw calls, at a fraction of the overhead.

Because the values do not depend on the block size, a block size of 1
(the historical call pattern) gives the same results; the golden-parity
suite checks that.
"""

from __future__ import annotations

from itertools import chain, repeat
from typing import Callable, Iterator

import numpy as np


def sample_stream(draw: Callable[[int], np.ndarray], batch: int) -> Iterator[float]:
    """An endless iterator of scalar samples drawn in blocks, in draw order.

    Parameters
    ----------
    draw:
        Callable mapping a block size to a numpy array of that many
        samples (e.g. ``lambda n: distribution.sample(n, rng)``).  It is
        invoked lazily, only when the previous block is used up.
    batch:
        Block size per ``draw`` call.

    Because each underlying RNG must serve exactly one purpose for the
    partition invariance to apply, create one stream per (RNG, purpose)
    pair — never share an RNG between a stream and direct draws.

    Each block is converted to a list of Python floats once, when it is
    drawn, and :func:`itertools.chain.from_iterable` hands them out, so
    ``next(stream)`` is one C-level call per sample.
    """
    if batch < 1:
        raise ValueError("batch size must be at least 1")
    blocks = (np.asarray(draw(batch), dtype=float).tolist() for _ in repeat(None))
    return chain.from_iterable(blocks)
