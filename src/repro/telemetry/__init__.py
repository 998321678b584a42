"""``repro.telemetry`` — stdlib-only observability for the whole stack.

Three small pieces, used together by every tier:

* a process-wide :class:`MetricsRegistry` (:data:`REGISTRY`) of
  :class:`Counter`/:class:`Gauge`/:class:`Histogram` metrics that the
  broker, workers, sweep executors, adaptive search and simulator
  increment in place, rendered as Prometheus text by ``GET /metrics``
  on the sweep service and as JSON by the ``metrics`` RPC;
* a :class:`Profiler` of coarse simulator phases, attached through
  :func:`enable_profiling` (or the ``CHRONOS_PROFILE`` environment
  variable) and costing one ``None`` check per run when disabled;
* span helpers (:func:`new_sweep_id`, :func:`span_detail`) minting the
  correlation ids that tie :class:`~repro.api.events.SweepEvent`
  streams to broker event-log rows for ``chronos-experiments trace``.

The module-level :func:`counter`/:func:`gauge`/:func:`histogram`
helpers are the idiomatic instrumentation entry points — get-or-create
against the default registry, safe to call on every hit::

    from repro import telemetry
    telemetry.counter(
        "chronos_tasks_claimed_total", "Tasks claimed by workers"
    ).inc(len(batch))
"""

from __future__ import annotations

from typing import Sequence

from repro.telemetry.profiler import (
    PROFILE_ENV,
    Profiler,
    active_profiler,
    disable_profiling,
    enable_profiling,
    profile_worker,
)
from repro.telemetry.registry import (
    DEFAULT_BUCKETS,
    REGISTRY,
    Counter,
    Gauge,
    Histogram,
    Metric,
    MetricsRegistry,
)
from repro.telemetry.spans import (
    new_span_id,
    new_sweep_id,
    parse_span_detail,
    span_detail,
)

__all__ = [
    "DEFAULT_BUCKETS",
    "PROFILE_ENV",
    "REGISTRY",
    "Counter",
    "Gauge",
    "Histogram",
    "Metric",
    "MetricsRegistry",
    "Profiler",
    "active_profiler",
    "counter",
    "disable_profiling",
    "enable_profiling",
    "gauge",
    "histogram",
    "new_span_id",
    "new_sweep_id",
    "parse_span_detail",
    "profile_worker",
    "span_detail",
]


def counter(name: str, help: str = "", labelnames: Sequence[str] = ()) -> Counter:
    """Get-or-create a counter on the default registry."""
    return REGISTRY.counter(name, help, labelnames)


def gauge(name: str, help: str = "", labelnames: Sequence[str] = ()) -> Gauge:
    """Get-or-create a gauge on the default registry."""
    return REGISTRY.gauge(name, help, labelnames)


def histogram(
    name: str,
    help: str = "",
    labelnames: Sequence[str] = (),
    buckets: Sequence[float] = DEFAULT_BUCKETS,
) -> Histogram:
    """Get-or-create a histogram on the default registry."""
    return REGISTRY.histogram(name, help, labelnames, buckets=buckets)
