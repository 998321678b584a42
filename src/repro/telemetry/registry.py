"""Thread-safe, stdlib-only metrics primitives with Prometheus exposition.

The model is a small subset of the Prometheus client library:
:class:`Counter` (monotone), :class:`Gauge` (set/inc) and
:class:`Histogram` (fixed buckets, cumulative on render, with a
``time()`` context manager), optionally fanned out into labeled children
via ``metric.labels(outcome="executed")``.  A :class:`MetricsRegistry`
holds metrics by name with get-or-create semantics so instrumentation
sites never race over registration, and renders the whole set either as
Prometheus text format (``render()``, served by ``GET /metrics`` on the
sweep service) or as a JSON-native dict (``snapshot()``, returned by the
``metrics`` RPC).

Everything here is deliberately boring: plain dicts under one lock per
metric, no background threads, no external dependencies.  Instrumented
call sites pay one dict lookup plus one locked float add — cheap against
the sqlite transactions and scenario simulations they sit next to (the
simulator's per-event loop is *not* instrumented; engine totals are
flushed once per run, see :mod:`repro.simulator.runner`).
"""

from __future__ import annotations

import math
import re
import threading
from bisect import bisect_left
from time import perf_counter
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple, Type

#: Default latency buckets (seconds): micro-benchmark floor to multi-minute
#: scenario ceilings, roughly logarithmic like the Prometheus defaults.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def _escape_label_value(value: str) -> str:
    """Escape a label value per the Prometheus text-format rules."""
    return value.replace("\\", r"\\").replace("\n", r"\n").replace('"', r'\"')


def _format_value(value: float) -> str:
    """Render a sample value the way Prometheus expects (+Inf, ints bare)."""
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _labels_text(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{name}="{_escape_label_value(value)}"' for name, value in labels.items()
    )
    return "{" + inner + "}"


class _Timer:
    """Context manager observing elapsed wall-clock into a histogram."""

    __slots__ = ("_histogram", "_started")

    def __init__(self, histogram: "Histogram"):
        self._histogram = histogram
        self._started = 0.0

    def __enter__(self) -> "_Timer":
        self._started = perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._histogram.observe(perf_counter() - self._started)


class Metric:
    """Common shape: name, help text, optional label fan-out."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "", labelnames: Sequence[str] = ()):
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name: {name!r}")
        for label in labelnames:
            if not _LABEL_RE.match(label):
                raise ValueError(f"invalid label name: {label!r}")
        self.name = name
        self.help = help
        self.labelnames: Tuple[str, ...] = tuple(labelnames)
        self._lock = threading.Lock()
        self._children: Dict[Tuple[str, ...], "Metric"] = {}

    # -- label fan-out --------------------------------------------------
    def labels(self, **labels: Any) -> "Metric":
        """Get-or-create the child for one label-value combination."""
        if not self.labelnames:
            raise ValueError(f"metric {self.name!r} was declared without labels")
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"metric {self.name!r} expects labels {list(self.labelnames)}, "
                f"got {sorted(labels)}"
            )
        key = tuple(str(labels[name]) for name in self.labelnames)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._make_child()
                self._children[key] = child
        return child

    def _make_child(self) -> "Metric":
        return type(self)(self.name, self.help)

    def _require_leaf(self) -> None:
        if self.labelnames:
            raise ValueError(
                f"metric {self.name!r} is labeled; call .labels(...) first"
            )

    def _leaves(self) -> Iterator[Tuple[Dict[str, str], "Metric"]]:
        """Yield ``(labels, leaf)`` pairs — ``self`` when unlabeled."""
        if not self.labelnames:
            yield {}, self
            return
        with self._lock:
            items = list(self._children.items())
        for key, child in sorted(items):
            yield dict(zip(self.labelnames, key)), child

    # -- exposition ------------------------------------------------------
    def render(self) -> str:
        lines = []
        if self.help:
            lines.append(f"# HELP {self.name} {self.help}")
        lines.append(f"# TYPE {self.name} {self.kind}")
        for labels, leaf in self._leaves():
            lines.extend(leaf._render_samples(labels))
        return "\n".join(lines)

    def _render_samples(self, labels: Dict[str, str]) -> List[str]:
        raise NotImplementedError

    def snapshot(self) -> Dict[str, Any]:
        return {
            "type": self.kind,
            "help": self.help,
            "samples": [
                dict(leaf._snapshot_sample(), labels=labels)
                for labels, leaf in self._leaves()
            ],
        }

    def _snapshot_sample(self) -> Dict[str, Any]:
        raise NotImplementedError


class Counter(Metric):
    """A monotonically increasing value (totals: tasks claimed, events)."""

    kind = "counter"

    def __init__(self, name: str, help: str = "", labelnames: Sequence[str] = ()):
        super().__init__(name, help, labelnames)
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self._require_leaf()
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge for decrements")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def _render_samples(self, labels: Dict[str, str]) -> List[str]:
        return [f"{self.name}{_labels_text(labels)} {_format_value(self.value)}"]

    def _snapshot_sample(self) -> Dict[str, Any]:
        return {"value": self.value}


class Gauge(Metric):
    """A value that can go both ways (queue depth, heap size, ratios)."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "", labelnames: Sequence[str] = ()):
        super().__init__(name, help, labelnames)
        self._value = 0.0

    def set(self, value: float) -> None:
        self._require_leaf()
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self._require_leaf()
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def _render_samples(self, labels: Dict[str, str]) -> List[str]:
        return [f"{self.name}{_labels_text(labels)} {_format_value(self.value)}"]

    def _snapshot_sample(self) -> Dict[str, Any]:
        return {"value": self.value}


class Histogram(Metric):
    """Fixed-bucket distribution (latencies); cumulative on render only."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ):
        super().__init__(name, help, labelnames)
        bounds = tuple(sorted(float(bound) for bound in buckets))
        if not bounds:
            raise ValueError("a histogram needs at least one bucket bound")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError("bucket bounds must be strictly increasing")
        self.buckets = bounds
        # one slot per finite bound plus the implicit +Inf overflow slot
        self._counts = [0] * (len(bounds) + 1)
        self._sum = 0.0
        self._count = 0

    def _make_child(self) -> "Histogram":
        return Histogram(self.name, self.help, buckets=self.buckets)

    def observe(self, value: float) -> None:
        self._require_leaf()
        index = bisect_left(self.buckets, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    def time(self) -> _Timer:
        """``with histogram.time(): ...`` observes the block's wall-clock."""
        self._require_leaf()
        return _Timer(self)

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def _state(self) -> Tuple[List[int], float, int]:
        with self._lock:
            return list(self._counts), self._sum, self._count

    def _render_samples(self, labels: Dict[str, str]) -> List[str]:
        counts, total_sum, total_count = self._state()
        lines = []
        cumulative = 0
        for bound, count in zip(self.buckets, counts):
            cumulative += count
            bucket_labels = dict(labels, le=_format_value(bound))
            lines.append(
                f"{self.name}_bucket{_labels_text(bucket_labels)} {cumulative}"
            )
        inf_labels = dict(labels, le="+Inf")
        lines.append(f"{self.name}_bucket{_labels_text(inf_labels)} {total_count}")
        lines.append(
            f"{self.name}_sum{_labels_text(labels)} {_format_value(total_sum)}"
        )
        lines.append(f"{self.name}_count{_labels_text(labels)} {total_count}")
        return lines

    def _snapshot_sample(self) -> Dict[str, Any]:
        counts, total_sum, total_count = self._state()
        cumulative, buckets = 0, {}
        for bound, count in zip(self.buckets, counts):
            cumulative += count
            buckets[_format_value(bound)] = cumulative
        buckets["+Inf"] = total_count
        return {"count": total_count, "sum": total_sum, "buckets": buckets}


class MetricsRegistry:
    """Named metrics with get-or-create registration and exposition.

    ``counter``/``gauge``/``histogram`` return the existing metric when
    the name is already registered (validating that the kind and label
    names agree), so hot paths can look their metric up on every call
    without an import-time registration dance.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[str, Metric] = {}

    def _get_or_create(
        self,
        cls: Type[Metric],
        name: str,
        help: str,
        labelnames: Sequence[str],
        **kwargs: Any,
    ) -> Metric:
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = cls(name, help, labelnames, **kwargs)
                self._metrics[name] = metric
                return metric
        if type(metric) is not cls or metric.labelnames != tuple(labelnames):
            raise ValueError(
                f"metric {name!r} already registered as {metric.kind} "
                f"with labels {list(metric.labelnames)}"
            )
        return metric

    def counter(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> Counter:
        return self._get_or_create(Counter, name, help, labelnames)  # type: ignore[return-value]

    def gauge(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> Gauge:
        return self._get_or_create(Gauge, name, help, labelnames)  # type: ignore[return-value]

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(  # type: ignore[return-value]
            Histogram, name, help, labelnames, buckets=buckets
        )

    def get(self, name: str) -> Optional[Metric]:
        """The registered metric, or ``None`` — for tests and dashboards."""
        with self._lock:
            return self._metrics.get(name)

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._metrics)

    def clear(self) -> None:
        """Forget every metric (tests; never called by instrumentation)."""
        with self._lock:
            self._metrics.clear()

    def render(self) -> str:
        """The whole registry in Prometheus text exposition format."""
        with self._lock:
            metrics = [self._metrics[name] for name in sorted(self._metrics)]
        blocks = [metric.render() for metric in metrics]
        return "\n".join(blocks) + ("\n" if blocks else "")

    def snapshot(self) -> Dict[str, Any]:
        """The whole registry as a JSON-native dict (the ``metrics`` RPC)."""
        with self._lock:
            metrics = dict(self._metrics)
        return {name: metrics[name].snapshot() for name in sorted(metrics)}


#: The process-wide default registry every instrumentation site uses.
REGISTRY = MetricsRegistry()
