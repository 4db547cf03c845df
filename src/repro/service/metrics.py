"""Dependency-free metrics primitives for the service layer.

A :class:`MetricsRegistry` hands out named :class:`Counter`,
:class:`Gauge`, and :class:`Histogram` instruments.  The design trades
generality for hot-path cost:

* **Counters** carry at most *one* label (e.g. ``shard`` or ``op``) so
  an increment is a dict bump, not a tag-tuple allocation.
* **Histograms** use *fixed* bucket bounds chosen at creation.  An
  observation is one ``bisect`` plus four scalar updates; quantiles are
  estimated at snapshot time by linear interpolation inside the
  containing bucket, which is exact enough for p50/p95/p99 dashboards
  while keeping per-event cost flat.
* A **null registry** (:data:`NULL_REGISTRY`) implements the same
  surface with no-ops, so ``metrics=False`` deployments pay only an
  attribute call per instrumentation site — no ``if`` forests in the
  instrumented code.

One registry per service: the flush threads, the query threads and the
facade all book into the same instruments, so a snapshot is the whole
service with nothing to merge.

Everything here is thread-safe.  Counters and histograms take a lock
per operation; the lock is uncontended in practice because each
instrument is touched from few threads and the critical sections are a
handful of scalar ops.
"""

from __future__ import annotations

import threading
from bisect import bisect_right
from typing import Any, Iterable

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "DURATION_BUCKETS",
    "COUNT_BUCKETS",
]

#: Default latency bucket upper bounds, in **seconds**.  Spans five
#: orders of magnitude: 50µs journal appends up to multi-second
#: compactions.  The final implicit bucket is +inf.
DURATION_BUCKETS: tuple[float, ...] = (
    0.00005,
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)

#: Bucket bounds for small cardinalities (batch sizes, shard fan-outs).
COUNT_BUCKETS: tuple[float, ...] = (
    1.0,
    2.0,
    4.0,
    8.0,
    16.0,
    32.0,
    64.0,
    128.0,
    256.0,
    512.0,
    1024.0,
)


class Counter:
    """A monotonically increasing counter with one optional label.

    Unlabeled use: ``c.inc()`` / ``c.inc(5)``.  Labeled use:
    ``c.inc(1, label=shard)`` keeps an independent total per label
    value alongside the grand total.
    """

    __slots__ = ("name", "label_name", "_lock", "_total", "_by_label")

    def __init__(self, name: str, *, label_name: str | None = None) -> None:
        self.name = name
        self.label_name = label_name
        self._lock = threading.Lock()
        self._total = 0
        self._by_label: dict[Any, int] = {}

    def inc(self, amount: int = 1, *, label: Any = None) -> None:
        with self._lock:
            self._total += amount
            if label is not None:
                self._by_label[label] = self._by_label.get(label, 0) + amount

    @property
    def value(self) -> int:
        with self._lock:
            return self._total

    def labeled(self) -> dict[Any, int]:
        with self._lock:
            return dict(self._by_label)

    def _state(self) -> tuple[int, dict[Any, int]]:
        with self._lock:
            return self._total, dict(self._by_label)


class Gauge:
    """A point-in-time value, set or adjusted at will."""

    __slots__ = ("name", "_lock", "_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def add(self, delta: float) -> None:
        with self._lock:
            self._value += delta

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram:
    """Fixed-bucket histogram with interpolated quantile estimation.

    ``bounds`` are ascending upper bucket edges; an implicit overflow
    bucket catches anything larger.  :meth:`quantile` walks the
    cumulative counts to the containing bucket and interpolates
    linearly within it — the overflow bucket interpolates toward the
    observed max so a long tail still yields a finite p99.
    """

    __slots__ = (
        "name",
        "bounds",
        "_lock",
        "_counts",
        "_count",
        "_sum",
        "_min",
        "_max",
    )

    def __init__(
        self, name: str, *, bounds: Iterable[float] = DURATION_BUCKETS
    ) -> None:
        self.name = name
        self.bounds = tuple(float(b) for b in bounds)
        if not self.bounds or any(
            b2 <= b1 for b1, b2 in zip(self.bounds, self.bounds[1:])
        ):
            raise ValueError("histogram bounds must be ascending and non-empty")
        self._lock = threading.Lock()
        self._counts = [0] * (len(self.bounds) + 1)
        self._count = 0
        self._sum = 0.0
        self._min = float("inf")
        self._max = float("-inf")

    def observe(self, value: float) -> None:
        index = bisect_right(self.bounds, value)
        with self._lock:
            self._counts[index] += 1
            self._count += 1
            self._sum += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def quantile(self, q: float) -> float:
        """Estimated value at quantile *q* in ``[0, 1]``; 0.0 if empty."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be within [0, 1]")
        with self._lock:
            return self._quantile_locked(q)

    def _quantile_locked(self, q: float) -> float:
        if self._count == 0:
            return 0.0
        rank = q * self._count
        seen = 0.0
        for index, bucket_count in enumerate(self._counts):
            if bucket_count == 0:
                continue
            if seen + bucket_count >= rank:
                lower = self.bounds[index - 1] if index > 0 else 0.0
                upper = (
                    self.bounds[index]
                    if index < len(self.bounds)
                    else max(self._max, self.bounds[-1])
                )
                lower = max(lower, self._min if self._min != float("inf") else lower)
                upper = min(upper, self._max if self._max != float("-inf") else upper)
                if upper <= lower:
                    return lower
                fraction = (rank - seen) / bucket_count
                return lower + (upper - lower) * fraction
            seen += bucket_count
        return self._max if self._max != float("-inf") else 0.0

    def summary(self) -> dict[str, float]:
        with self._lock:
            if self._count == 0:
                return {"count": 0, "sum": 0.0}
            return {
                "count": self._count,
                "sum": self._sum,
                "min": self._min,
                "max": self._max,
                "p50": self._quantile_locked(0.50),
                "p95": self._quantile_locked(0.95),
                "p99": self._quantile_locked(0.99),
            }


class MetricsRegistry:
    """Factory and namespace for instruments; snapshot source.

    Instruments are created on first request and cached by name, so
    instrumentation sites may call ``registry.counter("x")`` freely —
    repeat calls return the same object.  Requesting an existing name
    with a different kind or shape raises, catching catalog typos early.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    @property
    def enabled(self) -> bool:
        return True

    # -- instrument factories -----------------------------------------------------

    def counter(self, name: str, *, label_name: str | None = None) -> Counter:
        with self._lock:
            instrument = self._counters.get(name)
            if instrument is None:
                instrument = self._counters[name] = Counter(
                    name, label_name=label_name
                )
            elif label_name is not None and instrument.label_name != label_name:
                raise ValueError(
                    f"counter {name!r} already registered with label "
                    f"{instrument.label_name!r}"
                )
            return instrument

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            instrument = self._gauges.get(name)
            if instrument is None:
                instrument = self._gauges[name] = Gauge(name)
            return instrument

    def histogram(
        self, name: str, *, bounds: Iterable[float] = DURATION_BUCKETS
    ) -> Histogram:
        with self._lock:
            instrument = self._histograms.get(name)
            if instrument is None:
                instrument = self._histograms[name] = Histogram(
                    name, bounds=bounds
                )
            return instrument

    # -- snapshots ----------------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """A JSON-serialisable view of every instrument.

        Labeled counters render both the grand total under the bare
        name and per-label series as ``name{label=value}`` keys, the
        flat shape dashboards and the bench artifact expect.
        """
        with self._lock:
            counters = list(self._counters.values())
            gauges = list(self._gauges.values())
            histograms = list(self._histograms.values())
        counter_view: dict[str, int] = {}
        for instrument in counters:
            total, by_label = instrument._state()
            counter_view[instrument.name] = total
            label_name = instrument.label_name or "label"
            for key in sorted(by_label, key=str):
                counter_view[f"{instrument.name}{{{label_name}={key}}}"] = (
                    by_label[key]
                )
        return {
            "counters": counter_view,
            "gauges": {g.name: g.value for g in gauges},
            "histograms": {h.name: h.summary() for h in histograms},
        }


class _NullCounter:
    __slots__ = ()
    name = "null"
    label_name = None

    def inc(self, amount: int = 1, *, label: Any = None) -> None:
        return None

    @property
    def value(self) -> int:
        return 0

    def labeled(self) -> dict[Any, int]:
        return {}


class _NullGauge:
    __slots__ = ()
    name = "null"

    def set(self, value: float) -> None:
        return None

    def add(self, delta: float) -> None:
        return None

    @property
    def value(self) -> float:
        return 0.0


class _NullHistogram:
    __slots__ = ()
    name = "null"
    bounds: tuple[float, ...] = ()

    def observe(self, value: float) -> None:
        return None

    @property
    def count(self) -> int:
        return 0

    @property
    def sum(self) -> float:
        return 0.0

    def quantile(self, q: float) -> float:
        return 0.0

    def summary(self) -> dict[str, float]:
        return {"count": 0, "sum": 0.0}


class _NullRegistry:
    """Shares the registry surface; every operation is a no-op.

    Instrumented code holds a registry unconditionally and never
    branches on enablement — disabled deployments route here and the
    cost per site is one attribute lookup + empty call.
    """

    __slots__ = ()

    _COUNTER = _NullCounter()
    _GAUGE = _NullGauge()
    _HISTOGRAM = _NullHistogram()

    @property
    def enabled(self) -> bool:
        return False

    def counter(self, name: str, *, label_name: str | None = None) -> _NullCounter:
        return self._COUNTER

    def gauge(self, name: str) -> _NullGauge:
        return self._GAUGE

    def histogram(
        self, name: str, *, bounds: Iterable[float] = DURATION_BUCKETS
    ) -> _NullHistogram:
        return self._HISTOGRAM

    def snapshot(self) -> dict[str, Any]:
        return {"counters": {}, "gauges": {}, "histograms": {}}


#: Module-level no-op registry; safe to share everywhere.
NULL_REGISTRY = _NullRegistry()
