"""The unified metrics registry: counters, gauges, histograms with labels.

One process-wide :class:`MetricsRegistry` holds the pipeline's
fleet-wide totals — the transpile-cache hit/miss gauges, the fault/retry
counters summed over every finished job, the runtime service's queue
and breaker series — behind two export surfaces:
:meth:`MetricsRegistry.snapshot` (a JSON-compatible tree) and
:meth:`MetricsRegistry.to_prometheus` (Prometheus text exposition).
The registry is write-only for the pipeline: each layer keeps its own
ledger (``job.fault_stats``, ``TranspileCache.stats()``) and publishes
into the registry, and only the exporters read it.  No series is
labelled by job, so the series count does not grow with the number of
jobs.

Metric families are created idempotently by name::

    registry = get_metrics_registry()
    hits = registry.counter("repro_transpile_cache_hits_total",
                            "Transpile cache hits")
    hits.inc()
    seconds = registry.histogram("repro_stage_seconds",
                                 "Stage wall time", labelnames=("stage",))
    seconds.observe(0.012, labels={"stage": "assemble"})

Labels are passed as plain dictionaries (several label names — ``pass``,
for one — are Python keywords).  Metrics are always on: recording a
value is a dictionary update, no tracing required.
"""

from __future__ import annotations

import threading

from repro.exceptions import ReproError

#: Default histogram bucket upper bounds (seconds-flavoured).
DEFAULT_BUCKETS = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 30.0, float("inf"),
)


class MetricError(ReproError):
    """Raised on metric misuse (label mismatch, kind collision)."""


def _label_key(labelnames, labels):
    labels = labels or {}
    if set(labels) != set(labelnames):
        raise MetricError(
            f"expected labels {sorted(labelnames)}, got {sorted(labels)}"
        )
    return tuple(str(labels[name]) for name in labelnames)


class _Metric:
    """Shared behaviour of one named metric family."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "", labelnames=()):
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._lock = threading.Lock()
        self._series: dict = {}

    def _key(self, labels):
        return _label_key(self.labelnames, labels)

    def series(self) -> dict:
        """``{label_tuple: value}`` snapshot of every labelled series."""
        with self._lock:
            return dict(self._series)

    def reset(self) -> None:
        """Drop every recorded series (the family object stays usable)."""
        with self._lock:
            self._series.clear()

    def _labels_dict(self, key) -> dict:
        return dict(zip(self.labelnames, key))


class Counter(_Metric):
    """A monotonically increasing tally, optionally labelled."""

    kind = "counter"

    def inc(self, amount: float = 1, labels=None) -> None:
        """Add ``amount`` (must be non-negative) to one series."""
        if amount < 0:
            raise MetricError("counters can only increase")
        key = self._key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0) + amount

    def value(self, labels=None) -> float:
        """Current value of one series (0 if never incremented)."""
        return self._series.get(self._key(labels), 0)

    def total(self, match=None) -> float:
        """Sum across series whose labels include every ``match`` pair."""
        match = match or {}
        positions = [
            (self.labelnames.index(name), str(value))
            for name, value in match.items()
        ]
        with self._lock:
            return sum(
                value for key, value in self._series.items()
                if all(key[pos] == want for pos, want in positions)
            )


class Gauge(_Metric):
    """A value that can go up and down (occupancies, capacities)."""

    kind = "gauge"

    def set(self, value: float, labels=None) -> None:
        """Set one series to ``value``."""
        with self._lock:
            self._series[self._key(labels)] = value

    def inc(self, amount: float = 1, labels=None) -> None:
        """Add ``amount`` (may be negative) to one series."""
        key = self._key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0) + amount

    def value(self, labels=None) -> float:
        """Current value of one series (0 if never set)."""
        return self._series.get(self._key(labels), 0)


class Histogram(_Metric):
    """A distribution: bucketed counts plus sum/count/min/max."""

    kind = "histogram"

    def __init__(self, name, help="", labelnames=(),
                 buckets=DEFAULT_BUCKETS):
        super().__init__(name, help, labelnames)
        bounds = sorted(float(b) for b in buckets)
        if not bounds or bounds[-1] != float("inf"):
            bounds.append(float("inf"))
        self.buckets = tuple(bounds)

    def observe(self, value: float, labels=None) -> None:
        """Record one observation into one series."""
        key = self._key(labels)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = {
                    "count": 0, "sum": 0.0,
                    "min": float("inf"), "max": float("-inf"),
                    "buckets": [0] * len(self.buckets),
                }
                self._series[key] = series
            series["count"] += 1
            series["sum"] += value
            series["min"] = min(series["min"], value)
            series["max"] = max(series["max"], value)
            for index, bound in enumerate(self.buckets):
                if value <= bound:
                    series["buckets"][index] += 1
                    break

    def snapshot(self, labels=None) -> dict:
        """Count/sum/min/max and per-bucket counts for one series."""
        series = self._series.get(self._key(labels))
        if series is None:
            return {"count": 0, "sum": 0.0, "min": None, "max": None,
                    "buckets": {}}
        return {
            "count": series["count"],
            "sum": series["sum"],
            "min": series["min"],
            "max": series["max"],
            "buckets": {
                ("+Inf" if bound == float("inf") else repr(bound)): count
                for bound, count in zip(self.buckets, series["buckets"])
            },
        }


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricsRegistry:
    """A named collection of metric families with unified export."""

    def __init__(self):
        self._lock = threading.Lock()
        self._metrics: dict = {}

    def _get_or_create(self, cls, name, help, labelnames, **kwargs):
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, cls) or (
                    existing.labelnames != tuple(labelnames)
                ):
                    raise MetricError(
                        f"metric '{name}' already registered as "
                        f"{existing.kind} with labels "
                        f"{list(existing.labelnames)}"
                    )
                return existing
            metric = cls(name, help, labelnames, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(self, name, help="", labelnames=()) -> Counter:
        """Get or create a :class:`Counter` family."""
        return self._get_or_create(Counter, name, help, labelnames)

    def gauge(self, name, help="", labelnames=()) -> Gauge:
        """Get or create a :class:`Gauge` family."""
        return self._get_or_create(Gauge, name, help, labelnames)

    def histogram(self, name, help="", labelnames=(),
                  buckets=DEFAULT_BUCKETS) -> Histogram:
        """Get or create a :class:`Histogram` family."""
        return self._get_or_create(
            Histogram, name, help, labelnames, buckets=buckets
        )

    def get(self, name):
        """The registered family named ``name``, or None."""
        return self._metrics.get(name)

    def families(self) -> list:
        """Every registered family, sorted by name."""
        with self._lock:
            return [self._metrics[name] for name in sorted(self._metrics)]

    def reset(self) -> None:
        """Zero every series; family objects stay registered and usable."""
        for family in self.families():
            family.reset()

    def snapshot(self) -> dict:
        """A JSON-compatible tree of every family and series."""
        tree: dict = {}
        for family in self.families():
            series = []
            if family.kind == "histogram":
                for key in sorted(family.series()):
                    entry = family.snapshot(family._labels_dict(key))
                    entry["labels"] = family._labels_dict(key)
                    series.append(entry)
            else:
                for key, value in sorted(family.series().items()):
                    series.append(
                        {"labels": family._labels_dict(key), "value": value}
                    )
            tree[family.name] = {
                "type": family.kind,
                "help": family.help,
                "series": series,
            }
        return tree

    def to_prometheus(self) -> str:
        """Prometheus text exposition of every family."""
        lines = []
        for family in self.families():
            lines.append(f"# HELP {family.name} {family.help}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            if family.kind == "histogram":
                for key, series in sorted(family.series().items()):
                    labels = family._labels_dict(key)
                    cumulative = 0
                    for bound, count in zip(
                        family.buckets, series["buckets"]
                    ):
                        cumulative += count
                        le = "+Inf" if bound == float("inf") else repr(bound)
                        lines.append(
                            f"{family.name}_bucket"
                            f"{_format_labels({**labels, 'le': le})} "
                            f"{cumulative}"
                        )
                    lines.append(
                        f"{family.name}_sum{_format_labels(labels)} "
                        f"{_format_value(series['sum'])}"
                    )
                    lines.append(
                        f"{family.name}_count{_format_labels(labels)} "
                        f"{series['count']}"
                    )
            else:
                for key, value in sorted(family.series().items()):
                    labels = family._labels_dict(key)
                    lines.append(
                        f"{family.name}{_format_labels(labels)} "
                        f"{_format_value(value)}"
                    )
        return "\n".join(lines) + "\n"


def _format_labels(labels: dict) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{name}="{_escape(value)}"' for name, value in labels.items()
    )
    return "{" + inner + "}"


def _escape(value) -> str:
    return str(value).replace("\\", r"\\").replace('"', r"\"")


def _format_value(value) -> str:
    number = float(value)
    if number.is_integer():
        return str(int(number))
    return repr(number)


#: The process-wide registry every pipeline layer publishes into.
_REGISTRY = MetricsRegistry()


def get_metrics_registry() -> MetricsRegistry:
    """The process-wide :class:`MetricsRegistry`."""
    return _REGISTRY


def reset_metrics() -> None:
    """Zero every series in the process-wide registry (tests, benches)."""
    _REGISTRY.reset()
