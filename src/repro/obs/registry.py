"""The metrics registry: counters, gauges, and histograms.

Zero-dependency observability substrate for the pipeline.  Every stage
and component registers its metrics here; one registry per sensor holds
the complete picture, exportable as a JSON snapshot or Prometheus text
exposition (``repro-sensor --metrics-out``).

Design constraints, in order:

- **negligible hot-path cost** — a counter increment is one attribute
  add; a histogram observation is one ``bisect`` into a fixed edge
  tuple.  No locks (the pipeline is single-threaded per process; the
  parallel engine merges *deltas*, it never shares a registry between
  processes);
- **identical schemas everywhere** — metric identity is
  ``(name, sorted labels)``; serial and parallel engines construct the
  same set at init time, so a snapshot's shape never depends on which
  engine produced it;
- **picklable deltas** — worker processes ship ``collect_delta()``
  output (plain tuples/lists) back with their results and the parent
  ``merge_delta()``s them, which is how worker-side stage timings land
  in the parent's registry.
"""

from __future__ import annotations

import json
from bisect import bisect_left

__all__ = [
    "LATENCY_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricField",
    "MetricsRegistry",
    "bind_metrics",
]

#: Fixed log-scale latency bucket upper edges, in seconds: 1 µs to ~4.2 s
#: in powers of four (12 edges + implicit +Inf overflow bucket).  Fixed —
#: never derived from data — so histograms from any run, any engine, any
#: worker merge bucket-for-bucket.
LATENCY_BUCKETS: tuple[float, ...] = tuple(1e-6 * 4 ** i for i in range(12))


def _labels_key(labels: dict[str, str] | None) -> tuple[tuple[str, str], ...]:
    return tuple(sorted((labels or {}).items()))


class _Metric:
    """Common identity fields; subclasses add the value shape."""

    kind = "metric"
    __slots__ = ("name", "labels", "help", "unit")

    def __init__(self, name: str, labels: dict[str, str] | None,
                 help: str = "", unit: str = "") -> None:
        self.name = name
        self.labels = dict(labels or {})
        self.help = help
        self.unit = unit


class Counter(_Metric):
    """Monotonically increasing value (decrements are tolerated only for
    the parallel engine's failure-recovery accounting)."""

    kind = "counter"
    __slots__ = ("value", "_last")

    def __init__(self, name, labels=None, help="", unit=""):
        super().__init__(name, labels, help, unit)
        self.value: int | float = 0
        self._last: int | float = 0

    def inc(self, amount: int | float = 1) -> None:
        self.value += amount


class Gauge(_Metric):
    """A value that goes up and down (buffered bytes, active streams)."""

    kind = "gauge"
    __slots__ = ("value", "_last")

    def __init__(self, name, labels=None, help="", unit=""):
        super().__init__(name, labels, help, unit)
        self.value: int | float = 0
        self._last: int | float = 0

    def set(self, value: int | float) -> None:
        self.value = value


class Histogram(_Metric):
    """Fixed-bucket histogram; ``counts[i]`` is observations with
    ``value <= edges[i]``, the final slot is the +Inf overflow."""

    kind = "histogram"
    __slots__ = ("edges", "counts", "sum", "count",
                 "_last_counts", "_last_sum", "_last_count")

    def __init__(self, name, labels=None, help="", unit="",
                 buckets: tuple[float, ...] = LATENCY_BUCKETS):
        super().__init__(name, labels, help, unit)
        self.edges = tuple(buckets)
        self.counts = [0] * (len(self.edges) + 1)
        self.sum = 0.0
        self.count = 0
        self._last_counts = [0] * (len(self.edges) + 1)
        self._last_sum = 0.0
        self._last_count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.edges, value)] += 1
        self.sum += value
        self.count += 1


class MetricField:
    """Class-level descriptor binding an attribute to a registry metric.

    Components keep their historical counter attributes (``.evicted``,
    ``.fragments_dropped``, ...) — reads and ``+=`` work exactly as on a
    plain int — but the storage is a registry metric, so the same number
    surfaces in ``--metrics-out`` without any syncing.  Call
    :func:`bind_metrics` in ``__init__`` to materialize the instances.
    """

    def __init__(self, name: str, help: str = "", unit: str = "",
                 kind: str = "counter",
                 labels: dict[str, str] | None = None) -> None:
        self.name = name
        self.help = help
        self.unit = unit
        self.kind = kind
        self.labels = labels
        self.attr = "?"

    def __set_name__(self, owner, attr: str) -> None:
        self.attr = attr

    def create(self, registry: "MetricsRegistry"):
        factory = registry.counter if self.kind == "counter" else registry.gauge
        return factory(self.name, labels=self.labels, help=self.help,
                       unit=self.unit)

    def __get__(self, obj, objtype=None):
        if obj is None:
            return self
        return obj._obs_metrics[self.attr].value

    def __set__(self, obj, value) -> None:
        obj._obs_metrics[self.attr].value = value


def bind_metrics(obj, registry: "MetricsRegistry | None") -> "MetricsRegistry":
    """Materialize every :class:`MetricField` declared on ``type(obj)``
    into ``registry`` (a private registry is created when ``None``) and
    return the registry used."""
    registry = registry if registry is not None else MetricsRegistry()
    metrics: dict[str, _Metric] = {}
    for klass in type(obj).__mro__:
        for attr, field in vars(klass).items():
            if isinstance(field, MetricField) and attr not in metrics:
                metrics[attr] = field.create(registry)
    obj._obs_metrics = metrics
    return registry


class MetricsRegistry:
    """Holds every metric of one sensor; the export and merge point.

    Metric identity is ``(name, sorted(labels))``; registering an
    existing identity returns the existing instance (so a
    :class:`~repro.obs.stage.StageTimer` view in ``NidsStats`` and the
    component that does the timing share one set of numbers), and
    registering the same *name* with a different kind raises.
    """

    SNAPSHOT_SCHEMA = "repro.obs/v1"

    def __init__(self) -> None:
        self._metrics: dict[tuple, _Metric] = {}
        self._kinds: dict[str, str] = {}

    # -- registration --------------------------------------------------------

    def _register(self, cls, name: str, labels, help: str, unit: str,
                  **kwargs) -> _Metric:
        key = (name, _labels_key(labels))
        kind = cls.kind
        metric = self._metrics.get(key)
        if metric is not None:
            if metric.kind != kind:
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{metric.kind}, not {kind}")
            return metric
        if self._kinds.setdefault(name, kind) != kind:
            raise ValueError(
                f"metric {name!r} already registered as "
                f"{self._kinds[name]}, not {kind}")
        metric = cls(name, labels=labels, help=help, unit=unit, **kwargs)
        self._metrics[key] = metric
        return metric

    def counter(self, name: str, labels: dict[str, str] | None = None,
                help: str = "", unit: str = "") -> Counter:
        return self._register(Counter, name, labels, help, unit)

    def gauge(self, name: str, labels: dict[str, str] | None = None,
              help: str = "", unit: str = "") -> Gauge:
        return self._register(Gauge, name, labels, help, unit)

    def histogram(self, name: str, labels: dict[str, str] | None = None,
                  help: str = "", unit: str = "",
                  buckets: tuple[float, ...] = LATENCY_BUCKETS) -> Histogram:
        return self._register(Histogram, name, labels, help, unit,
                              buckets=buckets)

    # -- introspection -------------------------------------------------------

    def metrics(self) -> list[_Metric]:
        return [self._metrics[k] for k in sorted(self._metrics)]

    def names(self) -> list[str]:
        return sorted({m.name for m in self._metrics.values()})

    def get(self, name: str, labels: dict[str, str] | None = None):
        return self._metrics.get((name, _labels_key(labels)))

    def schema(self) -> list[tuple]:
        """Shape-only view: ``(name, kind, labels, unit)`` per metric —
        what the serial-vs-parallel equivalence tests compare."""
        return [(m.name, m.kind, _labels_key(m.labels), m.unit)
                for m in self.metrics()]

    # -- export --------------------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-serializable snapshot of every metric."""
        out: dict = {"schema": self.SNAPSHOT_SCHEMA,
                     "counters": [], "gauges": [], "histograms": []}
        for metric in self.metrics():
            entry = {"name": metric.name, "labels": metric.labels,
                     "unit": metric.unit, "help": metric.help}
            if isinstance(metric, Histogram):
                entry.update(buckets=list(metric.edges),
                             counts=list(metric.counts),
                             sum=metric.sum, count=metric.count)
                out["histograms"].append(entry)
            elif isinstance(metric, Gauge):
                entry["value"] = metric.value
                out["gauges"].append(entry)
            else:
                entry["value"] = metric.value
                out["counters"].append(entry)
        return out

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.snapshot(), indent=indent)

    def to_prometheus(self) -> str:
        """Prometheus text exposition format (version 0.0.4)."""
        lines: list[str] = []
        seen_header: set[str] = set()
        for metric in self.metrics():
            if metric.name not in seen_header:
                seen_header.add(metric.name)
                if metric.help:
                    lines.append(f"# HELP {metric.name} {metric.help}")
                lines.append(f"# TYPE {metric.name} {metric.kind}")
            label_str = _format_labels(metric.labels)
            if isinstance(metric, Histogram):
                cumulative = 0
                for edge, count in zip(metric.edges, metric.counts):
                    cumulative += count
                    le = _format_labels({**metric.labels, "le": repr(edge)})
                    lines.append(f"{metric.name}_bucket{le} {cumulative}")
                le = _format_labels({**metric.labels, "le": "+Inf"})
                lines.append(f"{metric.name}_bucket{le} {metric.count}")
                lines.append(f"{metric.name}_sum{label_str} {metric.sum!r}")
                lines.append(f"{metric.name}_count{label_str} {metric.count}")
            else:
                lines.append(f"{metric.name}{label_str} {metric.value!r}")
        return "\n".join(lines) + "\n"

    # -- worker deltas -------------------------------------------------------

    def collect_delta(self) -> dict:
        """Changes since the previous ``collect_delta`` call, as plain
        picklable data.  Metrics with no change are omitted."""
        counters: list[tuple] = []
        gauges: list[tuple] = []
        histograms: list[tuple] = []
        for metric in self.metrics():
            key = _labels_key(metric.labels)
            if isinstance(metric, Counter):
                diff = metric.value - metric._last
                if diff:
                    counters.append((metric.name, key, diff,
                                     metric.help, metric.unit))
                metric._last = metric.value
            elif isinstance(metric, Histogram):
                if metric.count != metric._last_count:
                    counts = [c - l for c, l in
                              zip(metric.counts, metric._last_counts)]
                    histograms.append((metric.name, key, metric.edges,
                                       counts, metric.sum - metric._last_sum,
                                       metric.help, metric.unit))
                    metric._last_counts = list(metric.counts)
                    metric._last_sum = metric.sum
                    metric._last_count = metric.count
            elif metric.value != metric._last:
                # gauge: ship a level that moved.  Merge is last-writer-
                # wins, so silence must not be a write: a gauge only the
                # aggregator sets keeps its value.
                gauges.append((metric.name, key, metric.value,
                               metric.help, metric.unit))
                metric._last = metric.value
        return {"counters": counters, "gauges": gauges,
                "histograms": histograms}

    def merge_delta(self, delta: dict) -> None:
        """Fold a ``collect_delta`` payload (from a worker process) in.

        A delta key the receiving registry has never seen — a worker that
        registered a metric the aggregator did not pre-build — is
        auto-registered and folded like any other, and the event is
        counted in ``repro_obs_merge_unknown_total`` so a schema skew
        between fleet members is visible instead of silently mis-merged.
        """
        for name, labels, diff, help, unit in delta.get("counters", ()):
            self._note_unknown(name, labels)
            self.counter(name, labels=dict(labels), help=help,
                         unit=unit).inc(diff)
        for name, labels, value, help, unit in delta.get("gauges", ()):
            self._note_unknown(name, labels)
            self.gauge(name, labels=dict(labels), help=help,
                       unit=unit).set(value)
        for entry in delta.get("histograms", ()):
            name, labels, edges, counts, sum_diff, help, unit = entry
            self._note_unknown(name, labels)
            hist = self.histogram(name, labels=dict(labels), help=help,
                                  unit=unit, buckets=tuple(edges))
            if hist.edges != tuple(edges):
                raise ValueError(f"histogram {name!r} bucket edges differ")
            for i, c in enumerate(counts):
                hist.counts[i] += c
            hist.sum += sum_diff
            hist.count += sum(counts)

    def _note_unknown(self, name: str, labels) -> None:
        """Count a delta key that the receiver had not registered."""
        if (name, tuple(labels)) in self._metrics:
            return
        self.counter(
            "repro_obs_merge_unknown_total",
            help="Delta keys merged that the receiving registry had not "
                 "registered (auto-registered on arrival).",
            unit="metrics").inc()


def _format_labels(labels: dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{k}="{v}"' for k, v in sorted(labels.items()))
    return "{" + inner + "}"
