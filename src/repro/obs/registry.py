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
  ``(name, sorted labels)``, and a registry is born holding every series
  of :data:`~repro.obs.catalog.CATALOG`, so a snapshot's shape never
  depends on which engine, worker or aggregator produced it.  A
  ``repro_*`` identity without a catalog row is refused; any other name
  is an ad-hoc series, created where it is first asked for;
- **picklable deltas** — worker processes ship ``collect_delta()``
  output (plain ``(name, labels, value)`` tuples; the receiver's catalog
  has the rest) back with their results and the parent
  ``merge_delta()``s them, which is how worker-side stage timings land
  in the parent's registry.
"""

from __future__ import annotations

import json
from bisect import bisect_left

from .catalog import CATALOG

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

    def __init__(self, name: str, labels, help: str = "",
                 unit: str = "") -> None:
        self.name = name
        self.labels = dict(labels or ())  # from a dict or a labels key
        self.help = help
        self.unit = unit


class _Scalar(_Metric):
    __slots__ = ("value", "_last")

    def __init__(self, name, labels=None, help="", unit=""):
        super().__init__(name, labels, help, unit)
        self.value: int | float = 0
        self._last: int | float = 0


class Counter(_Scalar):
    """Monotonically increasing value."""

    kind = "counter"
    __slots__ = ()

    def inc(self, amount: int | float = 1) -> None:
        self.value += amount


class Gauge(_Scalar):
    """A value that goes up and down (buffered bytes, active streams)."""

    kind = "gauge"
    __slots__ = ()

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


_KINDS = {cls.kind: cls for cls in (Counter, Gauge, Histogram)}

#: every catalog series, flattened once: what a registry is born with.
_CATALOG_SERIES = tuple(
    (_KINDS[row.kind], row.name, _labels_key(labels), row.help, row.unit)
    for row in CATALOG.values() for labels in row.label_sets())


class MetricField:
    """Class-level descriptor binding an attribute to a catalog series.

    A component declares ``evicted = MetricField("repro_..._total")``
    and reads or ``+=``s the attribute exactly as a plain int, but the
    storage is the registry's series, so the same number surfaces in
    ``--metrics-out`` without any syncing.  Call :func:`bind_metrics` in
    ``__init__`` to materialize the instances.
    """

    def __init__(self, name: str,
                 labels: dict[str, str] | None = None) -> None:
        self.name = name
        self.labels = labels

    def create(self, registry: "MetricsRegistry"):
        factory = getattr(registry, CATALOG[self.name].kind)
        return factory(self.name, self.labels)

    def __get__(self, obj, objtype=None):
        if obj is None:
            return self
        return obj._obs_metrics[self].value

    def __set__(self, obj, value) -> None:
        obj._obs_metrics[self].value = value


def bind_metrics(obj, registry: "MetricsRegistry | None") -> "MetricsRegistry":
    """Materialize every :class:`MetricField` declared on ``type(obj)``
    into ``registry`` (a private registry is created when ``None``) and
    return the registry used."""
    registry = registry if registry is not None else MetricsRegistry()
    obj._obs_metrics = {
        field: field.create(registry)
        for klass in type(obj).__mro__ for field in vars(klass).values()
        if isinstance(field, MetricField)}
    return registry


class MetricsRegistry:
    """Holds every metric of one sensor; the export and merge point.

    Metric identity is ``(name, sorted(labels))``.  Every catalog series
    exists from construction, so asking for one returns the one instance
    (a :class:`~repro.obs.stage.StageTimer` view in ``NidsStats`` and the
    component that does the timing share one set of numbers); asking
    under the wrong kind raises, and so does a ``repro_*`` identity the
    catalog does not hold.
    """

    SNAPSHOT_SCHEMA = "repro.obs/v1"

    def __init__(self) -> None:
        self._kinds = {row.name: row.kind for row in CATALOG.values()}
        self._metrics: dict[tuple, _Metric] = {
            (name, key): cls(name, key, help, unit)
            for cls, name, key, help, unit in _CATALOG_SERIES}
        self._merge_unknown = self.counter("repro_obs_merge_unknown_total")

    # -- registration --------------------------------------------------------

    def _series(self, cls, name: str, key: tuple, *, admit: bool = False,
                **kwargs) -> _Metric:
        """The series of this identity and kind.  One the registry does
        not hold is created, bare — but in the ``repro_`` namespace only
        when the caller ``admit``s it (a worker's delta): there a
        catalog row is what makes a series."""
        if self._kinds.get(name, cls.kind) != cls.kind:
            raise ValueError(f"metric {name!r} is registered as "
                             f"{self._kinds[name]}, not {cls.kind}")
        metric = self._metrics.get((name, key))
        if metric is None:
            if name.startswith("repro_") and not admit:
                raise ValueError(
                    f"series {name!r} {dict(key)} has no row in "
                    "repro.obs.catalog; declare it there")
            self._kinds[name] = cls.kind
            metric = self._metrics[name, key] = cls(name, key, **kwargs)
        return metric

    def counter(self, name: str,
                labels: dict[str, str] | None = None) -> Counter:
        return self._series(Counter, name, _labels_key(labels))

    def gauge(self, name: str,
              labels: dict[str, str] | None = None) -> Gauge:
        return self._series(Gauge, name, _labels_key(labels))

    def histogram(self, name: str, labels: dict[str, str] | None = None,
                  buckets: tuple[float, ...] = LATENCY_BUCKETS) -> Histogram:
        return self._series(Histogram, name, _labels_key(labels),
                            buckets=buckets)

    # -- introspection -------------------------------------------------------

    def metrics(self) -> list[_Metric]:
        return [self._metrics[k] for k in sorted(self._metrics)]

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
        picklable data: ``(name, labels, value)`` per changed series (a
        histogram's value is its edges, bucket counts and sum).  Metrics
        with no change are omitted."""
        counters: list[tuple] = []
        gauges: list[tuple] = []
        histograms: list[tuple] = []
        for (name, key), metric in self._metrics.items():
            if isinstance(metric, Counter):
                diff = metric.value - metric._last
                if diff:
                    counters.append((name, key, diff))
                metric._last = metric.value
            elif isinstance(metric, Histogram):
                if metric.count != metric._last_count:
                    counts = [c - l for c, l in
                              zip(metric.counts, metric._last_counts)]
                    histograms.append((name, key, metric.edges, counts,
                                       metric.sum - metric._last_sum))
                    metric._last_counts = list(metric.counts)
                    metric._last_sum = metric.sum
                    metric._last_count = metric.count
            elif metric.value != metric._last:
                # gauge: ship a level that moved.  Merge is last-writer-
                # wins, so silence must not be a write: a gauge only the
                # aggregator sets keeps its value.
                gauges.append((name, key, metric.value))
                metric._last = metric.value
        return {"counters": counters, "gauges": gauges,
                "histograms": histograms}

    def merge_delta(self, delta: dict) -> None:
        """Fold a ``collect_delta`` payload (from a worker process) in.

        Help and unit are the receiver's own.  A delta series it does
        not hold — every registry holding the whole catalog, one that a
        version-skewed worker declared — is registered bare, folded like
        any other and counted in ``repro_obs_merge_unknown_total``, so
        the skew is visible instead of silently mis-merged.
        """
        for name, key, diff in delta.get("counters", ()):
            self._fold(Counter, name, key).inc(diff)
        for name, key, value in delta.get("gauges", ()):
            self._fold(Gauge, name, key).set(value)
        for name, key, edges, counts, sum_diff in delta.get("histograms", ()):
            hist = self._fold(Histogram, name, key, buckets=tuple(edges))
            if hist.edges != tuple(edges):
                raise ValueError(f"histogram {name!r} bucket edges differ")
            for i, c in enumerate(counts):
                hist.counts[i] += c
            hist.sum += sum_diff
            hist.count += sum(counts)

    def _fold(self, cls, name: str, key, **kwargs) -> _Metric:
        key = tuple(key)
        if (name, key) not in self._metrics:
            self._merge_unknown.inc()
        return self._series(cls, name, key, admit=True, **kwargs)


def _format_labels(labels: dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{k}="{v}"' for k, v in sorted(labels.items()))
    return "{" + inner + "}"
