"""repro.obs — zero-dependency observability for the pipeline.

Four pieces:

- :mod:`repro.obs.catalog` — every ``repro_*`` series, declared once:
  kind, unit, help and label values (docs/observability.md is checked
  against it);
- :mod:`repro.obs.registry` — counters, gauges, histograms; JSON and
  Prometheus export; picklable deltas for the parallel engine's workers;
- :mod:`repro.obs.tracer` — opt-in per-stage spans (in-memory or JSONL);
- :mod:`repro.obs.stage` — :class:`StageTimer`, the per-stage timing
  view every component shares.

See docs/observability.md for the full metric catalog.
"""

from .catalog import ANALYZE_STAGE, CATALOG, PIPELINE_STAGES
from .registry import (
    LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricField,
    MetricsRegistry,
    bind_metrics,
)
from .stage import StageTimer
from .tracer import NullTracer, Span, Tracer, aggregate_spans, read_spans
from .window import (
    MetricsWindow,
    PeriodicSchedule,
    WindowSnapshot,
    quantile_from_buckets,
)

__all__ = [
    "ANALYZE_STAGE",
    "CATALOG",
    "LATENCY_BUCKETS",
    "PIPELINE_STAGES",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricField",
    "MetricsRegistry",
    "MetricsWindow",
    "NullTracer",
    "PeriodicSchedule",
    "Span",
    "StageTimer",
    "Tracer",
    "WindowSnapshot",
    "aggregate_spans",
    "bind_metrics",
    "quantile_from_buckets",
    "read_spans",
]
