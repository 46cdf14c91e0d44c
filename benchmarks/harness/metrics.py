"""Metric vocabulary, percentile rule, spread summary and comparison rule.

The names here are the repo's performance vocabulary: ``BENCHMARK.json``
lists exactly :data:`GATED` and :data:`PER_LAYER`, and
test_harness.py checks the two against each other.
"""

from __future__ import annotations

import math
import statistics

__all__ = ["GATED", "DEMOTED", "END_TO_END", "PER_LAYER", "LAYERS", "STRATEGY_ROWS",
           "percentile", "supported", "latency_summary", "spread",
           "compare_metric", "unit_of"]

#: layer names, in data-flow order (kept in step with adapters._POINTS by
#: test_harness.py)
LAYERS = (
    "net.pcap", "net.packet", "net.defrag", "classify", "net.flow",
    "extract", "fastpath", "x86.disasm", "ir.lift", "core.matcher",
    "core.analyzer", "nids.pipeline", "nids.daemon", "resilience.journal",
    "resilience.delivery", "resilience.checkpoint", "nids.fleet",
)

STRATEGY_ROWS = ("parallel", "fleet-pickle", "fleet-shm", "daemon-plain")

#: (name, unit, better, bound): the end-to-end metrics the regression
#: driver gates, the ``end_to_end`` list of ``BENCHMARK.json``.  Defined
#: on all six workloads, never zero, and steady enough on the shared
#: reference host for two sets of runs of one commit to agree within
#: the bound (README, "Same-commit agreement").
GATED = (
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
)

#: End-to-end metrics that are not: throughput, because its run-to-run
#: spread on the reference host is wider than its bound, and the four
#: latencies, which exist only where the client can observe a packet's
#: return or an alert's arrival (README, "Demoted metrics").  They are
#: measured on untraced runs like the gated ones, but travel in the
#: ``per_layer`` list of ``BENCHMARK.json`` — 0 means "not defined on
#: this workload" — and are gated by ``--compare``, spread-aware, with
#: the bounds below.
DEMOTED = (
    ("pkts_per_s", "1/s", "higher", 0.10),
    ("pkt_latency_p50_us", "us", "lower", 0.10),
    ("pkt_latency_p99_us", "us", "lower", 0.15),
    ("alert_latency_p50_ms", "ms", "lower", 0.15),
    ("alert_latency_p95_ms", "ms", "lower", 0.15),
)

#: Everything the full run reports per repetition and ``--compare`` judges.
END_TO_END = GATED + DEMOTED

_EXTRAS = (
    ("net.pcap.bytes", "bytes", "lower"),
    ("net.defrag.fragments_in", "count", "lower"),
    ("net.defrag.datagrams_out", "count", "lower"),
    ("classify.forward_share", "share", "lower"),
    ("net.flow.materialize_s", "s", "lower"),
    ("net.flow.bytes_materialized", "bytes", "lower"),
    ("net.flow.overlap_bytes_trimmed", "bytes", "lower"),
    ("extract.bytes_in", "bytes", "lower"),
    ("extract.frames_out", "count", "lower"),
    ("fastpath.skip_share", "share", "higher"),
    ("fastpath.starts_pruned", "count", "higher"),
    ("x86.disasm.instructions", "count", "lower"),
    ("ir.lift.instructions", "count", "lower"),
    ("core.matcher.template_frame_pairs", "count", "lower"),
    ("core.matcher.budget_trips", "count", "lower"),
    ("core.matcher.match_share", "share", "higher"),
    ("core.analyzer.frame_cache_hit_share", "share", "higher"),
    ("core.analyzer.ir_cache_hit_share", "share", "higher"),
    ("nids.pipeline.payloads_analyzed", "count", "lower"),
    ("nids.pipeline.reanalysis_bytes_share", "share", "lower"),
    ("nids.daemon.ring_wait_p50_us", "us", "lower"),
    ("nids.daemon.ring_wait_p99_us", "us", "lower"),
    ("nids.daemon.shed", "count", "lower"),
    ("nids.daemon.backpressure_waits", "count", "lower"),
    ("resilience.journal.fsyncs", "count", "lower"),
    ("resilience.journal.bytes", "bytes", "lower"),
    ("resilience.delivery.retries", "count", "lower"),
    ("resilience.checkpoint.bytes", "bytes", "lower"),
    ("nids.fleet.feed_cpu_s", "s", "lower"),
    ("nids.fleet.feed_wall_s", "s", "lower"),
    ("nids.fleet.drain_wait_s", "s", "lower"),
    ("nids.fleet.batches", "count", "lower"),
    ("nids.fleet.ship_bytes", "bytes", "lower"),
    ("nids.fleet.ring_full", "count", "lower"),
    ("nids.fleet.shard_skew", "ratio", "lower"),
    ("nids.fleet.worker_busy_share", "share", "higher"),
    ("nids.fleet.speedup_vs_serial", "ratio", "higher"),
)

#: (name, unit, better) for every row of the per-layer table.
PER_LAYER = tuple(
    [row for layer in LAYERS
     for row in ((f"{layer}.calls", "count", "lower"),
                 (f"{layer}.self_s", "s", "lower"))]
    + list(_EXTRAS)
    + [(f"strategy.{name}.pkts_per_s", "1/s", "higher")
       for name in STRATEGY_ROWS]
    + [("unattributed_s", "s", "lower"),
       ("obs.trace_overhead_share", "share", "lower")]
    + [(name, unit, better) for name, unit, better, _bound in DEMOTED]
)

_UNITS = {name: unit for name, unit, *_ in GATED + PER_LAYER}


def unit_of(name: str) -> str:
    return _UNITS[name]


# -- percentiles --------------------------------------------------------------


def percentile(ordered: list[float], p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return ordered[max(1, math.ceil(len(ordered) * p / 100)) - 1]


def supported(n: int, p: float, beyond: int = 10) -> bool:
    """A percentile is reported only with at least ``beyond`` samples
    above it: p99 needs 1000 samples, p95 needs 200."""
    return n * (100 - p) >= beyond * 100


def latency_summary(samples: list[float], scale: float,
                    tail: float) -> tuple[float, float, int]:
    """``(p50, p<tail>, n)`` in ``scale`` units; a percentile the sample
    does not support reads 0."""
    ordered = sorted(samples)
    n = len(ordered)
    p50 = percentile(ordered, 50) * scale if supported(n, 50) else 0.0
    top = percentile(ordered, tail) * scale if supported(n, tail) else 0.0
    return p50, top, n


# -- spread and comparison ----------------------------------------------------


def spread(values: list[float]) -> dict:
    """Median, quartiles and count of one metric's repetitions."""
    if len(values) >= 2:
        q1, _q2, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def compare_metric(base: list[float], new: list[float], better: str,
                   bound: float) -> str:
    """Spread-aware verdict for one metric on one workload.

    ``ok`` when the new median is not worse than the base median by more
    than ``bound``; otherwise ``unresolved`` when the two quartile ranges
    overlap (the runs cannot tell the sides apart), else ``regressed``.
    """
    a, b = spread(base), spread(new)
    if a["median"] == 0:
        return "ok" if b["median"] == 0 else "unresolved"
    change = (b["median"] - a["median"]) / a["median"]
    worse = change if better == "lower" else -change
    if worse <= bound:
        return "ok"
    if a["q1"] <= b["q3"] and b["q1"] <= a["q3"]:
        return "unresolved"
    return "regressed"
