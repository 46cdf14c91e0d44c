"""Per-stage counters and timing for the NIDS pipeline.

The paper's efficiency claims (§5.1: 2.36-3.27 s per exploit, Netsky in
6.5 s vs 40 s for [5]) are about how much work each stage does.
:class:`NidsStats` owns no numbers — every attribute is a view over a
series of the pipeline's shared :class:`~repro.obs.MetricsRegistry`
(the thing ``--metrics-out`` exports), and the stage timers are views
over the same labeled stage metrics the components themselves time into.
"""

from __future__ import annotations

from ..obs import (
    ANALYZE_STAGE,
    MetricField,
    MetricsRegistry,
    NullTracer,
    StageTimer,
    Tracer,
    bind_metrics,
)

__all__ = ["StageTimer", "NidsStats"]


class NidsStats:
    """End-to-end pipeline statistics: a view over the metrics registry.

    Each attribute names its series (declared in
    :mod:`repro.obs.catalog`, documented in docs/observability.md):
    plain counters are :class:`MetricField` descriptors — reads and
    ``+=`` behave like ints — and the stage timers share the
    ``repro_stage_*{stage=...}`` metrics with the components doing the
    timing, so both always agree.
    """

    packets = MetricField("repro_packets_total")
    payload_bytes = MetricField("repro_payload_bytes_total")
    payloads_analyzed = MetricField("repro_payloads_analyzed_total")
    frames_extracted = MetricField("repro_frames_extracted_total")
    frames_analyzed = MetricField("repro_frames_analyzed_total")
    alerts = MetricField("repro_alerts_total")
    #: content-hash frame cache (repro.core.analyzer.FrameCache) outcomes;
    #: both stay 0 when the cache is disabled.
    frame_cache_hits = MetricField("repro_frame_cache_hits_total")
    frame_cache_misses = MetricField("repro_frame_cache_misses_total")
    #: the payload memo in front of stage (b) (SemanticNids._analyze_payload);
    #: both stay 0 when caching is disabled.
    payload_memo_hits = MetricField("repro_payload_memo_hits_total")
    payload_memo_misses = MetricField("repro_payload_memo_misses_total")
    #: fast-path admission (repro.fastpath): the analyzer's own counters;
    #: all zero with ``--no-fastpath``.
    fastpath_frames_skipped = MetricField(
        "repro_fastpath_frames_skipped_total")
    fastpath_anchor_hits = MetricField("repro_fastpath_anchor_hits_total")
    fastpath_starts_pruned = MetricField(
        "repro_fastpath_candidate_starts_pruned_total")
    #: parallel engine: payloads shipped to worker processes, and worker
    #: failures survived by falling back to the serial path.
    payloads_offloaded = MetricField("repro_payloads_offloaded_total")
    worker_failures = MetricField("repro_worker_failures_total")
    #: front-end (reassembly) aggregates: evasion pressure the sensor
    #: absorbed — the defragmenter's and the reassembler's own series.
    fragments_dropped = MetricField("repro_defrag_fragments_dropped_total")
    datagrams_evicted = MetricField("repro_defrag_datagrams_evicted_total")
    streams_evicted = MetricField("repro_reassembly_streams_evicted_total")
    out_of_window_segments = MetricField(
        "repro_reassembly_out_of_window_segments_total")
    _defrag_trimmed = MetricField("repro_defrag_overlap_bytes_trimmed_total")
    _reassembly_trimmed = MetricField(
        "repro_reassembly_overlap_bytes_trimmed_total")
    state_evicted = MetricField("repro_frontend_state_evicted_total")
    #: worker self-healing (parallel engine, docs/robustness.md): the
    #: per-shard circuit breakers, pool rebuilds, and the payloads that
    #: rode the serial path while a shard was cooling off.  All zero on a
    #: serial engine and on any clean parallel run.
    breaker_opened = MetricField("repro_breaker_opened_total")
    breaker_half_open = MetricField("repro_breaker_half_open_total")
    breaker_closed = MetricField("repro_breaker_closed_total")
    breaker_open_shards = MetricField("repro_breaker_open_shards")
    pool_rebuilds = MetricField("repro_pool_rebuilds_total")
    worker_retries = MetricField("repro_worker_retries_total")
    serial_fallback_payloads = MetricField(
        "repro_serial_fallback_payloads_total")
    #: the fleet dispatcher's, read off whichever engine a run used.
    watchdog_restarts = MetricField("repro_watchdog_restarts_total")

    def __init__(self, registry: MetricsRegistry | None = None,
                 tracer: Tracer | None = None) -> None:
        self.registry = bind_metrics(self, registry)
        tracer = tracer if tracer is not None else NullTracer()
        # The stage labels are the canonical pipeline stage names
        # (classify/reassemble/extract + the analyze aggregate over
        # disassemble/lift/match).
        self.classify = StageTimer("classify", self.registry, tracer)
        self.reassembly = StageTimer("reassemble", self.registry, tracer)
        self.extraction = StageTimer("extract", self.registry, tracer)
        self.analysis = StageTimer(ANALYZE_STAGE, self.registry, tracer)

    @property
    def overlaps_trimmed(self) -> int:
        """First-writer-wins trim volume, defragmenter + reassembler."""
        return self._defrag_trimmed + self._reassembly_trimmed

    @property
    def frame_cache_hit_rate(self) -> float:
        total = self.frame_cache_hits + self.frame_cache_misses
        return self.frame_cache_hits / total if total else 0.0

    def summary(self) -> str:
        lines = [
            f"packets={self.packets} payload_bytes={self.payload_bytes}",
            f"payloads_analyzed={self.payloads_analyzed} "
            f"frames={self.frames_extracted} analyzed={self.frames_analyzed} "
            f"alerts={self.alerts}",
        ]
        if self.frame_cache_hits or self.frame_cache_misses:
            lines.append(
                f"frame cache: hits={self.frame_cache_hits} "
                f"misses={self.frame_cache_misses} "
                f"hit_rate={self.frame_cache_hit_rate:.1%}"
            )
        if self.payload_memo_hits or self.payload_memo_misses:
            lines.append(
                f"payload memo: hits={self.payload_memo_hits} "
                f"misses={self.payload_memo_misses}"
            )
        if (self.fastpath_frames_skipped or self.fastpath_anchor_hits
                or self.fastpath_starts_pruned):
            lines.append(
                f"fastpath: frames_skipped={self.fastpath_frames_skipped} "
                f"anchor_hits={self.fastpath_anchor_hits} "
                f"starts_pruned={self.fastpath_starts_pruned}"
            )
        if self.payloads_offloaded or self.worker_failures:
            lines.append(
                f"workers: payloads_offloaded={self.payloads_offloaded} "
                f"failures={self.worker_failures}"
            )
        if (self.pool_rebuilds or self.worker_retries
                or self.serial_fallback_payloads or self.breaker_opened):
            lines.append(
                f"self-heal: pool_rebuilds={self.pool_rebuilds} "
                f"retries={self.worker_retries} "
                f"serial_fallback={self.serial_fallback_payloads} "
                f"breaker opened={self.breaker_opened} "
                f"half_open={self.breaker_half_open} "
                f"closed={self.breaker_closed}"
            )
        if (self.fragments_dropped or self.overlaps_trimmed
                or self.out_of_window_segments
                or self.datagrams_evicted or self.streams_evicted
                or self.state_evicted):
            lines.append(
                f"front-end: fragments_dropped={self.fragments_dropped} "
                f"overlaps_trimmed={self.overlaps_trimmed} "
                f"out_of_window_segments={self.out_of_window_segments} "
                f"datagrams_evicted={self.datagrams_evicted} "
                f"streams_evicted={self.streams_evicted} "
                f"state_evicted={self.state_evicted}"
            )
        for stage in (self.classify, self.reassembly, self.extraction, self.analysis):
            lines.append(
                f"  {stage.name:12s} calls={stage.calls:8d} "
                f"total={stage.elapsed:8.3f}s mean={stage.mean * 1e6:9.1f}us"
            )
        return "\n".join(lines)
