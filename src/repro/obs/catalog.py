"""The series catalog: every ``repro_*`` metric, declared once.

One row per name — kind, unit, help, and the values each label takes.
Everything else is derived: a :class:`~repro.obs.MetricsRegistry` is
populated from these rows at construction (so every engine, worker and
aggregator exports the same schema), components name a series and the
registry refuses a ``repro_*`` name without a row, a worker delta
carries no text because the receiver has it here, and the tables of
docs/observability.md are diffed against the rows by
``tools/check_docs.py``.  A new series is a new row.
"""

from __future__ import annotations

from itertools import product
from typing import NamedTuple

__all__ = ["ANALYZE_STAGE", "CATALOG", "PIPELINE_STAGES", "Series"]

#: The six pipeline stages, in data-flow order.
PIPELINE_STAGES: tuple[str, ...] = (
    "classify", "reassemble", "extract", "disassemble", "lift", "match")

#: Aggregate over disassemble+lift+match (one ``analyze_frame`` call);
#: kept distinct so per-frame totals remain comparable with pre-obs runs.
ANALYZE_STAGE = "analyze"


class Series(NamedTuple):
    name: str
    kind: str  # "counter" | "gauge" | "histogram"
    unit: str
    help: str
    #: label key -> every value it takes (shared default: never written)
    labels: dict[str, tuple[str, ...]] = {}

    def label_sets(self) -> list[dict[str, str]]:
        """One labels dict per series this row stands for."""
        return [dict(zip(self.labels, values))
                for values in product(*self.labels.values())]


_STAGE = {"stage": PIPELINE_STAGES + (ANALYZE_STAGE,)}

#: (name, kind, unit, help[, labels]), in documentation order.
_ROWS = (
    # -- pipeline totals (repro.nids.stats.NidsStats) --
    ("repro_packets_total", "counter", "packets",
     "Packets fed to the sensor."),
    ("repro_payload_bytes_total", "counter", "bytes",
     "Transport payload bytes fed to the sensor."),
    ("repro_payloads_analyzed_total", "counter", "payloads",
     "Payloads that reached extraction (stage b)."),
    ("repro_frames_extracted_total", "counter", "frames",
     "Binary frames emitted by extraction."),
    ("repro_frames_analyzed_total", "counter", "frames",
     "Frames that went through semantic analysis."),
    ("repro_alerts_total", "counter", "alerts", "Alerts raised."),
    ("repro_frame_cache_hits_total", "counter", "frames",
     "Frame-cache hits (every frame of a payload-memo hit included)."),
    ("repro_frame_cache_misses_total", "counter", "frames",
     "Frame-cache misses."),
    ("repro_payload_memo_hits_total", "counter", "payloads",
     "Payloads answered from the payload memo (no stage ran)."),
    ("repro_payload_memo_misses_total", "counter", "payloads",
     "Payloads the payload memo did not hold."),
    ("repro_payloads_offloaded_total", "counter", "payloads",
     "Payloads shipped to worker processes."),
    ("repro_worker_failures_total", "counter", "failures",
     "Worker failures survived by degrading to the serial path."),
    ("repro_frontend_state_evicted_total", "counter", "streams",
     "Per-stream analysis states dropped with their stream."),
    ("repro_template_reloads_total", "counter", "reloads",
     "Hot template-library reloads applied (digest changed)."),
    # -- the stages (repro.obs.stage.StageTimer) --
    ("repro_stage_calls_total", "counter", "calls",
     "Stage invocations.", _STAGE),
    ("repro_stage_seconds_total", "counter", "seconds",
     "Wall time spent inside the stage.", _STAGE),
    ("repro_stage_bytes_total", "counter", "bytes",
     "Payload bytes processed by the stage.", _STAGE),
    ("repro_stage_latency_seconds", "histogram", "seconds",
     "Per-invocation stage latency.", _STAGE),
    # -- traffic classifier (repro.classify.classifier) --
    ("repro_classify_packets_total", "counter", "packets",
     "Packets inspected by the classifier."),
    ("repro_classify_forwarded_total", "counter", "packets",
     "Packets forwarded to the analysis stages."),
    ("repro_classify_honeypot_marks_total", "counter", "hosts",
     "Senders first marked suspicious by honeypot contact."),
    ("repro_classify_darkspace_marks_total", "counter", "hosts",
     "Senders first marked suspicious by dark-space scanning."),
    ("repro_classify_fanout_marks_total", "counter", "hosts",
     "Senders first marked suspicious by SMTP fan-out."),
    # -- IP defragmentation (repro.net.defrag) --
    ("repro_defrag_fragments_total", "counter", "fragments",
     "IP fragments fed to the defragmenter."),
    ("repro_defrag_fragments_dropped_total", "counter", "fragments",
     "Fragments dropped as forged or contributing nothing."),
    ("repro_defrag_overlap_bytes_trimmed_total", "counter", "bytes",
     "Bytes removed by first-writer-wins fragment trims."),
    ("repro_defrag_datagrams_reassembled_total", "counter", "datagrams",
     "Datagrams successfully reassembled."),
    ("repro_defrag_datagrams_evicted_total", "counter", "datagrams",
     "Half-reassembled datagrams evicted (caps/timeout)."),
    ("repro_defrag_buffered_bytes", "gauge", "bytes",
     "Bytes buffered across half-reassembled datagrams, per-piece charge "
     "included."),
    # -- TCP stream reassembly (repro.net.flow) --
    ("repro_reassembly_non_tcp_packets_total", "counter", "packets",
     "Packets seen by the reassembler without a TCP flow."),
    ("repro_reassembly_streams_evicted_total", "counter", "streams",
     "TCP streams evicted under the stream/byte caps."),
    ("repro_reassembly_streams_reaped_total", "counter", "streams",
     "TCP streams let go at end of life: closed, whole and analysed, or idle "
     "past Stream.IDLE_TIMEOUT.", {"reason": ("closed", "idle")}),
    ("repro_reassembly_segments_after_close_total", "counter", "segments",
     "Payload segments that found their flow already reaped; each opens a new "
     "stream and is analysed."),
    ("repro_reassembly_overlap_bytes_trimmed_total", "counter", "bytes",
     "Bytes dropped by first-writer-wins segment trims."),
    ("repro_reassembly_out_of_window_segments_total", "counter", "segments",
     "Segments dropped for lying outside what their stream can still place "
     "(beyond the per-stream cap, or before a base that can no longer move)."),
    ("repro_reassembly_buffered_bytes", "gauge", "bytes",
     "Bytes held across all tracked streams, per-piece charge included (falls "
     "when an analysed prefix is released)."),
    ("repro_reassembly_active_streams", "gauge", "streams",
     "Live TCP streams: open, or closed with data still missing or "
     "unanalysed."),
    # -- binary extraction (repro.extract.frames) --
    ("repro_extract_payloads_total", "counter", "payloads",
     "Application payloads scanned for binary content."),
    ("repro_extract_frames_total", "counter", "frames",
     "Binary frames emitted to the disassembler."),
    ("repro_extract_bytes_in_total", "counter", "bytes",
     "Payload bytes entering extraction."),
    ("repro_extract_bytes_out_total", "counter", "bytes",
     "Frame bytes surviving extraction (the reduction is the efficiency story "
     "of §4.2)."),
    # -- semantic analysis (repro.core.analyzer, repro.fastpath) --
    ("repro_deadline_exceeded_total", "counter", "payloads",
     "Payload analyses aborted by the per-payload deadline."),
    ("repro_fastpath_frames_skipped_total", "counter", "frames",
     "Frames the anchor prefilter ruled out for every template (no "
     "disassembly performed)."),
    ("repro_fastpath_anchor_hits_total", "counter", "occurrences",
     "Anchor pattern occurrences found by prefilter scans."),
    ("repro_fastpath_candidate_starts_pruned_total", "counter", "positions",
     "Match start positions skipped via anchor offsets (ruled-out templates "
     "count their whole trace)."),
    ("repro_match_budget_trips_total", "counter", "searches",
     "Per-(template, frame) searches cut short by the max_candidates "
     "backtracking budget."),
    ("repro_match_plan_compile_seconds", "counter", "seconds",
     "Cumulative time spent compiling templates into match plans."),
    # -- fault containment & self-healing (repro.resilience, parallel) --
    ("repro_stage_faults_total", "counter", "faults",
     "Exceptions contained by the stage firewall.",
     {"stage": ("decode", "classify", "reassemble", "extract", "analyze",
                "deliver")}),
    ("repro_quarantined_total", "counter", "inputs",
     "Offending inputs written to the quarantine capture."),
    ("repro_quarantine_write_errors_total", "counter", "errors",
     "Quarantine capture/metadata writes that failed and were absorbed "
     "(ENOSPC, I/O errors)."),
    ("repro_pcap_truncated_total", "counter", "captures",
     "Captures that ended mid-record (salvaged or raised)."),
    ("repro_breaker_opened_total", "counter", "transitions",
     "Shard breakers tripped open (incl. failed probes reopening)."),
    ("repro_breaker_half_open_total", "counter", "transitions",
     "Shard breakers entering half-open to probe a rebuilt pool."),
    ("repro_breaker_closed_total", "counter", "transitions",
     "Shard breakers re-closed by a successful result."),
    ("repro_breaker_open_shards", "gauge", "shards",
     "Shards currently open or half-open (not taking full load)."),
    ("repro_pool_rebuilds_total", "counter", "pools",
     "Broken worker pools torn down and respawned."),
    ("repro_worker_retries_total", "counter", "payloads",
     "In-flight payloads retried on a rebuilt pool."),
    ("repro_serial_fallback_payloads_total", "counter", "payloads",
     "Payloads analyzed in-process because a shard was unavailable."),
    # -- the daemon loop and its ring (repro.nids.daemon, shedder) --
    ("repro_daemon_ingested_total", "counter", "packets",
     "Packets pulled from the capture source."),
    ("repro_daemon_processed_total", "counter", "packets",
     "Packets taken off the ring and fed to the pipeline."),
    ("repro_daemon_packet_seconds", "histogram", "seconds",
     "Per-packet pipeline latency (ring take to alerts out)."),
    ("repro_process_peak_rss_bytes", "gauge", "bytes",
     "Peak resident set of the sensor process (VmHWM)."),
    ("repro_shed_packets_total", "counter", "packets",
     "Packets shed by the admission ring (never silent).",
     {"policy": ("newest", "oldest", "block")}),
    ("repro_ring_accepted_total", "counter", "packets",
     "Packets admitted into the ingestion ring."),
    ("repro_backpressure_waits_total", "counter", "refusals",
     "Ring-full refusals under the 'block' policy (the source was paused "
     "instead of packets shed)."),
    ("repro_ring_occupancy", "gauge", "packets",
     "Packets currently queued in the ingestion ring."),
    ("repro_ring_high_watermark", "gauge", "packets",
     "Peak ring occupancy observed."),
    # -- crash safety & delivery (repro.resilience) --
    ("repro_checkpoint_write_seconds", "histogram", "seconds",
     "Wall seconds per atomic checkpoint write (serialize+fsync+rename)."),
    ("repro_journal_fsync_total", "counter", "calls",
     "fsync calls issued by the write-ahead alert journal."),
    ("repro_alerts_replayed_total", "counter", "alerts",
     "Journaled alerts re-offered to the sink after a restart."),
    ("repro_alerts_deduped_total", "counter", "alerts",
     "Duplicate alerts suppressed by delivery-side replay dedupe."),
    ("repro_delivery_retries_total", "counter", "alerts",
     "alert sink delivery attempts beyond the first"),
    ("repro_delivery_spooled_total", "counter", "alerts",
     "alerts parked in the disk spool after exhausting retries"),
    ("repro_delivery_spool_errors_total", "counter", "alerts",
     "spool writes refused (ENOSPC, I/O error, or spool cap)"),
    # -- the fleet (repro.nids.fleet) --
    ("repro_fleet_dispatched_total", "counter", "packets",
     "Packets dispatched to fleet workers."),
    ("repro_fleet_batches_total", "counter", "batches",
     "Dispatch batches shipped to fleet workers."),
    ("repro_fleet_ship_bytes_total", "counter", "bytes",
     "Payload bytes serialized into the dispatcher→worker transport (pickle "
     "triples; offset extents count only their 24-byte descriptors)."),
    ("repro_fleet_ship_seconds", "histogram", "seconds",
     "Dispatcher wall seconds per fleet batch shipped (serialize + submit)."),
    ("repro_watchdog_restarts_total", "counter", "restarts",
     "Fleet shards killed and respawned by the dispatcher watchdog after a "
     "missed heartbeat."),
    ("repro_fleet_shard_lost_packets_total", "counter", "packets",
     "Packets dispatched to a shard since the last barrier whose worker died "
     "with no replay log to re-feed them from."),
    ("repro_obs_merge_unknown_total", "counter", "metrics",
     "Delta series merged that the catalog does not hold (folded all the "
     "same): a version-skewed worker."),
)

CATALOG: dict[str, Series] = {row[0]: Series(*row) for row in _ROWS}
