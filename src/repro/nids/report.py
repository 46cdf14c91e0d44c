"""Alert reporting: the operator-facing summary of a sensor run.

Groups alerts by source, template, and severity; renders a plain-text
incident report (what a 2006 deployment would mail to the admin) and a
machine-readable dict for downstream tooling.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .alerts import Alert
from .pipeline import SemanticNids

__all__ = ["AlertReport", "build_report"]

_SEVERITY_ORDER = {"critical": 0, "high": 1, "medium": 2, "low": 3,
                   "degraded": 4}


@dataclass
class AlertReport:
    """A summarized sensor run."""

    total_alerts: int = 0
    by_template: dict[str, int] = field(default_factory=dict)
    by_severity: dict[str, int] = field(default_factory=dict)
    by_source: dict[str, list[Alert]] = field(default_factory=dict)
    first_alert: float | None = None
    last_alert: float | None = None
    blocked: list[str] = field(default_factory=list)
    pipeline_summary: str = ""
    frame_cache_hits: int = 0
    frame_cache_misses: int = 0
    worker_failures: int = 0
    #: fast-path admission (repro.fastpath): prefilter activity during the
    #: run; all zero with ``--no-fastpath``.
    fastpath_frames_skipped: int = 0
    fastpath_anchor_hits: int = 0
    fastpath_starts_pruned: int = 0
    #: reassembly front-end counters (evasion pressure absorbed during the
    #: run): see :class:`repro.nids.stats.NidsStats`.
    fragments_dropped: int = 0
    overlaps_trimmed: int = 0
    out_of_window_segments: int = 0
    datagrams_evicted: int = 0
    streams_evicted: int = 0
    state_evicted: int = 0
    #: stream lifecycle: streams reaped at end of life (closed or idle),
    #: and payload segments that arrived on a flow already reaped.
    streams_reaped: int = 0
    segments_after_close: int = 0
    #: fault containment (docs/robustness.md): stage faults the firewall
    #: absorbed, inputs quarantined, deadline trips, and the parallel
    #: engine's self-healing activity.
    stage_faults: dict[str, int] = field(default_factory=dict)
    quarantined: int = 0
    deadline_trips: int = 0
    pool_rebuilds: int = 0
    worker_retries: int = 0
    serial_fallback_payloads: int = 0
    breaker_trips: int = 0

    @property
    def frame_cache_hit_rate(self) -> float:
        total = self.frame_cache_hits + self.frame_cache_misses
        return self.frame_cache_hits / total if total else 0.0

    def to_dict(self) -> dict:
        """Machine-readable form (JSON-serializable)."""
        return {
            "total_alerts": self.total_alerts,
            "by_template": dict(self.by_template),
            "by_severity": dict(self.by_severity),
            "sources": {
                src: [
                    {"time": a.timestamp, "template": a.template,
                     "severity": a.severity, "destination": a.destination,
                     "origin": a.frame_origin}
                    for a in alerts
                ]
                for src, alerts in self.by_source.items()
            },
            "window": [self.first_alert, self.last_alert],
            "blocked": list(self.blocked),
            "frame_cache": {
                "hits": self.frame_cache_hits,
                "misses": self.frame_cache_misses,
                "hit_rate": self.frame_cache_hit_rate,
            },
            "worker_failures": self.worker_failures,
            "fastpath": {
                "frames_skipped": self.fastpath_frames_skipped,
                "anchor_hits": self.fastpath_anchor_hits,
                "starts_pruned": self.fastpath_starts_pruned,
            },
            "resilience": {
                "stage_faults": dict(self.stage_faults),
                "quarantined": self.quarantined,
                "deadline_trips": self.deadline_trips,
                "pool_rebuilds": self.pool_rebuilds,
                "worker_retries": self.worker_retries,
                "serial_fallback_payloads": self.serial_fallback_payloads,
                "breaker_trips": self.breaker_trips,
            },
            "frontend": {
                "fragments_dropped": self.fragments_dropped,
                "overlaps_trimmed": self.overlaps_trimmed,
                "out_of_window_segments": self.out_of_window_segments,
                "datagrams_evicted": self.datagrams_evicted,
                "streams_evicted": self.streams_evicted,
                "state_evicted": self.state_evicted,
                "streams_reaped": self.streams_reaped,
                "segments_after_close": self.segments_after_close,
            },
        }

    def render(self) -> str:
        """Plain-text incident report."""
        lines = ["SEMANTIC NIDS INCIDENT REPORT", "=" * 48]
        if self.total_alerts == 0:
            lines.append("no alerts.")
            if self.pipeline_summary:
                lines += ["", self.pipeline_summary]
            return "\n".join(lines)
        window = ""
        if self.first_alert is not None and self.last_alert is not None:
            window = f" over {self.last_alert - self.first_alert:.1f}s"
        lines.append(f"{self.total_alerts} alert(s) from "
                     f"{len(self.by_source)} source(s){window}")
        lines.append("")
        lines.append("by severity:")
        for severity in sorted(self.by_severity,
                               key=lambda s: _SEVERITY_ORDER.get(s, 9)):
            lines.append(f"  {severity:10s} {self.by_severity[severity]}")
        lines.append("by behaviour:")
        for template, count in sorted(self.by_template.items(),
                                      key=lambda kv: -kv[1]):
            lines.append(f"  {template:26s} {count}")
        lines.append("")
        lines.append("offending sources:")
        for source in sorted(self.by_source):
            alerts = self.by_source[source]
            templates = sorted({a.template for a in alerts})
            blocked = " [BLOCKED]" if source in self.blocked else ""
            lines.append(f"  {source}{blocked}")
            lines.append(f"    {len(alerts)} alert(s): {', '.join(templates)}")
            first = min(alerts, key=lambda a: a.timestamp)
            lines.append(f"    first seen t={first.timestamp:.3f} "
                         f"-> {first.destination} ({first.frame_origin})")
        if (self.fragments_dropped or self.overlaps_trimmed
                or self.out_of_window_segments
                or self.datagrams_evicted or self.streams_evicted
                or self.state_evicted or self.segments_after_close):
            lines.append("")
            lines.append("evasion pressure absorbed:")
            lines.append(f"  fragments dropped    {self.fragments_dropped}")
            lines.append(f"  overlap bytes trimmed {self.overlaps_trimmed}")
            lines.append("  out-of-window segments "
                         f"{self.out_of_window_segments}")
            lines.append("  segments after close  "
                         f"{self.segments_after_close}")
            lines.append(f"  evictions: datagrams={self.datagrams_evicted} "
                         f"streams={self.streams_evicted} "
                         f"state={self.state_evicted}")
        if (self.fastpath_frames_skipped or self.fastpath_anchor_hits
                or self.fastpath_starts_pruned):
            lines.append("")
            lines.append("fast-path admission:")
            lines.append(f"  frames skipped        {self.fastpath_frames_skipped}")
            lines.append(f"  anchor hits           {self.fastpath_anchor_hits}")
            lines.append(f"  match starts pruned   {self.fastpath_starts_pruned}")
        if (self.stage_faults or self.quarantined or self.deadline_trips
                or self.pool_rebuilds or self.breaker_trips):
            lines.append("")
            lines.append("faults contained:")
            for stage in sorted(self.stage_faults):
                lines.append(f"  {stage:10s} {self.stage_faults[stage]}")
            if self.quarantined:
                lines.append(f"  quarantined inputs    {self.quarantined}")
            if self.deadline_trips:
                lines.append(f"  deadline trips        {self.deadline_trips}")
            if self.pool_rebuilds or self.breaker_trips:
                lines.append(
                    f"  self-heal: pool_rebuilds={self.pool_rebuilds} "
                    f"retries={self.worker_retries} "
                    f"serial_fallback={self.serial_fallback_payloads} "
                    f"breaker_trips={self.breaker_trips}")
        if self.pipeline_summary:
            lines += ["", "pipeline:", self.pipeline_summary]
        return "\n".join(lines)


def _metric_value(nids: SemanticNids, name: str) -> int:
    metric = nids.registry.get(name)
    return int(metric.value) if metric is not None else 0


def build_report(nids: SemanticNids) -> AlertReport:
    """Summarize a sensor's accumulated alerts."""
    report = AlertReport(
        total_alerts=len(nids.alerts),
        by_template=nids.alerts_by_template(),
        blocked=nids.blocklist.addresses(),
        pipeline_summary=nids.stats.summary(),
        frame_cache_hits=nids.stats.frame_cache_hits,
        frame_cache_misses=nids.stats.frame_cache_misses,
        worker_failures=nids.stats.worker_failures,
        fastpath_frames_skipped=nids.stats.fastpath_frames_skipped,
        fastpath_anchor_hits=nids.stats.fastpath_anchor_hits,
        fastpath_starts_pruned=nids.stats.fastpath_starts_pruned,
        fragments_dropped=nids.stats.fragments_dropped,
        overlaps_trimmed=nids.stats.overlaps_trimmed,
        out_of_window_segments=nids.stats.out_of_window_segments,
        datagrams_evicted=nids.stats.datagrams_evicted,
        streams_evicted=nids.stats.streams_evicted,
        state_evicted=nids.stats.state_evicted,
        streams_reaped=(nids.reassembler.reaped_closed
                        + nids.reassembler.reaped_idle),
        segments_after_close=nids.reassembler.segments_after_close,
        stage_faults=nids.firewall.faults_by_stage(),
        quarantined=nids.firewall.quarantined,
        deadline_trips=_metric_value(nids, "repro_deadline_exceeded_total"),
        pool_rebuilds=nids.stats.pool_rebuilds,
        worker_retries=nids.stats.worker_retries,
        serial_fallback_payloads=nids.stats.serial_fallback_payloads,
        breaker_trips=nids.stats.breaker_opened,
    )
    for alert in nids.alerts:
        report.by_severity[alert.severity] = (
            report.by_severity.get(alert.severity, 0) + 1)
        report.by_source.setdefault(alert.source, []).append(alert)
        if report.first_alert is None or alert.timestamp < report.first_alert:
            report.first_alert = alert.timestamp
        if report.last_alert is None or alert.timestamp > report.last_alert:
            report.last_alert = alert.timestamp
    return report
