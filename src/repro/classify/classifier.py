"""The combined traffic classifier (stage (a) of Figure 3).

Routes packets to the expensive analysis stages only when their sender is
suspicious: it contacted a honeypot, or it crossed the dark-space scan
threshold.  With ``enabled=False`` the classifier reproduces the §5.4
configuration: every packet payload is analyzed.
"""

from __future__ import annotations

from ..net.inet import int_to_ip, ip_to_int
from ..net.packet import Packet
from ..obs import MetricField, MetricsRegistry, StageTimer, Tracer, bind_metrics
from .darkspace import DarkSpaceMonitor
from .fanout import SmtpFanoutMonitor
from .honeypot import HoneypotRegistry

__all__ = ["TrafficClassifier", "ClassifierStats"]


class ClassifierStats:
    """Counters for the efficiency story: how much traffic the classifier
    kept away from the CPU-intensive stages (registry-backed views)."""

    packets_seen = MetricField("repro_classify_packets_total")
    packets_forwarded = MetricField("repro_classify_forwarded_total")
    honeypot_marks = MetricField("repro_classify_honeypot_marks_total")
    darkspace_marks = MetricField("repro_classify_darkspace_marks_total")
    fanout_marks = MetricField("repro_classify_fanout_marks_total")

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        bind_metrics(self, registry)

    @property
    def forward_ratio(self) -> float:
        if self.packets_seen == 0:
            return 0.0
        return self.packets_forwarded / self.packets_seen


class TrafficClassifier:
    """Marks suspicious senders and answers "does this packet need
    analysis?" for every packet on the wire."""

    def __init__(
        self,
        honeypots: HoneypotRegistry | None = None,
        darkspace: DarkSpaceMonitor | None = None,
        fanout: SmtpFanoutMonitor | None = None,
        enabled: bool = True,
        registry: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        self.honeypots = honeypots or HoneypotRegistry()
        self.darkspace = darkspace or DarkSpaceMonitor()
        #: optional email-worm extension; None disables fan-out marking
        self.fanout = fanout
        self.enabled = enabled
        self.suspicious: set[int] = set()
        self.stats = ClassifierStats(registry)
        self.timer = StageTimer("classify", registry, tracer)

    def mark_suspicious(self, address: str | int) -> None:
        self.suspicious.add(ip_to_int(address))

    def is_suspicious(self, address: str | int) -> bool:
        return ip_to_int(address) in self.suspicious

    def classify(self, pkt: Packet) -> bool:
        """Feed a packet; returns True if it should be analyzed further."""
        with self.timer.timed(nbytes=len(pkt.payload)):
            return self._classify(pkt)

    def _classify(self, pkt: Packet) -> bool:
        self.stats.packets_seen += 1
        if not self.enabled:
            self.stats.packets_forwarded += 1
            return True
        if pkt.ip is None:
            return False
        src = ip_to_int(pkt.ip.src)
        if self.honeypots.observe(pkt):
            if src not in self.suspicious:
                self.stats.honeypot_marks += 1
            self.suspicious.add(src)
        if self.darkspace.observe(pkt):
            if src not in self.suspicious:
                self.stats.darkspace_marks += 1
            self.suspicious.add(src)
        if self.fanout is not None and self.fanout.observe(pkt):
            if src not in self.suspicious:
                self.stats.fanout_marks += 1
            self.suspicious.add(src)
        forward = src in self.suspicious
        if forward:
            self.stats.packets_forwarded += 1
        return forward

    def suspicious_hosts(self) -> list[str]:
        return sorted(int_to_ip(a) for a in self.suspicious)
