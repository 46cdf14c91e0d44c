"""Stage firewall: per-stage fault containment for the pipeline.

Hostile input is the *normal* input of a NIDS, so a stage that throws on
a crafted packet must not take the sensor down with it — that would turn
any parser bug into a remotely triggerable blind spot (crash the sensor,
then attack).  The firewall is the one place every contained fault flows
through: it resolves which stage failed, counts it
(``repro_stage_faults_total{stage=...}``), and preserves the offending
input in the quarantine capture (``repro_quarantined_total``).

Every stage label is a value of the series' catalog row, so metric
schemas are identical whether or not anything ever faults.
"""

from __future__ import annotations

from ..errors import DeadlineExceeded, DecodeError
from ..obs import MetricsRegistry
from .quarantine import QuarantineWriter

__all__ = ["CONTAINED_STAGES", "DEADLINE_TEMPLATE", "DEGRADED_SEVERITY",
           "FAULT_TEMPLATE", "StageFirewall"]

#: Stages a fault can be contained at.  ``decode``/``classify``/
#: ``reassemble`` guard the per-packet front end, ``extract``/``analyze``
#: the per-payload back end, and ``deliver`` the operator's alert
#: callback (a buggy callback must not kill the tap).
CONTAINED_STAGES: tuple[str, ...] = (
    "decode", "classify", "reassemble", "extract", "analyze", "deliver")

#: Degraded-mode alert identities: containment is *visible*, never
#: silent.  A deadline trip gets its own template — it usually means the
#: payload was crafted to stall the detector, which is itself a signal.
DEADLINE_TEMPLATE = "resilience.deadline-exceeded"
FAULT_TEMPLATE = "resilience.stage-fault"
DEGRADED_SEVERITY = "degraded"


class StageFirewall:
    """Counts and quarantines contained stage faults."""

    def __init__(self, registry: MetricsRegistry | None = None,
                 quarantine: QuarantineWriter | None = None) -> None:
        registry = registry if registry is not None else MetricsRegistry()
        self.quarantine = quarantine
        if quarantine is not None:
            # Write failures surface on the engine's registry even when
            # the writer was constructed without one (the CLI path).
            quarantine.bind_registry(registry)
        self._fault_counters = {
            stage: registry.counter("repro_stage_faults_total",
                                    {"stage": stage})
            for stage in CONTAINED_STAGES
        }
        self._quarantined = registry.counter("repro_quarantined_total")

    @staticmethod
    def stage_for(site: str, exc: BaseException) -> str:
        """The stage a fault is attributed to.

        The call site knows where it caught the exception, but a
        :class:`~repro.errors.DecodeError` escaping e.g. the classifier
        is really a decode fault — attribute it there.
        """
        if isinstance(exc, DecodeError):
            return "decode"
        return site

    @staticmethod
    def template_for(exc: BaseException) -> str:
        """Degraded-alert template name for a contained exception."""
        if isinstance(exc, DeadlineExceeded):
            return DEADLINE_TEMPLATE
        return FAULT_TEMPLATE

    def contain_record(self, stage: str, reason: str, detail: str = "",
                       pkt=None, payload: bytes | None = None) -> str:
        """Record one contained fault, flattened to strings (``stage``
        from :meth:`stage_for`, ``reason`` from :meth:`template_for`) so
        a worker's fault crosses the pickle boundary unchanged."""
        # an unknown stage counts as "analyze": the schema stays fixed
        self._fault_counters.get(
            stage, self._fault_counters["analyze"]).inc()
        if self.quarantine is not None:
            before = self.quarantine.written
            self.quarantine.record(reason=reason, stage=stage, pkt=pkt,
                                   payload=payload, detail=detail)
            self._quarantined.inc(self.quarantine.written - before)
        return stage

    def faults_by_stage(self) -> dict[str, int]:
        """Non-zero contained-fault counts, for reports."""
        return {stage: counter.value
                for stage, counter in self._fault_counters.items()
                if counter.value}

    @property
    def total_faults(self) -> int:
        return sum(c.value for c in self._fault_counters.values())

    @property
    def quarantined(self) -> int:
        return self._quarantined.value
