"""Stage timing: the bridge between components, metrics, and spans.

Every pipeline stage times itself through a :class:`StageTimer`.  The
timer owns no numbers — it is a *view* over the four ``{stage=...}``
series of the shared registry (``repro_stage_calls_total``,
``_seconds_total``, ``_bytes_total`` and the ``_latency_seconds``
histogram).  Two StageTimers built from the same registry and stage name therefore
*are* the same counters: the ``NidsStats.extraction`` view and the
extractor's own self-timing converge without any syncing, and a worker
process's stage metrics flow into the parent's timers through the
registry delta merge.  When a tracer is attached, every ``timed()``
block additionally emits a span — metrics and traces come from one
timing site.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter

from .registry import MetricsRegistry
from .tracer import NullTracer, Span, Tracer

__all__ = ["StageTimer"]


class StageTimer:
    """Times one pipeline stage against registry-backed metrics."""

    def __init__(self, name: str,
                 registry: MetricsRegistry | None = None,
                 tracer: Tracer | None = None) -> None:
        registry = registry if registry is not None else MetricsRegistry()
        labels = {"stage": name}
        self.name = name
        self.tracer = tracer if tracer is not None else NullTracer()
        self._calls = registry.counter("repro_stage_calls_total", labels)
        self._seconds = registry.counter("repro_stage_seconds_total", labels)
        self._bytes = registry.counter("repro_stage_bytes_total", labels)
        self._latency = registry.histogram("repro_stage_latency_seconds",
                                           labels)

    # -- the timing path -----------------------------------------------------

    def observe(self, duration: float, nbytes: int = 0) -> None:
        """Record one completed stage invocation."""
        self._calls.value += 1
        self._seconds.value += duration
        self._bytes.value += nbytes
        self._latency.observe(duration)

    @contextmanager
    def timed(self, nbytes: int = 0, **attrs):
        """Time a block: one metrics observation, plus a span when a
        tracer is attached."""
        start = perf_counter()
        try:
            yield
        finally:
            duration = perf_counter() - start
            self.observe(duration, nbytes)
            if self.tracer.enabled:
                self.tracer.emit(Span(stage=self.name, start=start,
                                      duration=duration, nbytes=nbytes,
                                      attrs=attrs))

    # -- value views ---------------------------------------------------------

    @property
    def calls(self) -> int:
        return self._calls.value

    @property
    def elapsed(self) -> float:
        return self._seconds.value

    @property
    def bytes(self) -> int:
        return self._bytes.value

    @property
    def mean(self) -> float:
        return self.elapsed / self.calls if self.calls else 0.0
