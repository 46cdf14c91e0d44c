"""Effectively-once alert delivery: retry, backoff, spool, dedupe.

``DurableDelivery`` sits between the daemon and the operator's alert
sink (``on_alert`` callback, socket writer, ...).  It provides:

- **Dedupe by alert key** — after a crash the daemon replays the
  journal *and* deterministically regenerates the in-flight window, so
  the same alert key can arrive twice; the first occurrence wins and
  duplicates are counted in ``repro_alerts_deduped_total``.
- **Retry with exponential backoff + seeded jitter**, bounded by both
  an attempt count and a wall-clock budget (``timeout``).
- **A bounded disk spool** for sink outages: alerts that exhaust their
  retries are framed to disk (re-using the journal wire format) and
  re-offered by :meth:`replay_spool`.  The spool is capped; overflow
  and ``ENOSPC`` are counted, never raised — the write-ahead journal
  remains the loss backstop.

Every delivery outcome is counted, so ``delivered + deduped + spooled +
failed == offered`` is checkable from metrics alone.
"""

from __future__ import annotations

import os
import random
import time
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterable

from repro.obs.registry import MetricsRegistry

from .journal import AlertJournal, record_to_alert

if TYPE_CHECKING:  # imported lazily at runtime: repro.nids imports us
    from repro.nids.alerts import Alert


class DurableDelivery:
    """Alert sink wrapper with dedupe, retries, and a disk spool."""

    def __init__(
        self,
        sink: Callable[[Any, Alert], None],
        *,
        registry: MetricsRegistry | None = None,
        max_attempts: int = 4,
        base_backoff: float = 0.05,
        max_backoff: float = 2.0,
        timeout: float = 5.0,
        jitter_seed: int = 0,
        spool_dir: str | os.PathLike[str] | None = None,
        spool_max_bytes: int = 1024 * 1024,
        sleep: Callable[[float], None] = time.sleep,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        self.sink = sink
        self.max_attempts = max_attempts
        self.base_backoff = base_backoff
        self.max_backoff = max_backoff
        self.timeout = timeout
        self.spool_max_bytes = spool_max_bytes
        self._sleep = sleep
        self._clock = clock
        self._rng = random.Random(jitter_seed)
        self._seen: set[Any] = set()
        self.delivered = 0
        self.failed = 0
        self._spool_dir = Path(spool_dir) if spool_dir is not None else None
        self._spool: AlertJournal | None = None
        registry = registry if registry is not None else MetricsRegistry()
        self._retries = registry.counter("repro_delivery_retries_total")
        self._spooled = registry.counter("repro_delivery_spooled_total")
        self._spool_errors = registry.counter(
            "repro_delivery_spool_errors_total")
        self._deduped = registry.counter("repro_alerts_deduped_total")
        self._replayed = registry.counter("repro_alerts_replayed_total")

    # -- dedupe bookkeeping -------------------------------------------

    def mark_seen(self, key: Any) -> None:
        """Record a key as already delivered (e.g. pre-crash journal tail)."""

        self._seen.add(key)

    def forget_below(self, watermark: Any) -> None:
        """Drop the dedupe keys below ``watermark``: for an owner whose
        keys rise and who knows none below it can be offered again (the
        daemon's checkpointed alert seq), so the set holds a checkpoint
        interval of keys, not one per alert ever delivered."""

        self._seen = {key for key in self._seen if key >= watermark}

    @property
    def seen(self) -> frozenset:
        return frozenset(self._seen)

    # -- delivery path ------------------------------------------------

    def deliver(self, key: Any, alert: Alert) -> str:
        """Offer one alert.  Returns the outcome:

        ``"delivered"`` | ``"duplicate"`` | ``"spooled"`` | ``"failed"``.
        """

        if key in self._seen:
            self._deduped.inc()
            return "duplicate"
        self._seen.add(key)
        if self._attempt_with_retries(key, alert):
            return "delivered"
        if self._spool_alert(key, alert):
            return "spooled"
        self.failed += 1
        return "failed"

    def replay(self, entries: Iterable[tuple[Any, dict[str, Any]]]) -> int:
        """Re-offer recovered journal entries; returns the count replayed."""

        count = 0
        for key, record in entries:
            count += 1
            self._replayed.inc()
            self.deliver(key, record_to_alert(record))
        return count

    def _attempt_with_retries(self, key: Any, alert: Alert) -> bool:
        started = self._clock()
        for attempt in range(self.max_attempts):
            try:
                self.sink(key, alert)
            except Exception:
                if attempt + 1 >= self.max_attempts:
                    return False
                if self._clock() - started >= self.timeout:
                    return False
                self._retries.inc()
                self._sleep(self._backoff(attempt))
            else:
                self.delivered += 1
                return True
        return False

    def _backoff(self, attempt: int) -> float:
        ceiling = min(self.max_backoff, self.base_backoff * (2**attempt))
        # Full jitter in [ceiling/2, ceiling]; seeded for reproducibility.
        return ceiling * (0.5 + self._rng.random() * 0.5)

    # -- spool --------------------------------------------------------

    def _open_spool(self) -> AlertJournal | None:
        if self._spool_dir is None:
            return None
        if self._spool is None:
            self._spool = AlertJournal(
                self._spool_dir,
                fsync_batch=1,
                segment_max_bytes=self.spool_max_bytes,
            )
        return self._spool

    def _spool_size(self) -> int:
        if self._spool_dir is None or not self._spool_dir.exists():
            return 0
        return sum(
            p.stat().st_size for p in self._spool_dir.iterdir() if p.is_file()
        )

    def _spool_alert(self, key: Any, alert: Alert) -> bool:
        spool = self._open_spool()
        if spool is None:
            return False
        try:
            if self._spool_size() >= self.spool_max_bytes:
                raise OSError("alert spool is at capacity")
            spool.append(key, alert)
        except OSError:
            self._spool_errors.inc()
            return False
        self._spooled.inc()
        return True

    def replay_spool(self) -> int:
        """Drain the spool back into the sink; failures are re-spooled.

        Returns the number of alerts delivered from the spool.
        """

        if self._spool_dir is None or not self._spool_dir.exists():
            return 0
        if self._spool is not None:
            self._spool.close()
            self._spool = None
        probe = AlertJournal(self._spool_dir, fsync_batch=1)
        recovery = probe.recover()
        probe.prune(keep_segments=0)
        probe.close()
        delivered = 0
        for key, record in recovery.entries:
            alert = record_to_alert(record)
            if self._attempt_with_retries(key, alert):
                self._seen.add(key)
                delivered += 1
            elif not self._spool_alert(key, alert):
                self.failed += 1
        return delivered

    def close(self) -> None:
        if self._spool is not None:
            self._spool.close()
            self._spool = None
