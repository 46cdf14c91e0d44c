"""Bounded ingestion with capacity-aware, always-counted load shedding.

A sensor that silently drops packets under load is worse than one that
drops none slowly: the operator believes the link is clean when the
sensor simply never looked.  :class:`BoundedRing` is the admission
buffer between a capture source and the analysis pipeline — a fixed-
capacity ring whose overflow behaviour is an explicit, *counted* policy,
never an accident:

- ``"newest"`` — a full ring sheds the arriving packet (tail drop);
- ``"oldest"`` — a full ring evicts its oldest queued packet to admit
  the new one (the freshest traffic is the most actionable);
- ``"block"`` — nothing is shed; :meth:`offer` refuses the packet and
  the caller applies backpressure to the source (counted as a
  backpressure wait, not a shed).

Every shed increments ``repro_shed_packets_total`` (labelled by policy),
so the accounting invariant the soak harness asserts —
``ingested == processed + shed + queued`` — holds by construction.
This interplays with the rest of the resilience layer: shedding bounds
*queueing* delay the same way analysis deadlines bound *per-payload*
work and breakers bound *worker* failures; all three are loud.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Iterable

from ..obs import MetricsRegistry

__all__ = ["BoundedRing", "SHED_POLICIES"]

SHED_POLICIES = ("newest", "oldest", "block")


class BoundedRing:
    """Fixed-capacity admission ring between ingestion and analysis.

    Thread-safe (one lock around the deque) so a later threaded ingest
    loop can share it with the processing loop; in the cooperative
    daemon both run on one thread and the lock is uncontended.
    """

    def __init__(self, capacity: int, *, policy: str = "newest",
                 registry: MetricsRegistry | None = None) -> None:
        if capacity <= 0:
            raise ValueError("ring capacity must be positive")
        if policy not in SHED_POLICIES:
            raise ValueError(
                f"unknown shed policy {policy!r}; expected one of "
                f"{SHED_POLICIES}")
        self.capacity = capacity
        self.policy = policy
        self._items: deque = deque()
        self._lock = threading.Lock()
        registry = registry if registry is not None else MetricsRegistry()
        self._shed = registry.counter("repro_shed_packets_total",
                                      {"policy": policy})
        self._accepted = registry.counter("repro_ring_accepted_total")
        self._backpressure = registry.counter(
            "repro_backpressure_waits_total")
        self._occupancy = registry.gauge("repro_ring_occupancy")
        self._high_watermark = registry.gauge("repro_ring_high_watermark")

    # -- producer side -------------------------------------------------------

    def offer(self, item) -> bool:
        """Admit one item; ``False`` means it was NOT queued — shed
        (counted) under a drop policy, refused (backpressure, counted)
        under ``"block"``.  Under ``"oldest"`` the *arriving* item is
        always admitted and the return value stays ``True``; the evicted
        victim is what got shed."""
        with self._lock:
            if len(self._items) >= self.capacity:
                if self.policy == "block":
                    self._backpressure.inc()
                    return False
                if self.policy == "newest":
                    self._shed.inc()
                    return False
                # "oldest": evict the stalest queued item, admit the new.
                self._items.popleft()
                self._shed.inc()
            self._items.append(item)
            n = len(self._items)
            self._accepted.inc()
            self._occupancy.value = n
            if n > self._high_watermark.value:
                self._high_watermark.value = n
            return True

    def offer_all(self, items: Iterable) -> int:
        """Offer each item; returns how many were admitted."""
        return sum(1 for item in items if self.offer(item))

    # -- consumer side -------------------------------------------------------

    def take(self):
        """Oldest queued item, or ``None`` when the ring is empty."""
        with self._lock:
            if not self._items:
                return None
            item = self._items.popleft()
            self._occupancy.value = len(self._items)
            return item

    def peek(self):
        """Oldest queued item without consuming it (``None`` if empty).
        The daemon's checkpointer uses this to find the resume cursor —
        the capture offset of the oldest not-yet-processed packet."""
        with self._lock:
            return self._items[0] if self._items else None

    def restore_counters(self, *, shed: int = 0, accepted: int = 0,
                         backpressure: int = 0) -> None:
        """Re-apply pre-crash counter values on a resumed daemon, so the
        ``ingested == processed + shed + queued`` identity spans the
        restart boundary.  Counters are monotonic — this must run once,
        on a freshly built ring."""
        if self.shed_total or self.accepted_total or self.backpressure_total:
            raise RuntimeError("restore_counters on a ring already in use")
        self._shed.inc(shed)
        self._accepted.inc(accepted)
        self._backpressure.inc(backpressure)

    def __len__(self) -> int:
        return len(self._items)

    @property
    def shed_total(self) -> int:
        return self._shed.value

    @property
    def accepted_total(self) -> int:
        return self._accepted.value

    @property
    def backpressure_total(self) -> int:
        return self._backpressure.value

    @property
    def full(self) -> bool:
        return len(self._items) >= self.capacity
