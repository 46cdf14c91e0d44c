"""Flow-sharded parallel analysis engine.

The expensive stages of the pipeline — binary extraction and semantic
analysis (disassemble → lift → propagate → match) — are per-payload pure
functions, so they parallelize cleanly.  :class:`ParallelSemanticNids`
keeps the stateful stages (defragmentation, classification, stream
reassembly, alert dedup, blocklist) in the parent process and ships each
payload that survives classification to one of N single-process worker
pools, selected by ``hash(FlowKey) % N``:

- **sticky sharding** — all payloads of one flow land on the same worker,
  preserving per-flow analysis order and letting each worker's
  content-hash frame cache (`repro.core.analyzer.FrameCache`) see a
  flow's repeated frames;
- **picklable work units** — workers receive raw payload ``bytes``, never
  live ``Stream``/``Template`` objects (templates hold lambdas and do not
  pickle; each worker builds its stages from the engine's
  :class:`~repro.nids.SensorOptions` record, template set by name);
- **deterministic merge** — results are drained in submission order, so
  the alert list, per-stream template dedup, and blocklist updates are
  byte-identical to a serial run over the same capture;
- **worker self-healing** — a dead worker (``BrokenProcessPool``) costs
  one failure on that shard's circuit breaker: the pool is rebuilt, the
  in-flight payload is retried once, and only ``breaker_threshold``
  *consecutive* failures open the breaker — after which the shard's
  payloads ride the in-process serial path while a capped exponential
  backoff elapses, then a single probe payload decides whether the shard
  re-closes.  Other shards never notice.  ``workers <= 1`` never spawns
  a pool.  No alert is ever lost: stranded payloads are re-analyzed
  in-process.

A worker runs the very function the serial engine runs in-process
(:func:`~repro.nids.pipeline.analyze_payload`) and the parent folds its
result through the very merge (:meth:`SemanticNids._merge`), so stage
faults contained in a worker come out as the same quarantine entry and
degraded alert, in the same frame order, as on the serial engine.

Alerts may surface a few packets later than in the serial engine (they
are returned once the worker's result is drained); ``flush()`` — called
automatically by ``process_trace`` — blocks until every pending payload
has been merged.
"""

from __future__ import annotations

import os
from collections import deque
from concurrent.futures import BrokenExecutor, CancelledError, Future
from dataclasses import dataclass, replace

from ..core.library import library_digest, resolve_template_set
from ..errors import FlowKeyError
from ..net.flow import FlowKey
from ..net.packet import Packet
from ..obs import MetricsRegistry
from ..resilience.breaker import CLOSED, HALF_OPEN, CircuitBreaker
from .alerts import Alert
from .options import SensorOptions
from .pipeline import (PayloadResult, SemanticNids, _StreamState,
                       analyze_payload, build_stages)

__all__ = ["ParallelSemanticNids"]


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------


_WORKER_STATE: dict = {}


def _init_worker(options: SensorOptions) -> None:
    """Per-process initializer: build the stateless stage objects once
    (not a whole :class:`SemanticNids`, whose idle reassembly gauges
    would ride every delta and overwrite the parent's)."""
    registry = MetricsRegistry()
    _WORKER_STATE["registry"] = registry
    _WORKER_STATE["stages"] = build_stages(options, registry=registry)


def _analyze_in_worker(payload: bytes) -> tuple[PayloadResult, dict]:
    """Stages (b)-(e) on one payload, plus the worker registry's
    picklable delta for it (stage timings, extraction counters — how
    worker-side stage time lands in ``--metrics-out``)."""
    extractor, analyzer, deadline_units = _WORKER_STATE["stages"]
    result = analyze_payload(extractor, analyzer, payload, deadline_units)
    # The pickle boundary: TemplateMatch objects hold template
    # predicates (lambdas) and stay in the worker.
    result = replace(result, entries=tuple(
        replace(entry, match=None) for entry in result.entries))
    return result, _WORKER_STATE["registry"].collect_delta()


# ---------------------------------------------------------------------------
# Parent side
# ---------------------------------------------------------------------------


@dataclass
class _Pending:
    """One in-flight payload awaiting its worker result."""

    future: Future  # of (PayloadResult, worker registry delta | None)
    payload: bytes
    packet: Packet
    state: _StreamState | None
    #: payload-memo key (``None``: caching is off, or a memo hit)
    key: bytes | None = None
    #: shard the payload was submitted to; -1 for one no stage work was
    #: spent on — a memo hit, or a ride on the future of an identical
    #: payload already in flight: it never touched a pool, so it never
    #: moves a breaker, and its frames count as cache hits
    shard: int = -1
    #: pool generation at submit time — a rebuild bumps the shard's
    #: generation, so the N futures stranded by ONE dead worker count as
    #: one breaker failure, not N
    gen: int = -1


class ParallelSemanticNids(SemanticNids):
    """:class:`SemanticNids` with extraction + analysis fanned out across
    worker processes, sharded by flow.

    Parameters (beyond :class:`SemanticNids`; the template set is the
    record's ``template_set`` — named, so workers can rebuild it):

    workers:
        Number of worker processes.  ``None`` = ``os.cpu_count()``;
        ``<= 1`` degrades to the fully serial path (no pools spawned).
    max_pending:
        Backpressure bound: once this many payloads are in flight, the
        oldest results are drained before new work is submitted.
    breaker_threshold:
        Consecutive pool failures on one shard before its breaker opens
        (per-shard breakers + pool rebuilds + retry-once, per the module
        docstring).
    breaker_backoff:
        Initial open-state backoff, in seconds (each re-open doubles the
        wait, up to the breaker's cap).  ``breaker_backoff=0`` probes
        immediately — what the deterministic chaos tests use.
    """

    def __init__(
        self,
        options: SensorOptions | None = None,
        *,
        workers: int | None = None,
        max_pending: int = 256,
        breaker_threshold: int = 3,
        breaker_backoff: float = 0.5,
        **kwargs,
    ) -> None:
        if "templates" in kwargs:
            raise ValueError(
                "ParallelSemanticNids takes template_set=<name>, not "
                "templates=: template objects cannot be shipped to workers")
        super().__init__(options, **kwargs)
        self.workers = workers if workers is not None else (os.cpu_count() or 1)
        self.max_pending = max_pending
        self._pending: deque[_Pending] = deque()
        self._pools: list = []
        #: memo key → future of the first, still-pending submission: the
        #: inherited payload memo answers once a result is in, and until
        #: then identical payloads ride that future instead of paying
        #: another worker round-trip.
        self._inflight: dict[bytes, Future] = {}
        self._breakers: list[CircuitBreaker] = []
        self._pool_gen: list[int] = []
        if self.workers > 1:
            self._pools = [self._spawn_pool() for _ in range(self.workers)]
            self._breakers = [
                CircuitBreaker(threshold=breaker_threshold,
                               backoff_base=breaker_backoff)
                for _ in range(self.workers)]
            self._pool_gen = [0] * self.workers

    @property
    def template_set(self) -> str:
        return self.options.template_set

    # -- lifecycle ----------------------------------------------------------

    def __enter__(self) -> "ParallelSemanticNids":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _spawn_pool(self):
        """One single-process worker pool running the current template
        set (first spawn, rebuild after a worker death, hot reload).  The
        one place this engine creates a process, so the one place that
        loads the process-pool stack."""
        from concurrent.futures import ProcessPoolExecutor

        return ProcessPoolExecutor(max_workers=1, initializer=_init_worker,
                                   initargs=(self.options,))

    def drain(self) -> list[Alert]:
        """Block until every payload in flight to a worker is merged.
        The inherited snapshot marks such payloads as analyzed
        (``analyzed_len`` already covers them), so it is complete only
        after this."""
        return self._drain(blocking=True)

    def flush(self) -> list[Alert]:
        """Finalize unexamined stream tails, then drain every pending
        worker result; returns the alerts raised."""
        self._finalize_streams()
        return self.drain()

    def close(self) -> None:
        """Drain pending work and shut the worker pools down — also when
        the drain raises, so a failed flush never orphans workers."""
        try:
            self.flush()
        finally:
            pools, self._pools = self._pools, []
            for pool in pools:
                # wait=True: flush() already drained the queues, so this
                # is quick, and it avoids interpreter-exit races with the
                # pool's management thread.
                pool.shutdown(wait=True, cancel_futures=True)

    # -- hot template reload ------------------------------------------------

    def reload_templates(self, templates) -> bool:
        raise ValueError(
            "ParallelSemanticNids reloads by set name "
            "(reload_template_set): template objects cannot be shipped "
            "to worker processes")

    def reload_template_set(self, template_set: str) -> bool:
        """Hot-swap to a named template set, fleet-wide.

        Pending work is drained first (in-flight payloads merge under
        the library they were submitted against), then the parent
        analyzer swaps (same digest-keyed semantics as the serial
        engine), and every worker pool is respawned with the new set in
        its initargs — worker frame caches and plans re-derive from
        scratch, so no worker can ever answer from a stale library (nor
        the parent: the swap clears the payload memo, and the drain left
        nothing in flight).
        """
        templates = resolve_template_set(template_set)
        if library_digest(templates) == self.library_digest():
            return False
        self._drain(blocking=True)
        changed = super(ParallelSemanticNids, self).reload_templates(templates)
        self.options = replace(self.options, template_set=template_set)
        for shard, old in enumerate(self._pools):
            old.shutdown(wait=False, cancel_futures=True)
            self._pools[shard] = self._spawn_pool()
        return changed

    # -- dispatch -----------------------------------------------------------

    def _shard_of(self, pkt: Packet) -> int:
        try:
            key = hash(FlowKey.of(pkt))
        except FlowKeyError:  # no transport flow (e.g. ICMP payload)
            key = hash((pkt.src, pkt.dst))
        return key % self.workers

    def _replay(self, pkt: Packet, payload: bytes,
                state: _StreamState | None,
                result: PayloadResult) -> list[Alert]:
        """A memo hit goes through the pending queue, so alerts still
        merge in submission order exactly as a live result would."""
        done: Future = Future()
        done.set_result((result, None))
        self._pending.append(_Pending(
            future=done, payload=payload, packet=pkt, state=state))
        return self._drain(blocking=False)

    def _compute(self, pkt: Packet, payload: bytes,
                 state: _StreamState | None,
                 key: bytes | None) -> list[Alert]:
        if not self._pools:
            return super()._compute(pkt, payload, state, key)
        if not isinstance(payload, bytes):
            payload = bytes(payload)  # zero-copy views do not pickle
        inflight = self._inflight.get(key)
        if inflight is not None:
            # Same payload already on its way to a worker: share the
            # future (and its verdict, whatever it turns out to be)
            # rather than paying a second round-trip.
            self._pending.append(_Pending(
                future=inflight, payload=payload, packet=pkt, state=state,
                key=key))
            return self._drain(blocking=False)
        shard = self._shard_of(pkt)
        breaker = self._breakers[shard]
        if not self._breaker_allow(shard):
            # Shard cooling off (open, or a probe already out): the
            # payload rides the serial path in-process.  Other shards
            # keep their pools — this is per-shard containment.
            self.stats.serial_fallback_payloads += 1
            return super()._compute(pkt, payload, state, key)
        if breaker.state == HALF_OPEN:
            breaker.begin_probe()
        try:
            future = self._pools[shard].submit(_analyze_in_worker, payload)
        except (BrokenExecutor, CancelledError, RuntimeError, OSError):
            self.stats.worker_failures += 1
            self._breaker_failure(shard)
            self._rebuild_pool(shard)
            future = None
            if not self._breakers[shard].is_open:
                try:
                    self.stats.worker_retries += 1
                    future = self._pools[shard].submit(
                        _analyze_in_worker, payload)
                except (BrokenExecutor, CancelledError, RuntimeError,
                        OSError):
                    self._breaker_failure(shard)
                    future = None
            if future is None:
                self.stats.serial_fallback_payloads += 1
                return super()._compute(pkt, payload, state, key)
        self.stats.payloads_offloaded += 1
        if key is not None:
            self._inflight[key] = future
        self._pending.append(_Pending(
            future=future, payload=payload, packet=pkt, state=state,
            key=key, shard=shard, gen=self._pool_gen[shard]))
        return self._drain(blocking=False)

    # -- merge --------------------------------------------------------------

    def _drain(self, blocking: bool) -> list[Alert]:
        """Merge completed results in submission order.

        Submission order is what the serial engine would have used, so
        alerts, dedup decisions, and blocklist updates come out identical
        no matter how the workers interleave.
        """
        out: list[Alert] = []
        while self._pending:
            head = self._pending[0]
            if (not blocking
                    and len(self._pending) <= self.max_pending
                    and not head.future.done()):
                break
            self._pending.popleft()
            try:
                result, delta = head.future.result()
            except (BrokenExecutor, CancelledError, OSError, RuntimeError):
                out.extend(self._recover_pending(head))
                continue
            if head.shard >= 0:
                self._breaker_success(head.shard)
            out.extend(self._finish_pending(head, result, delta))
        return out

    def _finish_pending(self, head: _Pending, result: PayloadResult,
                        delta: dict | None) -> list[Alert]:
        """Registry and memo bookkeeping for one completed payload, then
        the shared merge."""
        if head.shard < 0:
            return self._merge(head.packet, head.payload, head.state,
                               result, replay=True)
        # Live worker result: fold its registry delta into the parent
        # registry — the stats stage-timer views read from there.
        self.registry.merge_delta(delta)
        self._inflight.pop(head.key, None)
        self._remember(head.key, result)
        return self._merge(head.packet, head.payload, head.state, result)

    def _inline(self, head: _Pending) -> list[Alert]:
        """Analyse a queued payload in-process, in its queue position."""
        self.stats.serial_fallback_payloads += 1
        return super()._compute(head.packet, head.payload, head.state,
                                head.key)

    def _recover_pending(self, head: _Pending) -> list[Alert]:
        """The pool died under an in-flight payload: heal the shard and
        make sure the payload still gets analyzed — retried on the
        rebuilt pool, or in-process."""
        if head.shard < 0:
            # It rode a future that broke: the owner's recovery (above it
            # in the queue) already charged the breaker; this one only
            # needs its payload analyzed.
            return self._inline(head)
        self._inflight.pop(head.key, None)
        shard = head.shard
        if head.gen == self._pool_gen[shard]:
            # First stranded future of this pool generation: this is THE
            # failure event.  Later futures stranded by the same death see
            # a newer generation and skip straight to the retry.
            self.stats.worker_failures += 1
            self._breaker_failure(shard)
            self._rebuild_pool(shard)
        if not self._breakers[shard].is_open:
            self.stats.worker_retries += 1
            try:
                # Blocking retry-once keeps the drain in submission order.
                result, delta = self._pools[shard].submit(
                    _analyze_in_worker, head.payload).result()
            except (BrokenExecutor, CancelledError, OSError, RuntimeError):
                self.stats.worker_failures += 1
                self._breaker_failure(shard)
                self._rebuild_pool(shard)
            else:
                self._breaker_success(shard)
                return self._finish_pending(head, result, delta)
        return self._inline(head)

    # -- failure handling ---------------------------------------------------

    def _breaker_allow(self, shard: int) -> bool:
        """May this shard's pool take a payload right now?  Counts the
        open→half-open transition when the backoff has elapsed."""
        breaker = self._breakers[shard]
        was_open = breaker.state
        allowed = breaker.allow()
        if was_open != breaker.state and breaker.state == HALF_OPEN:
            self.stats.breaker_half_open += 1
        self._sync_breaker_gauge()
        return allowed

    def _breaker_failure(self, shard: int) -> None:
        breaker = self._breakers[shard]
        breaker.record_failure()
        if breaker.is_open:  # tripped, or a half-open probe re-opened it
            self.stats.breaker_opened += 1
        self._sync_breaker_gauge()

    def _breaker_success(self, shard: int) -> None:
        breaker = self._breakers[shard]
        was_closed = breaker.state == CLOSED
        breaker.record_success()
        if not was_closed:
            self.stats.breaker_closed += 1
        self._sync_breaker_gauge()

    def _sync_breaker_gauge(self) -> None:
        self.stats.breaker_open_shards = sum(
            1 for b in self._breakers if b.state != CLOSED)

    def _rebuild_pool(self, shard: int) -> None:
        """Tear the shard's broken pool down and spawn a fresh one.

        Bumping the generation first means every future stranded by the
        old pool is recognized as already-accounted-for in
        ``_recover_pending`` — one worker death is one breaker failure.
        """
        self._pool_gen[shard] += 1
        self.stats.pool_rebuilds += 1
        old = self._pools[shard]
        try:
            old.shutdown(wait=False, cancel_futures=True)
        except Exception:  # noqa: BLE001 — already-broken pools may throw
            pass
        self._pools[shard] = self._spawn_pool()
