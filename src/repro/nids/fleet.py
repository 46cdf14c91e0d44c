"""Scale-out sensor fleet: flow-hash dispatcher, whole-pipeline workers,
central aggregator.

The parallel engine (:mod:`repro.nids.parallel`) parallelizes stages
(b)-(e) *within* one sensor; the fleet scales the **whole pipeline** out
across N sensor processes, the way a capture point outgrows one box:

- **flow-hash dispatch** — every packet is assigned to a worker by a
  *stable* digest of its sender address, so each worker's defragmenter,
  stream reassembler, and per-stream dedup see complete (directional)
  flows, and every *per-source* classifier state — dark-space scan
  counts, SMTP fan-out — stays on one worker, which is what makes fleet
  alerts exactly equal to a single batch
  :class:`~repro.nids.SemanticNids` over the same capture.
- **one transport per feed** (``transport=``) — how work units reach
  the workers.  ``"pickle"`` is the in-memory feed: it ships ``(seq,
  wire_bytes, timestamp)`` triples through the pool (every payload byte
  is pickled and unpickled).  ``"offset"`` is the capture-file feed and
  never moves payload bytes at all — the dispatcher scans record
  *boundaries* of a capture file
  (:meth:`~repro.net.pcap.PcapReader.poll_meta`), shards each record by
  a bounded header peek (:meth:`~repro.net.packet.Packet.peek_flow`),
  and ships ``(seq0, offset, count)`` extents; each worker re-reads its
  own slice of the capture.  Both produce byte-identical merged alert
  streams (the transport parity suite proves it).
- **deterministic aggregation** — the aggregator orders packet alerts by
  global dispatch sequence (a stable sort, so one packet's alerts keep
  their pipeline order) and appends each worker's flush-time alerts in
  worker order.  The merged stream does not depend on process
  scheduling.
- **cross-process metrics** — each batch result carries the worker
  registry's :meth:`~repro.obs.MetricsRegistry.collect_delta`; the
  aggregator folds them with
  :meth:`~repro.obs.MetricsRegistry.merge_delta` into the central
  registry, which holds the same catalog of series as every worker's,
  so fleet-wide stage timings and shed/fault counters read like one
  sensor's (``repro_obs_merge_unknown_total`` stays 0 unless a worker
  runs another version's catalog).

The fleet is an *engine* (the contract is stated once, in
:mod:`repro.nids.pipeline`): journal, checkpoints, resume, tailing and
the periodic duties belong to :class:`~repro.nids.SensorDaemon`, which
drives it like the other two.  What the fleet keeps is supervision: the
replay log holds the work units shipped since the last barrier
(:meth:`SensorFleet.snapshot_state` or :meth:`SensorFleet.flush`;
triples or extent jobs), so a watchdog-respawned shard is rehydrated
from its barrier snapshot and re-fed exactly what it lost.  A shard that
dies before there is a log (no watchdog, no snapshot yet) restarts blank
and says so: a ``resilience.shard-lost`` alert and a counter.
"""

from __future__ import annotations

import time
from collections import deque
from concurrent.futures import BrokenExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass, replace
from operator import itemgetter

from ..core.library import library_digest, resolve_template_set
from ..digest import sha1
from ..net.packet import Packet
from ..net.pcap import PcapReader, PcapRecordMeta
from ..obs import MetricsRegistry
from ..resilience.firewall import DEGRADED_SEVERITY
from .alerts import Alert
from .options import FLEET_TRANSPORTS, SensorOptions
from .pipeline import SemanticNids

__all__ = ["SensorFleet", "FleetStats", "FLEET_TRANSPORTS", "kill_pool"]

#: Degraded alert of a shard that restarted with nothing to replay from.
SHARD_LOST_TEMPLATE = "resilience.shard-lost"

#: Serialized size of one ``(seq0, offset, count)`` extent descriptor —
#: what the offset transport ships instead of payload bytes.
_EXTENT_DESCRIPTOR_BYTES = 24


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------

_FLEET_STATE: dict = {}


def _init_fleet_worker(options: SensorOptions,
                       state: dict | None = None) -> None:
    """Per-process initializer: one complete sensor pipeline.

    ``state`` — a :meth:`SemanticNids.snapshot_state` payload from a
    snapshot barrier — rehydrates a respawned or resumed worker so
    its per-source classifier memory and half-open streams continue
    where the dead worker stopped.
    """
    registry = MetricsRegistry()
    _FLEET_STATE["registry"] = registry
    nids = SemanticNids(options, registry=registry)
    if state is not None:
        nids.restore_state(state)
        # Rehydration counters are not part of the detection state; the
        # delta collected after restore must not re-report them.
        registry.collect_delta()
    _FLEET_STATE["nids"] = nids
    _FLEET_STATE["captures"] = {}


def _fleet_snapshot_worker() -> dict:
    """Snapshot barrier: ship this worker's full engine state."""
    nids: SemanticNids = _FLEET_STATE["nids"]
    return nids.snapshot_state()


def _portable(alert: Alert) -> Alert:
    """Alerts cross the process boundary without their live match
    objects (template predicates are lambdas and do not pickle)."""
    return replace(alert, match=None) if alert.match is not None else alert


def _run_records(records) -> tuple[list, dict]:
    """Run ``(seq, wire_bytes, timestamp)`` records through the worker's
    pipeline; returns seq-tagged alerts + a metrics delta.  The pickle
    transport's worker entry point (the records travelled inside the
    submit call itself) and the tail of the offset transport's."""
    nids: SemanticNids = _FLEET_STATE["nids"]
    out = []
    for seq, raw, timestamp in records:
        pkt = Packet.decode(raw, timestamp)
        for alert in nids.process_packet(pkt):
            out.append((seq, _portable(alert)))
    return out, _FLEET_STATE["registry"].collect_delta()


def _fleet_process_extents(job: tuple) -> tuple[list, dict]:
    """Offset transport: the submit call carried ``(path, [(seq0,
    offset, count), ...])``; the worker re-reads its own slice of the
    capture — the dispatcher never touched the payload bytes."""
    path, extents = job
    captures: dict = _FLEET_STATE.setdefault("captures", {})
    reader = captures.get(path)
    if reader is None:
        # streaming: the capture may still be growing under --follow;
        # every extent the dispatcher shipped is fully on disk.
        reader = captures[path] = PcapReader(path, streaming=True)
    records = []
    for seq0, offset, count in extents:
        reader.seek_to(offset)
        for i in range(count):
            rec = reader.poll()
            if rec is None:
                raise RuntimeError(
                    f"extent ({seq0}, {offset}, {count}) ran past the "
                    f"capture at record {i}: dispatcher and worker see "
                    "different files")
            records.append((seq0 + i, rec.data, rec.timestamp))
    return _run_records(records)


def _fleet_flush_worker() -> tuple[list, dict]:
    """Finalize unexamined stream tails; ships the remaining alerts and
    the final metrics delta."""
    nids: SemanticNids = _FLEET_STATE["nids"]
    alerts = [_portable(a) for a in nids.flush()]
    return alerts, _FLEET_STATE["registry"].collect_delta()


# ---------------------------------------------------------------------------
# Aggregator side
# ---------------------------------------------------------------------------


def kill_pool(pool, *, discard: bool = True) -> int:
    """Terminate and reap a pool's workers without waiting on its queue;
    returns how many died.  The pool is then shut down — unless
    ``discard=False`` leaves it standing, broken, for its owner to find
    (what a chaos kill simulates)."""
    procs = list((getattr(pool, "_processes", None) or {}).values())
    for proc in procs:
        proc.terminate()
    for proc in procs:
        proc.join(timeout=10)
    if discard:
        pool.shutdown(wait=False, cancel_futures=True)
    return len(procs)


@dataclass
class FleetStats:
    """Aggregator-side accounting for one fleet run."""

    workers: int
    dispatched: int
    batches: int
    alerts: int
    deltas_merged: int
    watchdog_restarts: int = 0
    #: transport accounting (docs/architecture.md "Fleet transport").
    transport: str = "pickle"
    ship_bytes: int = 0
    #: always 0; benchmarks/harness/child.py reads it (nids.fleet.ring_full).
    ring_full: int = 0


class SensorFleet:
    """N whole-pipeline sensor processes behind a flow-hash dispatcher.

    Parameters
    ----------
    workers:
        Sensor processes.  ``1`` still spawns a process — the fleet's
        value is the dispatch/aggregation contract, not a serial
        fallback (use :class:`SemanticNids` directly for that).
    batch_size:
        Packets buffered per worker before a batch is shipped; amortizes
        per-submit overhead without reordering anything (per-worker
        batches stay FIFO, and the aggregator orders by global seq
        anyway).
    nids_options:
        Each worker's :class:`~repro.nids.SensorOptions`: the record, or
        a mapping of its fields checked here, in the parent — an unknown
        or out-of-range option raises before any process starts.
    template_set:
        Shorthand for — and overrides — that record's ``template_set``.
    registry:
        The central registry worker deltas fold into.
    watchdog_timeout:
        Seconds a blocking wait on one shard may last before the shard
        is killed, respawned from its last barrier snapshot and re-fed
        from the replay log.  ``None`` waits forever.
    transport:
        Dispatcher→worker comms layer: ``"pickle"`` (in-band triples;
        :meth:`process_packet` takes decoded packets) or ``"offset"``
        (capture-extent partitioning; :meth:`process_packet` takes
        :class:`~repro.net.pcap.PcapRecordMeta` record boundaries).
        See the module docstring.
    """

    def __init__(
        self,
        workers: int = 2,
        template_set: str | None = None,
        batch_size: int = 64,
        nids_options: SensorOptions | dict | None = None,
        registry: MetricsRegistry | None = None,
        watchdog_timeout: float | None = None,
        transport: str = "pickle",
    ) -> None:
        if workers < 1:
            raise ValueError("a fleet needs at least one worker")
        if transport not in FLEET_TRANSPORTS:
            raise ValueError(f"unknown transport {transport!r}; "
                             f"expected one of {FLEET_TRANSPORTS}")
        options = (nids_options if isinstance(nids_options, SensorOptions)
                   else SensorOptions(**(nids_options or {})))
        if template_set is not None:
            options = replace(options, template_set=template_set)
        self.workers = workers
        self.options = options
        self._digest = library_digest(
            resolve_template_set(options.template_set))
        self.batch_size = batch_size
        self.transport = transport
        self.registry = registry if registry is not None else MetricsRegistry()
        #: alerts handed out and not yet taken by the owner (the daemon
        #: empties it as it delivers; ``stats.alerts`` keeps the count).
        self.alerts: list[Alert] = []
        self._alerts_out = 0
        self._seq = 0
        self._deltas_merged = 0
        #: pickle: lists of (seq, wire, ts) triples.  offset: lists of
        #: mutable [seq0, file_offset, count, end_offset] extent runs.
        self._batches: list[list] = [[] for _ in range(workers)]
        #: records (not extent runs) buffered per shard.
        self._batch_counts: list[int] = [0] * workers
        #: the capture the current extent runs point into.
        self._capture_path: str | None = None
        #: per-shard FIFO of (batch_key, future); batch_key = first seq
        self._futures: list[deque] = [deque() for _ in range(workers)]
        #: (seq, alert) pairs folded from the shards and not yet released
        self._collected: list = []
        reg = self.registry
        self._dispatched = reg.counter("repro_fleet_dispatched_total")
        self._batch_counter = reg.counter("repro_fleet_batches_total")
        # -- dispatch-cost observability --
        self._ship_bytes = reg.counter("repro_fleet_ship_bytes_total")
        self._ship_seconds = reg.histogram("repro_fleet_ship_seconds")
        # -- supervision --
        self.watchdog_timeout = watchdog_timeout
        #: log shipped work units for replay?  Only a barrier empties the
        #: log, so it is kept for an owner that asked for the watchdog
        #: or that takes snapshots.
        self._track = watchdog_timeout is not None
        #: last barrier snapshot per shard (respawn/resume rehydration)
        self._shard_states: list[dict | None] = [None] * workers
        #: work units shipped since the last barrier, per shard, for
        #: replay after a watchdog kill (keyed like the futures).
        self._replay: list[list] = [[] for _ in range(workers)]
        #: batch keys already folded (a replayed batch must not re-emit)
        self._folded: set[int] = set()
        #: packets shipped per shard since the last barrier: what a
        #: restart without a replay log cannot re-feed.
        self._since_barrier: list[int] = [0] * workers
        #: timestamp of the last packet dispatched (stamps a shard loss)
        self._capture_clock = 0.0
        self._watchdog_restarts = reg.counter("repro_watchdog_restarts_total")
        self._lost_packets = reg.counter(
            "repro_fleet_shard_lost_packets_total")
        self._deduped_counter = reg.counter("repro_alerts_deduped_total")
        self._pools = [self._spawn_pool(shard) for shard in range(workers)]

    def _spawn_pool(self, shard: int):
        """One whole-pipeline worker running the current template set,
        rehydrated from the shard's last barrier snapshot if it has one
        (first spawn, restore, watchdog respawn, hot reload).  The one
        place the fleet creates a process, so the one place that loads
        the process-pool stack."""
        from concurrent.futures import ProcessPoolExecutor

        return ProcessPoolExecutor(
            max_workers=1, initializer=_init_fleet_worker,
            initargs=(self.options, self._shard_states[shard]))

    def _respawn(self) -> None:
        """Replace every worker: ``initargs`` are captured at spawn, so
        a new template set or restored shard states need new processes.
        Callers have drained the queues, so ``wait=True`` only reaps —
        no old worker is orphaned."""
        for shard, pool in enumerate(self._pools):
            pool.shutdown(wait=True, cancel_futures=True)
            self._pools[shard] = self._spawn_pool(shard)

    # -- engine state (checkpointed by the owner) ----------------------------

    def snapshot_state(self) -> dict:
        """The dispatch watermark plus every worker's engine state,
        taken behind a :meth:`drain` so the states cover exactly
        ``watermark`` packets (an owner has drained already and emitted
        what that handed out).  Also a supervision barrier: respawns
        rehydrate from these states from now on and the replay log
        restarts."""
        self.drain()
        states = [self._submit_supervised(shard, _fleet_snapshot_worker)
                  for shard in range(self.workers)]
        self._shard_states = states
        self._track = True
        self._reset_replay()
        return {"watermark": self._seq, "workers": self.workers,
                "shard_states": states, "library_digest": self._digest}

    def restore_state(self, state: dict) -> None:
        """Continue a fresh fleet from a :meth:`snapshot_state` payload
        (workers respawn rehydrated); refuses one taken under another
        template library or worker count."""
        if state["library_digest"] != self._digest:
            raise ValueError(
                "fleet checkpoint was taken under a different template "
                "library; refusing to resume")
        if state["workers"] != self.workers:
            raise ValueError(
                f"fleet checkpoint has {state['workers']} shard "
                f"snapshots; cannot resume with {self.workers} workers "
                "(flow→shard routing would change)")
        self._seq = state["watermark"]
        self._dispatched.inc(state["watermark"])
        self._shard_states = list(state["shard_states"])
        self._track = True
        self._respawn()

    def _submit_supervised(self, shard: int, fn, *args):
        """Submit a call to one shard under the watchdog: a missed
        deadline or broken pool kills, respawns, rehydrates, and replays
        the shard, then retries once on the fresh pool — still under
        the watchdog deadline, so a shard whose respawn also hangs
        raises instead of stalling the dispatcher forever."""
        try:
            return self._pools[shard].submit(fn, *args).result(
                timeout=self.watchdog_timeout)
        except (FutureTimeoutError, BrokenExecutor):
            self._restart_shard(shard)
            return self._pools[shard].submit(fn, *args).result(
                timeout=self.watchdog_timeout)

    # -- lifecycle -----------------------------------------------------------

    def __enter__(self) -> "SensorFleet":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Flush, then reap every worker — also when the flush raises (a
        shard that hung twice), so a failed shutdown never orphans
        processes."""
        pools = self._pools
        try:
            self.flush()
        except BaseException:
            # Whatever made the flush raise may have left a worker hung;
            # waiting on it would block forever, so kill instead.
            for pool in pools:
                kill_pool(pool)
            raise
        else:
            for pool in pools:
                pool.shutdown(wait=True, cancel_futures=True)
        finally:
            self._pools = []

    # -- dispatch ------------------------------------------------------------

    def _shard_of(self, flow: tuple) -> int:
        """Stable worker index from a :meth:`Packet.peek_flow` result
        (a header prefix yields what a full decode would, so every
        transport shards every packet identically): keyed on the sender,
        so all of one host's flows — and its scan-count state — stay
        together.  Hashed with SHA-1 rather than :func:`hash` so the
        assignment is identical across runs and interpreter salts.
        """
        digest = sha1((flow[0] or "?").encode()).digest()
        return int.from_bytes(digest[:4], "big") % self.workers

    def process_packet(self, item: Packet | PcapRecordMeta) -> list[Alert]:
        """Dispatch one input unit to its flow's worker: a decoded
        packet on the ``pickle`` transport, a record boundary on
        ``offset`` (the worker re-reads the body from the capture).

        Returns the alerts every shard has resolved so far, in dispatch
        order; they trail their packets by up to a batch per shard, and
        :meth:`drain` is the barrier that collects the rest.
        """
        if self.transport != "offset":
            return self.process_raw(item.encode(), item.timestamp)
        if not isinstance(item, PcapRecordMeta):
            raise ValueError(
                "the offset transport dispatches record boundaries "
                "(PcapRecordMeta), not packets; feed it from a "
                "MetaPacketSource or via process_capture()")
        return self._dispatch_meta(item)

    def process_raw(self, raw: bytes, timestamp: float = 0.0) -> list[Alert]:
        """``pickle`` transport: dispatch one wire-format record, sharded
        by a bounded header peek (:meth:`Packet.peek_flow`) — a capture
        record is never decoded or re-encoded by the dispatcher."""
        if self.transport == "offset":
            raise ValueError(
                "the offset transport dispatches record boundaries, not "
                "records; feed it via process_capture()")
        if not isinstance(raw, (bytes, bytearray)):
            raw = bytes(raw)  # the replay log needs stable bytes
        shard = self._shard_of(Packet.peek_flow(raw))
        self._batches[shard].append((self._seq, raw, timestamp))
        return self._dispatched_one(shard, timestamp)

    def _dispatch_meta(self, meta: PcapRecordMeta) -> list[Alert]:
        """Offset transport: fold one record boundary into its shard's
        extent runs.  A worker re-reads a run as ``count`` consecutive
        records, so a run grows only when the record is next in dispatch
        seq *and* starts where the run ends in the file — the owner's
        ring may have shed the record in between."""
        if meta.path != self._capture_path:
            for shard in range(self.workers):  # one job names one file
                self._ship(shard)
            self._capture_path = meta.path
        shard = self._shard_of(
            Packet.peek_flow(meta.prefix, caplen=meta.caplen))
        runs = self._batches[shard]
        if (runs and runs[-1][0] + runs[-1][2] == self._seq
                and runs[-1][3] == meta.offset):
            runs[-1][2] += 1
            runs[-1][3] = meta.end
        else:
            runs.append([self._seq, meta.offset, 1, meta.end])
        return self._dispatched_one(shard, meta.timestamp)

    def _dispatched_one(self, shard: int, timestamp: float) -> list[Alert]:
        self._seq += 1
        self._capture_clock = timestamp
        self._dispatched.inc()
        self._batch_counts[shard] += 1
        if self._batch_counts[shard] >= self.batch_size:
            self._ship(shard)
        self._collect(blocking=False)
        return self._release()

    def process_trace(self, packets) -> list[Alert]:
        """Feed a whole capture of decoded packets; returns all alerts,
        aggregated."""
        before = len(self.alerts)
        for pkt in packets:
            self.process_packet(pkt)
        self.flush()
        return self.alerts[before:]

    def process_capture(self, path) -> list[Alert]:
        """Feed a finite capture file through the configured transport
        and flush; returns the alerts of this call.  ``offset`` scans
        record boundaries only; ``pickle`` reads each record once and
        shards it by header peek.  (A growing capture, a bounded ring or
        a checkpoint is :class:`~repro.nids.SensorDaemon` over this
        engine.)"""
        before = len(self.alerts)
        with PcapReader(path) as reader:
            if self.transport == "offset":
                while (meta := reader.poll_meta()) is not None:
                    self._dispatch_meta(meta)
            else:
                while (rec := reader.poll()) is not None:
                    self.process_raw(rec.data, rec.timestamp)
            reader.finalize()  # truncation verdict (raises)
        self.flush()
        return self.alerts[before:]

    # -- shipping ------------------------------------------------------------

    def _ship(self, shard: int) -> None:
        """Submit what one shard has buffered as one batch: the triples
        themselves (``pickle``), or ``(path, [(seq0, offset, count)])``
        for its extent runs (``offset``)."""
        batch, self._batches[shard] = self._batches[shard], []
        count, self._batch_counts[shard] = self._batch_counts[shard], 0
        if not batch:
            return
        t0 = time.perf_counter()
        key = batch[0][0]  # first dispatch seq: unique, monotonic
        if self.transport == "offset":
            fn = _fleet_process_extents
            payload = (self._capture_path, [tuple(run[:3]) for run in batch])
            self._ship_bytes.inc(len(batch) * _EXTENT_DESCRIPTOR_BYTES)
        else:
            fn, payload = _run_records, batch
            self._ship_bytes.inc(sum(len(raw) for _seq, raw, _ts in batch))
        if self._track:
            self._replay[shard].append((key, fn, payload))
        self._submit_batch(shard, key, fn, payload)
        self._since_barrier[shard] += count
        self._batch_counter.inc()
        self._ship_seconds.observe(time.perf_counter() - t0)

    def _submit_batch(self, shard: int, key, fn, payload) -> None:
        try:
            future = self._pools[shard].submit(fn, payload)
        except BrokenExecutor:
            # The pool died before we could even submit; the restart
            # resubmits the whole replay window (this batch included).
            self._restart_shard(shard)
            if self._track:
                return
            # No replay log to lean on — resubmit directly.
            future = self._pools[shard].submit(fn, payload)
        self._futures[shard].append((key, future))

    # -- aggregation ---------------------------------------------------------

    def _collect(self, blocking: bool) -> None:
        """Fold completed batch results (per-shard FIFO) into the
        aggregation buffer and the central registry.  When blocking with
        a watchdog, a shard that misses its deadline (or whose pool
        broke) is killed, respawned from the last barrier snapshot, and
        its post-barrier batches are replayed; batches that had already
        been folded re-run for worker state only (their alerts are
        dropped by the batch-key fold filter)."""
        for shard in range(self.workers):
            while self._futures[shard] and (
                    blocking or self._futures[shard][0][1].done()):
                self._fold_one(shard, blocking)

    def _fold_one(self, shard: int, blocking: bool) -> None:
        """Fold the head future of one shard (FIFO)."""
        futures = self._futures[shard]
        key, future = futures[0]
        try:
            alerts, delta = future.result(
                timeout=self.watchdog_timeout if blocking else None)
        except (FutureTimeoutError, BrokenExecutor):
            self._restart_shard(shard)
            return
        futures.popleft()
        self.registry.merge_delta(delta)
        self._deltas_merged += 1
        if key in self._folded:
            # replayed batch: worker state rebuilt, alerts already
            # aggregated before the restart
            self._deduped_counter.inc(len(alerts))
            return
        self._folded.add(key)
        self._collected.extend(alerts)

    def _restart_shard(self, shard: int) -> None:
        """Watchdog kill path: terminate and reap the shard's worker,
        respawn the pool rehydrated from the last barrier snapshot, and
        resubmit every work unit shipped since that barrier from the
        replay log.  Without a log the shard restarts blank: what it
        was shipped since the barrier is counted and alerted degraded."""
        self._watchdog_restarts.inc()
        kill_pool(self._pools[shard])
        self._pools[shard] = self._spawn_pool(shard)
        self._futures[shard] = deque(
            (key, self._pools[shard].submit(fn, payload))
            for key, fn, payload in self._replay[shard])
        if not self._track:
            lost, self._since_barrier[shard] = self._since_barrier[shard], 0
            self._lost_packets.inc(lost)
            # Seq -1: handed out by the next release, ahead of the rest.
            self._collected.append((-1, Alert(
                timestamp=self._capture_clock, source=f"fleet-shard-{shard}",
                destination="", template=SHARD_LOST_TEMPLATE,
                severity=DEGRADED_SEVERITY, frame_origin="fleet",
                detail=f"shard {shard} restarted with no replay log: "
                       f"{lost} packet(s) dispatched to it since the last "
                       "barrier were not re-fed")))

    def _reset_replay(self) -> None:
        """A barrier was reached: nothing shipped before it can need
        replaying (and no folded key can come back)."""
        self._replay = [[] for _ in range(self.workers)]
        self._since_barrier = [0] * self.workers
        self._folded.clear()

    def _hand_out(self, alerts: list[Alert]) -> list[Alert]:
        self.alerts += alerts
        self._alerts_out += len(alerts)
        return alerts

    def _release(self) -> list[Alert]:
        """Hand out, ordered by dispatch seq (a stable sort, so one
        packet's alerts keep their pipeline order), the collected alerts
        below the lowest seq any shard has yet to resolve.  Everything
        released later lies at or above that mark, so the concatenated
        stream is in dispatch order however the shards interleave."""
        if not self._collected:
            return []
        low = min(futures[0][0] if futures else
                  batch[0][0] if batch else self._seq
                  for futures, batch in zip(self._futures, self._batches))
        ready = [pair for pair in self._collected if pair[0] < low]
        self._collected = [pair for pair in self._collected if pair[0] >= low]
        ready.sort(key=itemgetter(0))
        return self._hand_out([alert for _seq, alert in ready])

    def drain(self) -> list[Alert]:
        """Barrier: ship partial batches and wait for every shard, so
        each packet dispatched so far is resolved and its alerts handed
        out; stream tails stay open."""
        for shard in range(self.workers):
            self._ship(shard)
        self._collect(blocking=True)
        return self._release()

    def flush(self) -> list[Alert]:
        """:meth:`drain`, then finalize every worker's stream tails:
        packet alerts in dispatch order, then each worker's flush-time
        alerts in worker order."""
        if not self._pools:
            return []
        out = self.drain()
        tails: list[Alert] = []
        for shard in range(self.workers):
            alerts, delta = self._submit_supervised(
                shard, _fleet_flush_worker)
            tails += alerts
            self.registry.merge_delta(delta)
            self._deltas_merged += 1
        # Everything shipped so far is folded and handed out; the replay
        # window (bounded otherwise only by snapshots) resets.
        self._reset_replay()
        # (_release: the alert of a shard lost during the tails call)
        return out + self._release() + self._hand_out(tails)

    # -- hot template reload -------------------------------------------------

    def reload_template_set(self, template_set: str) -> bool:
        """Hot-swap the fleet's template library, same digest-keyed
        semantics as the single-sensor engines: in-flight batches drain
        under the old library, then every worker is respawned with the
        new set in its initargs."""
        digest = library_digest(resolve_template_set(template_set))
        if digest == self._digest:
            return False
        self.flush()
        self.options = replace(self.options, template_set=template_set)
        self._digest = digest
        # Snapshots taken under the old library cannot rehydrate workers
        # running the new one (restore_state refuses digest mismatches).
        self._shard_states = [None] * self.workers
        self._respawn()
        return True

    # -- reporting -----------------------------------------------------------

    @property
    def stats(self) -> FleetStats:
        return FleetStats(
            workers=self.workers,
            dispatched=self._seq,
            batches=int(self._batch_counter.value),
            alerts=self._alerts_out,
            deltas_merged=self._deltas_merged,
            watchdog_restarts=int(self._watchdog_restarts.value),
            transport=self.transport,
            ship_bytes=int(self._ship_bytes.value),
        )
