"""Scale-out sensor fleet: flow-hash dispatcher, whole-pipeline workers,
central aggregator.

The parallel engine (:mod:`repro.nids.parallel`) parallelizes stages
(b)-(e) *within* one sensor; the fleet scales the **whole pipeline** out
across N sensor processes, the way a capture point outgrows one box:

- **flow-hash dispatch** — every packet is assigned to a worker by a
  *stable* digest of its flow (``shard_by="source"``, the default,
  hashes the sender address; ``"flow"`` hashes the unordered endpoint
  pair), so each worker's defragmenter, stream reassembler, and
  per-stream dedup see complete (directional) flows.  Source sharding
  additionally keeps every *per-source* classifier state — dark-space
  scan counts, SMTP fan-out — on one worker, which is what makes fleet
  alerts exactly equal to a single batch
  :class:`~repro.nids.SemanticNids` over the same capture; endpoint
  sharding balances heavy talkers better but only preserves parity when
  classification is per-packet (honeypots) or disabled.
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
  registry.  Worker metric keys the aggregator never registered are
  auto-registered *and counted* (``repro_obs_merge_unknown_total``), so
  fleet-wide stage timings and shed/fault counters read like one
  sensor's.

Crash safety composes with both transports: barrier checkpoints drain
all in-flight work first, and the replay log keeps the work units
shipped since the last barrier (triples or extent jobs), so a
watchdog-respawned shard is re-fed exactly what it lost.
"""

from __future__ import annotations

import hashlib
import os
import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool

from dataclasses import dataclass, replace

from ..net.packet import Packet
from ..net.pcap import PcapReader
from ..obs import MetricsRegistry
from ..resilience.checkpoint import CheckpointStore
from ..resilience.journal import AlertJournal, alert_to_record, record_to_alert
from .alerts import Alert
from ..core.library import library_digest, resolve_template_set
from .pipeline import SemanticNids

__all__ = ["SensorFleet", "FleetStats", "FLEET_TRANSPORTS"]

FLEET_TRANSPORTS = ("pickle", "offset")

#: Serialized size of one ``(seq0, offset, count)`` extent descriptor —
#: what the offset transport ships instead of payload bytes.
_EXTENT_DESCRIPTOR_BYTES = 24


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------

_FLEET_STATE: dict = {}


def _init_fleet_worker(template_set: str, options: dict,
                       state: dict | None = None) -> None:
    """Per-process initializer: one complete sensor pipeline.

    ``state`` — a :meth:`SemanticNids.snapshot_state` payload from a
    checkpoint barrier — rehydrates a respawned or resumed worker so
    its per-source classifier memory and half-open streams continue
    where the dead worker stopped.
    """
    registry = MetricsRegistry()
    _FLEET_STATE["registry"] = registry
    nids = SemanticNids(
        templates=resolve_template_set(template_set),
        registry=registry, **options)
    if state is not None:
        nids.restore_state(state)
        # Rehydration counters are not part of the detection state; the
        # delta collected after restore must not re-report them.
        registry.collect_delta()
    _FLEET_STATE["nids"] = nids
    _FLEET_STATE["captures"] = {}


def _fleet_snapshot_worker() -> dict:
    """Checkpoint barrier: ship this worker's full engine state."""
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


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Terminate and reap a pool's worker without waiting on its queue."""
    procs = list(getattr(pool, "_processes", {}).values())
    for proc in procs:
        proc.terminate()
    for proc in procs:
        proc.join(timeout=10)
    pool.shutdown(wait=False, cancel_futures=True)


@dataclass
class FleetStats:
    """Aggregator-side accounting for one fleet run."""

    workers: int
    dispatched: int
    batches: int
    alerts: int
    deltas_merged: int
    #: crash-safety accounting; all zero without ``checkpoint_dir``.
    checkpoints: int = 0
    replayed: int = 0
    deduped: int = 0
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
    template_set:
        Named template set, rebuilt inside each worker (template objects
        do not pickle).
    batch_size:
        Packets buffered per worker before a batch is shipped; amortizes
        per-submit overhead without reordering anything (per-worker
        batches stay FIFO, and the aggregator orders by global seq
        anyway).
    nids_options:
        Extra picklable keyword arguments for each worker's
        :class:`SemanticNids` (e.g. ``classification_enabled``,
        ``frame_cache_size``, ``analysis_deadline_ms``).
    shard_by:
        ``"source"`` (default) routes by sender address — exact alert
        parity with a batch sensor, because per-source classifier state
        never splits; ``"flow"`` routes by unordered endpoint pair —
        better balance under one heavy talker, parity only without
        cross-flow classifier state.
    registry:
        The central registry worker deltas fold into.
    transport:
        Dispatcher→worker comms layer: ``"pickle"`` (in-band triples)
        or ``"offset"`` (capture-extent partitioning; feed via
        :meth:`process_capture` only).  See the module docstring.
    """

    def __init__(
        self,
        workers: int = 2,
        template_set: str = "paper",
        batch_size: int = 64,
        nids_options: dict | None = None,
        shard_by: str = "source",
        registry: MetricsRegistry | None = None,
        checkpoint_dir: str | os.PathLike[str] | None = None,
        checkpoint_interval: int = 1000,
        journal_fsync_batch: int = 8,
        resume: bool = False,
        watchdog_timeout: float | None = None,
        transport: str = "pickle",
    ) -> None:
        if workers < 1:
            raise ValueError("a fleet needs at least one worker")
        if shard_by not in ("source", "flow"):
            raise ValueError(f"unknown shard_by {shard_by!r}; "
                             "expected 'source' or 'flow'")
        if transport not in FLEET_TRANSPORTS:
            raise ValueError(f"unknown transport {transport!r}; "
                             f"expected one of {FLEET_TRANSPORTS}")
        self.workers = workers
        self.shard_by = shard_by
        self.template_set = template_set
        self.batch_size = batch_size
        self.transport = transport
        self.nids_options = dict(nids_options or {})
        self.registry = registry if registry is not None else MetricsRegistry()
        self.alerts: list[Alert] = []
        self._seq = 0
        self._batches_sent = 0
        self._deltas_merged = 0
        #: pickle: lists of (seq, wire, ts) triples.  offset: lists
        #: of mutable [seq0, file_offset, count] extent runs.
        self._batches: list[list] = [[] for _ in range(workers)]
        #: offset transport: records (not runs) buffered per shard.
        self._batch_counts: list[int] = [0] * workers
        #: the capture the current extent runs point into.
        self._capture_path: str | None = None
        #: per-shard FIFO of (batch_key, future); batch_key = first seq
        self._futures: list[deque] = [deque() for _ in range(workers)]
        #: (seq, alert) pairs already collected, sorted at merge time
        self._collected: list = []
        self._dispatched = self.registry.counter(
            "repro_fleet_dispatched_total",
            help="Packets dispatched to fleet workers.", unit="packets")
        self._batch_counter = self.registry.counter(
            "repro_fleet_batches_total",
            help="Dispatch batches shipped to fleet workers.",
            unit="batches")
        # -- dispatch-cost observability --
        self._ship_bytes = self.registry.counter(
            "repro_fleet_ship_bytes_total",
            help="Payload bytes serialized into the dispatcher→worker "
                 "transport (pickle triples; offset extents count only "
                 "their 24-byte descriptors).",
            unit="bytes")
        self._ship_seconds = self.registry.histogram(
            "repro_fleet_ship_seconds",
            help="Dispatcher wall seconds per batch shipped "
                 "(serialize + submit).", unit="seconds")
        # -- durability / supervision (optional) --
        self.checkpoint_interval = max(1, checkpoint_interval)
        self.watchdog_timeout = watchdog_timeout
        self.checkpoints: CheckpointStore | None = None
        self.journal: AlertJournal | None = None
        #: dispatch seq the caller should re-feed from after a resume
        self.resume_seq = 0
        self._last_checkpoint_seq = 0
        #: last barrier snapshot per shard (respawn/resume rehydration)
        self._shard_states: list[dict | None] = [None] * workers
        #: work units shipped since the last barrier, per shard, for
        #: replay after a watchdog kill (keyed like the futures).
        self._replay: list[list] = [[] for _ in range(workers)]
        #: batch keys already folded (a replayed batch must not re-emit)
        self._folded: set[int] = set()
        #: journal keys already emitted into ``alerts`` (replay dedupe)
        self._emitted_keys: set = set()
        self._watchdog_restarts = self.registry.counter(
            "repro_watchdog_restarts_total",
            help="Fleet shards killed and respawned by the dispatcher "
                 "watchdog after a missed heartbeat.", unit="restarts")
        self._replayed_counter = self.registry.counter(
            "repro_alerts_replayed_total",
            help="Journaled alerts re-offered to the sink after a restart.",
            unit="alerts")
        self._deduped_counter = self.registry.counter(
            "repro_alerts_deduped_total",
            help="Duplicate alerts suppressed by delivery-side replay "
                 "dedupe.", unit="alerts")
        if checkpoint_dir is not None:
            self.checkpoints = CheckpointStore(
                checkpoint_dir, registry=self.registry)
            self.journal = AlertJournal(
                os.path.join(checkpoint_dir, "journal"),
                fsync_batch=journal_fsync_batch, registry=self.registry)
            if resume:
                self._resume()
            else:
                self.checkpoints.clear()
                self.journal.prune(keep_segments=0)
        elif resume:
            raise ValueError("resume=True requires checkpoint_dir")
        self._pools = [self._spawn_pool(shard) for shard in range(workers)]

    def _spawn_pool(self, shard: int) -> ProcessPoolExecutor:
        """One whole-pipeline worker running the current template set,
        rehydrated from the shard's last barrier snapshot if it has one
        (first spawn, resume, watchdog respawn, hot reload)."""
        return ProcessPoolExecutor(
            max_workers=1, initializer=_init_fleet_worker,
            initargs=(self.template_set, self.nids_options,
                      self._shard_states[shard]))

    # -- crash recovery ------------------------------------------------------

    def _resume(self) -> None:
        """Rehydrate the aggregator from the checkpoint directory.

        The journal holds every barrier-emitted packet alert in global
        seq order; they are restored into :attr:`alerts` (counted as
        replayed) and their keys armed for dedupe, so the re-fed window
        past the checkpoint watermark cannot emit twice.  Entries past
        the watermark (an aborted barrier whose journal sync completed
        but whose checkpoint rename did not) restore the same way.
        """
        recovery = self.journal.recover()
        ckpt = self.checkpoints.load()
        if ckpt is not None:
            current = library_digest(resolve_template_set(self.template_set))
            if ckpt["library_digest"] != current:
                raise ValueError(
                    "fleet checkpoint was taken under a different template "
                    "library; refusing to resume")
            if ckpt["workers"] != self.workers:
                raise ValueError(
                    f"fleet checkpoint has {ckpt['workers']} shard "
                    f"snapshots; cannot resume with {self.workers} workers "
                    "(flow→shard routing would change)")
            self._seq = ckpt["watermark"]
            self.resume_seq = ckpt["watermark"]
            self._last_checkpoint_seq = ckpt["watermark"]
            self._shard_states = list(ckpt["shard_states"])
            self._dispatched.inc(ckpt["watermark"])
        for key, record in recovery.entries:
            self._emitted_keys.add(key)
            self.alerts.append(record_to_alert(record))
            self._replayed_counter.inc()

    def checkpoint(self) -> None:
        """Barrier checkpoint: drain every shard, snapshot worker state,
        journal and emit the collected window, then atomically persist
        the dispatch watermark + shard snapshots.  The journal is synced
        before the checkpoint rename, so a checkpointed watermark never
        points past un-durable alerts."""
        if self.checkpoints is None:
            return
        for shard in range(self.workers):
            self._ship(shard)
        self._collect(blocking=True)
        states = []
        for shard in range(self.workers):
            states.append(self._submit_supervised(
                shard, _fleet_snapshot_worker))
        window = sorted(self._collected, key=lambda pair: pair[0])
        self._collected = []
        self._journal_and_emit(window)
        self.journal.sync()
        self.checkpoints.save({
            "watermark": self._seq,
            "workers": self.workers,
            "shard_states": states,
            "library_digest": library_digest(
                resolve_template_set(self.template_set)),
        })
        self._shard_states = states
        self._replay = [[] for _ in range(self.workers)]
        self._folded.clear()
        self._last_checkpoint_seq = self._seq

    def _maybe_checkpoint(self) -> None:
        if (self.checkpoints is not None
                and self._seq - self._last_checkpoint_seq
                >= self.checkpoint_interval):
            self.checkpoint()

    def _journal_and_emit(self, window: list) -> None:
        """Append a seq-sorted (seq, alert) window to the journal and to
        :attr:`alerts`, keyed ``(seq, k)`` (k = index among one packet's
        alerts) and deduped against anything already emitted."""
        k, last_seq = 0, None
        for seq, alert in window:
            k = k + 1 if seq == last_seq else 0
            last_seq = seq
            key = (seq, k)
            if key in self._emitted_keys:
                self._deduped_counter.inc()
                continue
            self._emitted_keys.add(key)
            if self.journal is not None:
                self.journal.append(list(key), alert_to_record(alert))
            self.alerts.append(alert)

    def _submit_supervised(self, shard: int, fn, *args):
        """Submit a call to one shard under the watchdog: a missed
        deadline or broken pool kills, respawns, rehydrates, and replays
        the shard, then retries once on the fresh pool — still under
        the watchdog deadline, so a shard whose respawn also hangs
        raises instead of stalling the dispatcher forever."""
        try:
            future = self._pools[shard].submit(fn, *args)
            if self.watchdog_timeout is not None:
                return future.result(timeout=self.watchdog_timeout)
            return future.result()
        except (FutureTimeoutError, BrokenProcessPool):
            self._restart_shard(shard)
            future = self._pools[shard].submit(fn, *args)
            if self.watchdog_timeout is not None:
                return future.result(timeout=self.watchdog_timeout)
            return future.result()

    # -- lifecycle -----------------------------------------------------------

    def __enter__(self) -> "SensorFleet":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Flush, then reap every worker and close the journal — also
        when the flush raises (a shard that hung twice, a journal write
        error), so a failed shutdown never orphans processes or the
        journal fd."""
        pools = self._pools
        try:
            self.flush()
        except BaseException:
            # Whatever made the flush raise may have left a worker hung;
            # waiting on it would block forever, so kill instead.
            for pool in pools:
                _kill_pool(pool)
            raise
        else:
            for pool in pools:
                pool.shutdown(wait=True, cancel_futures=True)
        finally:
            self._pools = []
            if self.journal is not None:
                self.journal.close()

    # -- dispatch ------------------------------------------------------------

    def _shard_of_fields(self, src, dst, proto, sport, dport) -> int:
        """Stable worker index from flow fields.

        Hashed through :mod:`hashlib` rather than :func:`hash` so the
        assignment is identical across runs and interpreter salts.
        ``"source"`` mode keys on the sender (all of one host's flows —
        and its scan-count state — stay together); ``"flow"`` mode keys
        on the unordered endpoint pair so both directions of one
        conversation reach the same worker's reassembler.  The fields
        come either from a decoded :class:`Packet`'s accessors or from
        :meth:`Packet.peek_flow` over a header prefix — both yield the
        same values by construction, so every transport shards every
        packet identically.
        """
        if self.shard_by == "source":
            token = src or "?"
        elif src is not None and sport is not None:
            a, b = f"{src}:{sport}", f"{dst}:{dport}"
            token = "|".join(sorted((a, b))) + f"/{proto}"
        else:  # no transport flow (e.g. ICMP, fragments, raw eth)
            token = "|".join(sorted((src or "?", dst or "?")))
        digest = hashlib.sha1(token.encode()).digest()
        return int.from_bytes(digest[:4], "big") % self.workers

    def _shard_of(self, pkt: Packet) -> int:
        return self._shard_of_fields(
            pkt.src, pkt.dst,
            pkt.ip.proto if pkt.ip is not None else None,
            pkt.sport, pkt.dport)

    def process_packet(self, pkt: Packet) -> None:
        """Dispatch one decoded packet to its flow's worker.

        Alerts are not returned here — they surface, in deterministic
        order, from :meth:`flush` / :meth:`process_trace`; the fleet
        trades per-packet synchrony for throughput.
        """
        if self.transport == "offset":
            raise ValueError(
                "the offset transport dispatches capture extents, not "
                "packets; feed it via process_capture()")
        shard = self._shard_of(pkt)
        self._enqueue(shard, (self._seq, pkt.encode(), pkt.timestamp))

    def process_raw(self, raw: bytes, timestamp: float = 0.0) -> None:
        """Dispatch one undecoded capture record.

        The record is sharded by a bounded header peek
        (:meth:`Packet.peek_flow`) — the dispatcher never decodes or
        re-encodes the payload, which is the point: with the ``pickle``
        transport this is the cheap way to feed a capture
        (:meth:`process_capture` uses it).
        """
        if self.transport == "offset":
            raise ValueError(
                "the offset transport dispatches capture extents, not "
                "records; feed it via process_capture()")
        if not isinstance(raw, (bytes, bytearray)):
            raw = bytes(raw)  # the replay log needs stable bytes
        shard = self._shard_of_fields(*Packet.peek_flow(raw))
        self._enqueue(shard, (self._seq, raw, timestamp))

    def _enqueue(self, shard: int, item: tuple) -> None:
        self._batches[shard].append(item)
        self._seq += 1
        self._dispatched.inc()
        if len(self._batches[shard]) >= self.batch_size:
            self._ship(shard)
        self._collect(blocking=False)
        self._maybe_checkpoint()

    def process_trace(self, packets) -> list[Alert]:
        """Feed a whole capture of decoded packets; returns all alerts,
        aggregated."""
        before = len(self.alerts)
        for pkt in packets:
            self.process_packet(pkt)
        self.flush()
        return self.alerts[before:]

    def process_capture(self, path, *, follow: bool = False,
                        idle_timeout: float | None = None,
                        poll_interval: float = 0.02,
                        max_packets: int | None = None,
                        stop=None, progress=None) -> list[Alert]:
        """Feed a capture file through the configured transport.

        - ``offset``: the dispatcher scans record boundaries and ships
          ``(seq0, offset, count)`` extents — payload bytes are read
          only by the workers;
        - ``pickle``: records are read once and dispatched via
          :meth:`process_raw` (header-peek sharding, no dispatcher
          decode).

        ``follow`` tails a growing capture (same semantics as the
        daemon's ``--follow``): exit on ``idle_timeout`` seconds without
        a new record, ``stop()`` truth, or ``max_packets``.  On a
        resumed fleet the checkpointed prefix of the capture is skipped
        and dispatch continues from :attr:`resume_seq`.  ``progress``
        (if given) is called with the next dispatch seq before each
        record — the crash-injection hook the resilience harness uses.
        Returns the alerts emitted by this call's final flush.
        """
        before = len(self.alerts)
        self._capture_path = os.fspath(path)
        reader = PcapReader(self._capture_path, streaming=follow)
        offset_mode = self.transport == "offset"
        #: a freshly resumed fleet re-reads the capture from the start
        #: and must skip the records the checkpoint already accounted.
        skip = self.resume_seq if self._seq == self.resume_seq else 0
        cursor = 0
        dispatched = 0
        idle_since = None
        try:
            while True:
                if stop is not None and stop():
                    break
                if max_packets is not None and dispatched >= max_packets:
                    break
                item = reader.poll_meta() if offset_mode else reader.poll()
                if item is None:
                    if not follow:
                        reader.finalize()  # truncation verdict (raises)
                        break
                    now = time.monotonic()
                    if idle_since is None:
                        idle_since = now
                    elif (idle_timeout is not None
                          and now - idle_since >= idle_timeout):
                        break
                    time.sleep(poll_interval)
                    continue
                idle_since = None
                if cursor < skip:
                    cursor += 1
                    continue
                if progress is not None:
                    progress(self._seq)
                if offset_mode:
                    self._dispatch_meta(item)
                else:
                    self.process_raw(item.data, item.timestamp)
                cursor += 1
                dispatched += 1
        finally:
            reader.close()
        self.flush()
        return self.alerts[before:]

    def _dispatch_meta(self, meta) -> None:
        """Offset transport: fold one scanned record boundary into its
        shard's extent runs.  Consecutive records that hash to the same
        shard have consecutive seqs *and* are contiguous in the file, so
        they extend the current ``[seq0, offset, count]`` run instead of
        adding a descriptor."""
        fields = Packet.peek_flow(meta.prefix, caplen=meta.caplen)
        shard = self._shard_of_fields(*fields)
        runs = self._batches[shard]
        if runs and runs[-1][0] + runs[-1][2] == self._seq:
            runs[-1][2] += 1
        else:
            runs.append([self._seq, meta.offset, 1])
        self._batch_counts[shard] += 1
        self._seq += 1
        self._dispatched.inc()
        if self._batch_counts[shard] >= self.batch_size:
            self._ship(shard)
        self._collect(blocking=False)
        self._maybe_checkpoint()

    # -- shipping ------------------------------------------------------------

    def _ship(self, shard: int) -> None:
        if self.transport == "offset":
            self._ship_extents(shard)
            return
        batch, self._batches[shard] = self._batches[shard], []
        if not batch:
            return
        t0 = time.perf_counter()
        key = batch[0][0]  # first dispatch seq: unique, monotonic
        track = (self.watchdog_timeout is not None
                 or self.checkpoints is not None)
        if track:
            self._replay[shard].append((key, batch))
        self._ship_bytes.inc(sum(len(raw) for _seq, raw, _ts in batch))
        self._submit_batch(shard, key, _run_records, batch, track)
        self._finish_ship(t0)

    def _ship_extents(self, shard: int) -> None:
        runs, self._batches[shard] = self._batches[shard], []
        self._batch_counts[shard] = 0
        if not runs:
            return
        t0 = time.perf_counter()
        key = runs[0][0]
        job = (self._capture_path, [tuple(run) for run in runs])
        track = (self.watchdog_timeout is not None
                 or self.checkpoints is not None)
        if track:
            self._replay[shard].append((key, job))
        self._ship_bytes.inc(len(runs) * _EXTENT_DESCRIPTOR_BYTES)
        self._submit_batch(shard, key, _fleet_process_extents, job, track)
        self._finish_ship(t0)

    def _finish_ship(self, t0: float) -> None:
        self._batches_sent += 1
        self._batch_counter.inc()
        self._ship_seconds.observe(time.perf_counter() - t0)

    def _submit_batch(self, shard: int, key, fn, payload,
                      track: bool) -> None:
        try:
            future = self._pools[shard].submit(fn, payload)
        except BrokenProcessPool:
            # The pool died before we could even submit; the restart
            # resubmits the whole replay window (this batch included).
            self._restart_shard(shard)
            if not track:
                # No replay log to lean on — resubmit directly.
                future = self._pools[shard].submit(fn, payload)
                self._futures[shard].append((key, future))
        else:
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
        if not futures:
            return
        key, future = futures[0]
        try:
            if blocking and self.watchdog_timeout is not None:
                alerts, delta = future.result(timeout=self.watchdog_timeout)
            else:
                alerts, delta = future.result()
        except (FutureTimeoutError, BrokenProcessPool):
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
        replay log."""
        self._watchdog_restarts.inc()
        _kill_pool(self._pools[shard])
        self._pools[shard] = self._spawn_pool(shard)
        replay_fn = (_fleet_process_extents if self.transport == "offset"
                     else _run_records)
        self._futures[shard] = deque(
            (key, self._pools[shard].submit(replay_fn, payload))
            for key, payload in self._replay[shard])

    def flush(self) -> list[Alert]:
        """Ship partial batches, drain every worker, finalize stream
        tails, and merge: packet alerts sorted by dispatch seq (stable —
        one packet's alerts keep pipeline order), then each worker's
        flush-time alerts in worker order."""
        if not self._pools:
            return []
        for shard in range(self.workers):
            self._ship(shard)
        self._collect(blocking=True)
        tails: list[list[Alert]] = []
        for shard in range(self.workers):
            alerts, delta = self._submit_supervised(
                shard, _fleet_flush_worker)
            tails.append(alerts)
            self.registry.merge_delta(delta)
            self._deltas_merged += 1
        window = sorted(self._collected, key=lambda pair: pair[0])
        self._collected = []
        before = len(self.alerts)
        self._journal_and_emit(window)
        if self.journal is not None:
            self.journal.sync()
        # Flush-time stream tails are emitted once, by the incarnation
        # that actually finishes the capture; they carry no dispatch seq
        # and are not journaled (a crash *during* final flush re-runs
        # the flush after resume, regenerating them from the restored
        # stream state).
        self.alerts.extend(tail_alert for tail in tails
                           for tail_alert in tail)
        # Everything shipped so far is folded and emitted; the replay
        # window (bounded otherwise only by checkpoint barriers) resets.
        self._replay = [[] for _ in range(self.workers)]
        self._folded.clear()
        return self.alerts[before:]

    # -- hot template reload -------------------------------------------------

    def reload_template_set(self, template_set: str) -> bool:
        """Hot-swap the fleet's template library, same digest-keyed
        semantics as the single-sensor engines: in-flight batches drain
        under the old library, then every worker is respawned with the
        new set in its initargs."""
        new = library_digest(resolve_template_set(template_set))
        old = library_digest(resolve_template_set(self.template_set))
        if new == old:
            return False
        self.flush()
        self.template_set = template_set
        # Snapshots taken under the old library cannot rehydrate workers
        # running the new one (restore_state refuses digest mismatches).
        self._shard_states = [None] * self.workers
        for shard, pool in enumerate(self._pools):
            # wait=True: the old worker must be reaped, not orphaned —
            # flush() already drained its queue, so there is no work to
            # wait on, only process teardown.
            pool.shutdown(wait=True, cancel_futures=True)
            self._pools[shard] = self._spawn_pool(shard)
        return True

    # -- reporting -----------------------------------------------------------

    @property
    def stats(self) -> FleetStats:
        return FleetStats(
            workers=self.workers,
            dispatched=self._seq,
            batches=self._batches_sent,
            alerts=len(self.alerts),
            deltas_merged=self._deltas_merged,
            checkpoints=(self.checkpoints.saves
                         if self.checkpoints is not None else 0),
            replayed=int(self._replayed_counter.value),
            deduped=int(self._deduped_counter.value),
            watchdog_restarts=int(self._watchdog_restarts.value),
            transport=self.transport,
            ship_bytes=int(self._ship_bytes.value),
        )
