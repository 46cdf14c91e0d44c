"""The always-on sensor daemon (``repro-sensord``).

Everything before this module was one-shot batch analysis: open a pcap,
drain it, exit.  :class:`SensorDaemon` turns the same pipeline into a
long-running service:

- **chunked ingestion** from a :class:`PacketSource` into a bounded
  :class:`~repro.resilience.BoundedRing`, so a traffic burst costs
  queueing (and, past capacity, *counted* shedding) instead of unbounded
  memory;
- **capacity-aware load shedding** — the ring's policy decides whether a
  full buffer sheds the newest packet, the oldest, or pauses the source
  (backpressure); every shed lands in ``repro_shed_packets_total`` and
  every refusal in ``repro_backpressure_waits_total``, so the accounting
  invariant ``ingested == processed + shed + queued`` holds at any
  instant — no drop is ever silent;
- **hot template reload** keyed on
  :func:`~repro.core.library.library_digest`: a ``template_provider``
  callable is polled between batches, and a changed digest atomically
  swaps the library — frame cache, compiled match plans, and anchor
  prefilter re-derive with it (worker pools are respawned on the
  parallel engine) — without dropping a packet;
- **rolling metrics windows** (:class:`~repro.obs.MetricsWindow`): the
  registry is diffed every ``window_secs`` so operators see current
  rates and per-window latency quantiles, not lifetime averages;
- **drift-free heartbeats** via :class:`~repro.obs.PeriodicSchedule`.

The loop is cooperative and single-threaded: one tick ingests up to
``batch_size`` packets, processes up to ``batch_size`` from the ring,
then runs the periodic duties.  Determinism matters more here than
thread-level overlap — the parallel engine already owns process-level
parallelism, and the fleet (:mod:`repro.nids.fleet`) owns scale-out.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, replace
from typing import Callable, Iterable

from ..net.packet import Packet
from ..net.pcap import PcapReader, PcapRecordMeta
from ..obs import MetricsWindow, PeriodicSchedule
from ..resilience.checkpoint import CheckpointStore
from ..resilience.delivery import DurableDelivery
from ..resilience.firewall import StageFirewall
from ..resilience.journal import AlertJournal
from ..resilience.shedder import BoundedRing
from .alerts import Alert
from .options import DaemonOptions
from .pipeline import SemanticNids

__all__ = ["SensorDaemon", "DaemonStats", "IterPacketSource",
           "TailPacketSource", "MetaPacketSource"]


def _peak_rss_bytes() -> int:
    """This process's peak resident set: ``VmHWM`` where ``/proc`` has
    it, else ``ru_maxrss`` (kilobytes, but bytes on macOS)."""
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    import resource
    import sys

    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak if sys.platform == "darwin" else peak * 1024


class IterPacketSource:
    """A finite packet iterable as a daemon source (replay / tests).

    Positions are packet indices: ``tell()`` is how many packets have
    been polled, ``seek(n)`` skips forward to index ``n`` (a resumed
    daemon replays the iterable and seeks past the checkpointed
    prefix).
    """

    def __init__(self, packets: Iterable[Packet]) -> None:
        self._it = iter(packets)
        self.finished = False
        self._pos = 0

    def poll(self) -> Packet | None:
        try:
            pkt = next(self._it)
        except StopIteration:
            self.finished = True
            return None
        self._pos += 1
        return pkt

    def tell(self) -> int:
        return self._pos

    def seek(self, pos: int) -> None:
        if pos < self._pos:
            raise ValueError(
                f"IterPacketSource cannot seek backwards "
                f"({pos} < {self._pos}); rebuild the source instead")
        while self._pos < pos:
            if self.poll() is None:
                break


class TailPacketSource:
    """A growing capture, tailed through a streaming
    :class:`~repro.net.pcap.PcapReader`.

    ``poll`` returns ``None`` whenever no *complete* record is buffered —
    a partial tail is simply "not yet", never a truncation (that verdict
    belongs to :meth:`finalize`, once the writer is known to be done).
    The source never reports ``finished`` on its own: the daemon's
    ``idle_timeout`` / ``stop`` decide when tailing ends.
    """

    def __init__(self, reader: PcapReader) -> None:
        if not reader.streaming:
            raise ValueError("TailPacketSource needs a streaming PcapReader")
        self.reader = reader
        self.finished = False

    def poll(self) -> Packet | None:
        return self.reader.poll_packet()

    def tell(self) -> int:
        """Capture byte offset of the next unread record."""
        return self.reader.tell()

    def seek(self, offset: int) -> None:
        self.reader.seek_to(offset)

    def finalize(self) -> None:
        self.reader.finalize()


class MetaPacketSource(TailPacketSource):
    """A capture's record *boundaries*
    (:meth:`~repro.net.pcap.PcapReader.poll_meta`) — the feed of an
    offset-transport fleet, whose workers re-read the bodies.  The
    daemon never looks inside a ring item, so it queues, sheds and
    checkpoints these like packets.  A streaming reader tails; a finite
    capture is finished at its first miss (:meth:`finalize` then gives
    the truncation verdict)."""

    def __init__(self, reader: PcapReader) -> None:
        self.reader = reader
        self.finished = False

    def poll(self) -> PcapRecordMeta | None:
        meta = self.reader.poll_meta()
        self.finished = meta is None and not self.reader.streaming
        return meta


@dataclass
class DaemonStats:
    """End-of-run accounting; ``uncounted_drops`` must always be zero."""

    ingested: int
    processed: int
    shed: int
    queued: int
    backpressure_waits: int
    alerts: int
    reloads: int
    windows: int
    duration: float
    #: crash-safety accounting; all zero without ``checkpoint_dir``.
    checkpoints: int = 0
    replayed: int = 0
    deduped: int = 0

    @property
    def uncounted_drops(self) -> int:
        """Packets that entered but are neither processed, counted as
        shed, nor still queued — the silent-drop detector."""
        return self.ingested - self.processed - self.shed - self.queued

    @property
    def shed_rate(self) -> float:
        return self.shed / self.ingested if self.ingested else 0.0


class SensorDaemon:
    """Drives an engine — :class:`~repro.nids.SemanticNids`,
    :class:`~repro.nids.ParallelSemanticNids` or
    :class:`~repro.nids.SensorFleet`, never asking which — as an
    always-on service over a :class:`PacketSource`, and is the one owner
    of journal, checkpoints, resume, tailing and the periodic duties.

    Parameters
    ----------
    nids:
        The engine (contract: :mod:`repro.nids.pipeline`); its registry
        is where every daemon metric lands.
    source:
        Object with ``poll() -> item | None`` and a ``finished``
        attribute (see :class:`IterPacketSource`,
        :class:`TailPacketSource`, :class:`MetaPacketSource`); items are
        whatever the engine's ``process_packet`` takes.
    options / keywords:
        The loop's settings: a :class:`~repro.nids.DaemonOptions`
        record, and/or its fields as keywords (``TypeError`` for an
        unknown one, ``ValueError`` out of range — before the source is
        touched).  Under ``shed_policy="block"`` a refused packet is
        held and the source is not read again until the ring drains:
        backpressure, zero loss.
    heartbeat / heartbeat_out:
        Liveness line every ``heartbeat`` seconds, on a drift-free
        deadline-anchored schedule like the metrics window.
    template_provider:
        Optional zero-argument callable polled once per tick; it returns
        a template-set name (any engine), a template list (serial
        engine), or ``None`` for "no opinion".  A changed library digest
        triggers the hot reload.
    on_alert:
        Operator callback; exceptions are contained as ``deliver``
        faults, exactly like :class:`~repro.nids.NidsSensor`.
    checkpoint_dir:
        Enables the durability layer (docs/operations.md, "Crash
        recovery & durability"): every alert is written ahead to a
        CRC-framed journal under ``<dir>/journal/`` before delivery,
        and every ``checkpoint_interval`` processed packets the daemon
        drains the engine (so nothing is in flight) and atomically
        checkpoints its capture position, engine state, and accounting
        to ``<dir>/checkpoint.bin``.  Requires a source with ``tell()``.
    resume:
        Rehydrate from ``checkpoint_dir`` instead of starting fresh:
        restore engine state and counters, replay the journaled-but-
        possibly-undelivered alert tail through the delivery layer
        (at-least-once; duplicates are suppressed by seq), and seek the
        source to the checkpointed position.  Without ``resume`` any
        stale checkpoint/journal files in the directory are cleared.
    delivery:
        Optional :class:`~repro.resilience.DurableDelivery` to route
        alerts through (retries/backoff/spool).  Defaults, when
        ``checkpoint_dir`` is set, to one wrapping ``on_alert``.
    """

    #: seconds slept by a tick that moved nothing (an idle tail).
    POLL_INTERVAL = 0.02
    #: rolled metrics windows kept (oldest first out).
    MAX_WINDOWS = 60

    def __init__(
        self,
        nids: SemanticNids,
        source,
        options: DaemonOptions | None = None,
        *,
        heartbeat: float = 0.0,
        heartbeat_out: Callable[[str], None] | None = None,
        template_provider: Callable | None = None,
        on_alert: Callable[[Alert], None] | None = None,
        checkpoint_dir: str | os.PathLike[str] | None = None,
        resume: bool = False,
        delivery: DurableDelivery | None = None,
        clock=time.monotonic,
        sleep=time.sleep,
        **keywords,
    ) -> None:
        self.options = options = (DaemonOptions(**keywords) if options is None
                                  else replace(options, **keywords))
        self.nids = nids
        self.source = source
        self.template_provider = template_provider
        self.on_alert = on_alert
        self.heartbeat_out = heartbeat_out
        self._clock = clock
        self._sleep = sleep
        # Read per tick: plain attributes, not record lookups.
        self.batch_size = options.batch_size
        self.idle_timeout = options.idle_timeout
        self.checkpoint_interval = options.checkpoint_interval
        self.ring = BoundedRing(options.ring_capacity,
                                policy=options.shed_policy,
                                registry=nids.registry)
        self._beat = (PeriodicSchedule(heartbeat, clock)
                      if heartbeat > 0 else None)
        self._window_sched = (PeriodicSchedule(options.window_secs, clock)
                              if options.window_secs > 0 else None)
        self.window = (MetricsWindow(nids.registry,
                                     max_windows=self.MAX_WINDOWS,
                                     clock=clock)
                       if options.window_secs > 0 else None)
        reg = nids.registry
        #: where ``on_alert`` faults are counted: the ``deliver`` series
        #: of the engine's registry, whichever engine it is.
        self._firewall = StageFirewall(reg)
        self._ingested = reg.counter("repro_daemon_ingested_total")
        self._processed = reg.counter("repro_daemon_processed_total")
        self._latency = reg.histogram("repro_daemon_packet_seconds")
        self._replayed = reg.counter("repro_alerts_replayed_total")
        self._deduped = reg.counter("repro_alerts_deduped_total")
        self._peak_rss = reg.gauge("repro_process_peak_rss_bytes")
        #: under "block", the (packet, origin) pair refused by a full ring
        self._held: tuple | None = None
        self.reloads = 0
        # -- durability layer (optional) --
        self.journal: AlertJournal | None = None
        self.checkpoints: CheckpointStore | None = None
        self.delivery = delivery
        self._alert_seq = 0
        self._last_checkpoint_processed = 0
        if checkpoint_dir is not None:
            if not hasattr(source, "tell"):
                raise ValueError(
                    "checkpointing needs a source with tell()/seek() "
                    "(IterPacketSource, TailPacketSource)")
            self.checkpoints = CheckpointStore(
                checkpoint_dir, registry=reg, clock=clock)
            self.journal = AlertJournal(
                os.path.join(checkpoint_dir, "journal"),
                fsync_batch=options.journal_fsync_batch, registry=reg)
            if self.delivery is None:
                self.delivery = DurableDelivery(
                    lambda _key, alert: (
                        self.on_alert(alert)
                        if self.on_alert is not None else None),
                    registry=reg, sleep=sleep, clock=clock)
            if resume:
                self._resume()
            else:
                self.checkpoints.clear()
                self.journal.prune(keep_segments=0)
        elif resume:
            raise ValueError("resume=True requires checkpoint_dir")

    # -- crash recovery -------------------------------------------------------

    def _resume(self) -> None:
        """Rehydrate state from the checkpoint directory.

        Torn journal tails are truncated; the journaled alert window at
        or past the checkpoint's alert-seq watermark is replayed through
        the delivery layer (at-least-once — those alerts may or may not
        have reached the sink before the crash), which also arms the
        seq dedupe so the deterministically regenerated copies are
        suppressed.
        """
        recovery = self.journal.recover()
        ckpt = self.checkpoints.load()
        floor = 0
        if ckpt is not None:
            self.nids.restore_state(ckpt["engine"])
            self._ingested.inc(ckpt["processed"] + ckpt["shed"])
            self._processed.inc(ckpt["processed"])
            self.ring.restore_counters(
                shed=ckpt["shed"], accepted=ckpt["processed"],
                backpressure=ckpt["backpressure"])
            self._alert_seq = ckpt["alert_seq"]
            self._last_checkpoint_processed = ckpt["processed"]
            self.reloads = ckpt["reloads"]
            floor = ckpt["alert_seq"]
            self.source.seek(ckpt["resume_offset"])
        # Alerts journaled before the watermark were delivered before the
        # checkpoint and will not be regenerated — skip them.  The rest
        # is the in-doubt window.
        self.delivery.replay(
            (key, record) for key, record in recovery.entries if key >= floor)
        self.delivery.replay_spool()

    def checkpoint(self) -> None:
        """Atomically persist progress: drain → emit → sync → snapshot →
        save.  After the drain nothing is in flight inside the engine,
        so its snapshot loses no alert; the journal is synced before
        the save, so every alert below the checkpointed watermark is
        durable before the checkpoint can claim it was emitted."""
        if self.checkpoints is None:
            return
        self.nids.drain()
        self._hand_over()
        self.journal.sync()
        head = self.ring.peek()
        if head is not None:
            resume_offset = head[1]
        elif self._held is not None:
            resume_offset = self._held[1]
        else:
            resume_offset = self.source.tell()
        self.checkpoints.save({
            "resume_offset": resume_offset,
            "engine": self.nids.snapshot_state(),
            "processed": self._processed.value,
            "shed": self.ring.shed_total,
            "backpressure": self.ring.backpressure_total,
            "alert_seq": self._alert_seq,
            "reloads": self.reloads,
        })
        # A resume replays only keys at or past the saved watermark and
        # new alerts take rising seqs: nothing below can be offered again.
        self.delivery.forget_below(self._alert_seq)
        self._last_checkpoint_processed = self._processed.value

    def _maybe_checkpoint(self) -> None:
        if self.checkpoints is None:
            return
        done = self._processed.value - self._last_checkpoint_processed
        if done >= self.checkpoint_interval:
            self.checkpoint()

    # -- the cooperative loop -------------------------------------------------

    def run(self, *, max_packets: int | None = None,
            stop: Callable[[], bool] | None = None) -> DaemonStats:
        """Run until the source finishes (and the ring drains), ``stop``
        returns true, ``max_packets`` have been processed, or the daemon
        has been idle for ``idle_timeout`` seconds."""
        started = self._clock()
        idle_since: float | None = None
        while True:
            # Poll the provider first so a changed library applies to
            # this tick's packets — nothing is judged by a stale set
            # once the swap is visible.
            self._maybe_reload()
            moved = self._ingest_tick()
            moved += self._process_tick(max_packets)
            self._maybe_checkpoint()
            if self._beat is not None and self._beat.due():
                self._emit_heartbeat()
            if self._window_sched is not None and self._window_sched.due():
                self.window.roll()
            if stop is not None and stop():
                break
            if max_packets is not None and self._processed.value >= max_packets:
                break
            if (self.source.finished and len(self.ring) == 0
                    and self._held is None):
                break
            if moved:
                idle_since = None
            else:
                # Nothing to do: collect what the engine still owes, so
                # a tailed capture's alerts never wait for more traffic.
                self.nids.drain()
                self._hand_over()
                now = self._clock()
                if idle_since is None:
                    idle_since = now
                elif (self.idle_timeout is not None
                      and now - idle_since >= self.idle_timeout):
                    break
                self._sleep(self.POLL_INTERVAL)
        return self._shutdown(started)

    def _ingest_tick(self) -> int:
        """Pull up to ``batch_size`` packets from the source into the
        ring.  Under the ``block`` policy a refused packet is held (the
        source stays unread — backpressure); drop policies shed inside
        the ring, counted there."""
        n = 0
        track = self.checkpoints is not None
        while n < self.batch_size:
            if self._held is not None:
                item, self._held = self._held, None
            else:
                origin = self.source.tell() if track else None
                pkt = self.source.poll()
                if pkt is None:
                    break
                self._ingested.inc()
                item = (pkt, origin)
            if not self.ring.offer(item) and self.ring.policy == "block":
                self._held = item  # retry after the ring drains
                break
            n += 1
        return n

    def _process_tick(self, max_packets: int | None) -> int:
        n = 0
        while n < self.batch_size:
            if (max_packets is not None
                    and self._processed.value >= max_packets):
                break
            item = self.ring.take()
            if item is None:
                break
            t0 = time.perf_counter()
            self.nids.process_packet(item[0])
            self._latency.observe(time.perf_counter() - t0)
            self._processed.inc()
            n += 1
            self._hand_over()
        return n

    def _hand_over(self) -> None:
        """Journal and deliver what the engine has handed out since the
        last call — ``nids.alerts`` holds it in the engine's one order,
        whichever call raised it — and let the engine forget it: a
        long-running service must not keep every alert it ever raised
        (``stats.alerts`` keeps the count)."""
        alerts = self.nids.alerts
        if alerts:
            for alert in alerts:
                self._emit(alert)
            alerts.clear()

    # -- periodic duties ------------------------------------------------------

    def _maybe_reload(self) -> None:
        if self.template_provider is None:
            return
        spec = self.template_provider()
        if spec is None:
            return
        if (self.nids.reload_template_set(spec) if isinstance(spec, str)
                else self.nids.reload_templates(spec)):
            self.reloads += 1

    def _emit_heartbeat(self) -> None:
        stats = self.nids.stats
        self._peak_rss.set(_peak_rss_bytes())
        line = (f"heartbeat: ingested={self._ingested.value} "
                f"processed={self._processed.value} "
                f"queued={len(self.ring)} shed={self.ring.shed_total} "
                f"alerts={stats.alerts} reloads={self.reloads} "
                f"rss_mb={self._peak_rss.value / 2**20:.1f}")
        if self.heartbeat_out is not None:
            self.heartbeat_out(line)

    def _emit(self, alert: Alert) -> None:
        """Alert egress: journal first (write-ahead), then deliver.

        A journal failure propagates — the daemon must not keep running
        while its durability backbone is gone (supervisors restart it;
        the journal tail is truncated and replayed on resume).
        """
        if self.journal is None:
            self._deliver(alert)
            return
        seq = self._alert_seq
        self._alert_seq += 1
        self.journal.append(seq, alert)
        self.delivery.deliver(seq, alert)

    def _deliver(self, alert: Alert) -> None:
        if self.on_alert is None:
            return
        try:
            self.on_alert(alert)
        except Exception as exc:  # noqa: BLE001 — operator code is untrusted
            self._firewall.contain_record(
                "deliver", reason="resilience.stage-fault",
                detail=f"{type(exc).__name__}: {exc}")

    # -- shutdown -------------------------------------------------------------

    def _shutdown(self, started: float) -> DaemonStats:
        self.nids.flush()
        self._hand_over()
        if self.checkpoints is not None:
            self.checkpoint()
            self.delivery.replay_spool()
            self.journal.close()
            self.delivery.close()
        if hasattr(self.source, "finalize"):
            self.source.finalize()
        if self.window is not None:
            self.window.roll()
        self._peak_rss.set(_peak_rss_bytes())
        if self._beat is not None:
            self._emit_heartbeat()
        return self.stats(duration=self._clock() - started)

    def stats(self, duration: float = 0.0) -> DaemonStats:
        return DaemonStats(
            ingested=self._ingested.value,
            processed=self._processed.value,
            shed=self.ring.shed_total,
            queued=len(self.ring) + (1 if self._held is not None else 0),
            backpressure_waits=self.ring.backpressure_total,
            alerts=self.nids.stats.alerts,
            reloads=self.reloads,
            windows=len(self.window.windows) if self.window else 0,
            duration=duration,
            checkpoints=self.checkpoints.saves if self.checkpoints else 0,
            replayed=self._replayed.value,
            deduped=self._deduped.value,
        )
