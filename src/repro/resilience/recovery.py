"""Crash/restart orchestration: kill, restart, replay, compare.

The durability layer's headline invariant is *replay parity*: for any
seeded crash schedule, the post-dedupe alert stream a crashed-and-
restarted sensor delivers is **byte-identical** to the stream an
uninterrupted run delivers, and the accounting invariant ``ingested ==
processed + shed + queued`` still holds across every restart.  This
module is the harness that proves it — shared by the differential tests
(``tests/resilience/test_crash_recovery.py``), the scenario runner's
``chaos.crash`` path, and the CI kill-matrix tool
(``tools/crash_matrix.py``).

There is one orchestrator for every engine, because there is one
durability layer (:class:`~repro.nids.SensorDaemon`): callers hand it an
engine factory (serial, parallel or fleet) and a source factory
(:func:`capture_sources`).  One run is a loop of *incarnations*: build a
fresh daemon over the same capture and the same checkpoint directory,
arm the next kill from the schedule, run until the kill fires (the
incarnation is then abandoned exactly as a dead process would be — no
clean-shutdown path executes, and the journal's userspace write buffer
is discarded), and resume the next incarnation from the checkpoints.
Kills land at three seams:

- ``mid-batch`` — between two packets of a processing batch;
- ``mid-checkpoint`` — after the checkpoint temp file is durable but
  before the atomic rename publishes it;
- ``mid-journal-write`` — inside a journal ``write()``, leaving a torn
  (partial, CRC-failing) frame on disk.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Sequence

from .chaos import FaultInjector, InjectedFault, SimulatedCrash
from .delivery import DurableDelivery
from .journal import AlertJournal

if TYPE_CHECKING:
    from ..nids.options import DaemonOptions

__all__ = ["KILL_KINDS", "RecoveryReport", "capture_sources",
           "run_daemon_reference", "run_daemon_with_crashes"]

#: The three seams a kill can land on (see module docstring).
KILL_KINDS = ("mid-batch", "mid-checkpoint", "mid-journal-write")


@dataclass
class RecoveryReport:
    """What one crash schedule did, and whether recovery held up."""

    engine: str
    kill_kind: str
    kills: list[int]
    incarnations: int = 0
    crashes: int = 0
    checkpoints: int = 0
    replayed: int = 0
    deduped: int = 0
    watchdog_restarts: int = 0
    uncounted_drops: int | None = None
    #: live post-dedupe alerts, in delivery order
    alerts: list = field(default_factory=list, repr=False)
    #: rendered post-dedupe alert stream, in delivery order
    alert_lines: list[str] = field(default_factory=list)
    #: the uninterrupted run's stream (empty until a reference is bound)
    reference_lines: list[str] = field(default_factory=list)
    #: the final (surviving) incarnation's metrics registry
    registry: object = field(default=None, repr=False)

    @property
    def parity(self) -> bool:
        """Byte-identity of the recovered stream vs the reference."""
        return self.alert_lines == self.reference_lines

    def as_dict(self) -> dict:
        return {
            "engine": self.engine,
            "kill_kind": self.kill_kind,
            "kills": list(self.kills),
            "incarnations": self.incarnations,
            "crashes": self.crashes,
            "checkpoints": self.checkpoints,
            "replayed": self.replayed,
            "deduped": self.deduped,
            "watchdog_restarts": self.watchdog_restarts,
            "uncounted_drops": self.uncounted_drops,
            "alerts": len(self.alert_lines),
            "reference_alerts": len(self.reference_lines),
            "parity": self.parity,
        }


# ---------------------------------------------------------------------------
# Crash fidelity helpers
# ---------------------------------------------------------------------------


def _abandon_journal(journal: AlertJournal | None) -> None:
    """Discard the journal's userspace write buffer, as process death
    would.  Python file objects flush on GC, which would quietly make
    un-fsynced appends durable and falsify the crash — so the kernel-
    visible size is measured first and the file is truncated back to it
    after the (unavoidable) flush-on-close.
    """
    if journal is None or journal._fh is None:
        return
    fh = journal._fh
    visible = os.fstat(fh.fileno()).st_size
    path = journal._segment_path(journal._segment_index)
    fh.close()
    journal._fh = None
    with open(path, "r+b") as raw:
        raw.truncate(visible)


@contextmanager
def _arm_kill(injector: FaultInjector, kill_kind: str, kill_at: int | None,
              daemon):
    """Install the seam for one kill (``kill_at`` is a global
    processed-packet mark); always restored on exit."""
    store, journal = daemon.checkpoints, daemon.journal
    if kill_at is None:
        yield
        return
    if kill_kind == "mid-batch":
        with injector.crash_on_processed(daemon, kill_at):
            yield
        return
    if kill_kind == "mid-checkpoint":
        previous = store.pre_rename

        def explode(tmp_path):
            if daemon._processed.value >= kill_at:
                injector.injected.append(InjectedFault(
                    "crash", kill_at, detail="mid-checkpoint"))
                raise SimulatedCrash(
                    f"chaos: killed before checkpoint rename at {kill_at}")
            if previous is not None:
                previous(tmp_path)

        store.pre_rename = explode
        try:
            yield
        finally:
            store.pre_rename = previous
        return
    if kill_kind == "mid-journal-write":
        original = journal.append

        def tearing(key, alert):
            if (daemon._processed.value >= kill_at
                    and journal._tear_after_bytes is None):
                injector.crash_on_journal_write(journal)
            return original(key, alert)

        journal.append = tearing
        try:
            yield
        finally:
            journal.append = original
        return
    raise ValueError(f"unknown kill kind {kill_kind!r}; "
                     f"expected one of {KILL_KINDS}")


def _dedupe_stream(delivered: list[tuple]) -> list:
    """Keep-first dedupe by alert seq across incarnations, then order by
    seq — the effectively-once stream an operator's sink reconstructs."""
    seen: set = set()
    unique = []
    for key, alert in delivered:
        if key in seen:
            continue
        seen.add(key)
        unique.append((key, alert))
    unique.sort(key=lambda pair: pair[0])
    return [alert for _, alert in unique]


# ---------------------------------------------------------------------------
# Orchestration
# ---------------------------------------------------------------------------


def capture_sources(packets, capture_path, *, meta: bool = False) -> Callable:
    """Write ``packets`` to ``capture_path`` once and return a factory
    of fresh daemon sources over that file — decoded packets, or record
    boundaries (``meta``, the offset fleet's feed).  Every incarnation
    and the reference then read the identical bytes: pcap rounds
    timestamps to microseconds, so feeding some runs from memory and
    others from disk would break byte-parity for reasons that have
    nothing to do with crash recovery."""
    from ..net.pcap import PcapReader, read_pcap, write_pcap
    from ..nids.daemon import IterPacketSource, MetaPacketSource

    capture_path = os.fspath(capture_path)
    write_pcap(capture_path, packets)
    if meta:
        return lambda: MetaPacketSource(PcapReader(capture_path))
    decoded = read_pcap(capture_path)
    return lambda: IterPacketSource(decoded)


def run_daemon_reference(
    source_factory: Callable,
    *,
    nids_factory: Callable,
    options: DaemonOptions | None = None,
):
    """The uninterrupted run: no durability, plain ``on_alert`` egress;
    ``options`` is the daemon's :class:`~repro.nids.DaemonOptions`
    (always run under the lossless ``block`` policy).

    Returns ``(alert_lines, stats)``.
    """
    from ..nids.daemon import SensorDaemon

    collected = []
    nids = nids_factory()
    try:
        stats = SensorDaemon(
            nids, source_factory(), options, shed_policy="block",
            on_alert=collected.append).run()
    finally:
        nids.close()
    return [alert.format() for alert in collected], stats


def run_daemon_with_crashes(
    source_factory: Callable,
    *,
    nids_factory: Callable,
    checkpoint_dir,
    kills: Sequence[int],
    kill_kind: str = "mid-batch",
    checkpoint_interval: int = 50,
    journal_fsync_batch: int = 4,
    options: DaemonOptions | None = None,
    injector: FaultInjector | None = None,
    max_incarnations: int = 32,
    engine: str = "daemon",
) -> RecoveryReport:
    """Run the daemon — over whichever engine ``nids_factory`` builds —
    under a kill schedule; every crash abandons the incarnation (no
    shutdown path; worker processes are killed) and the next one resumes
    from the checkpoint directory.  ``kills`` are global
    processed-packet marks; ``engine`` only labels the report.
    """
    from ..nids.daemon import SensorDaemon

    injector = injector if injector is not None else FaultInjector()
    pending = sorted(kills)
    delivered: list[tuple] = []
    report = RecoveryReport(engine=engine, kill_kind=kill_kind,
                            kills=list(pending))
    resume = False
    while report.incarnations < max_incarnations:
        report.incarnations += 1
        nids = nids_factory()
        delivery = DurableDelivery(
            lambda key, alert: delivered.append((key, alert)),
            registry=nids.registry)
        daemon = SensorDaemon(
            nids, source_factory(), options, shed_policy="block",
            checkpoint_dir=checkpoint_dir,
            checkpoint_interval=checkpoint_interval,
            journal_fsync_batch=journal_fsync_batch,
            resume=resume, delivery=delivery)
        resume = True
        kill_at = pending[0] if pending else None
        completed = False
        try:
            with _arm_kill(injector, kill_kind, kill_at, daemon):
                stats = daemon.run()
            completed = True
            nids.close()
            if pending:  # armed but the run outlived the kill point
                pending.pop(0)
        except (SimulatedCrash, OSError):
            report.crashes += 1
            pending.pop(0)
            _abandon_journal(daemon.journal)
            injector.kill_workers(nids)
        totals = daemon.stats()
        report.checkpoints += totals.checkpoints
        report.replayed += totals.replayed
        report.deduped += totals.deduped
        report.watchdog_restarts += nids.stats.watchdog_restarts
        if completed:
            report.uncounted_drops = stats.uncounted_drops
            report.registry = nids.registry
            break
    report.alerts = _dedupe_stream(delivered)
    report.alert_lines = [alert.format() for alert in report.alerts]
    return report
