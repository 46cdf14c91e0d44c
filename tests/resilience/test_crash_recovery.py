"""Differential crash-recovery suite: kill, restart, replay, compare.

The headline invariant of the durability layer, per docs/operations.md:
for *any* seeded crash schedule, the post-dedupe alert stream a
crashed-and-restarted sensor delivers is **byte-identical** to an
uninterrupted run, and ``ingested == processed + shed + queued`` still
holds across every restart — for every engine, because the daemon is
the one durability layer and ``run_daemon_with_crashes`` the one
orchestrator.  Seeded like the chaos suite — the CI ``crash-recovery``
job runs this file once per ``CHAOS_SEEDS`` entry.
"""

import os
import random
import sys
from pathlib import Path

import pytest

from repro.engines.shellcode import get_shellcode
from repro.net.packet import udp_packet
from repro.nids import (DaemonOptions, IterPacketSource, SemanticNids,
                        SensorDaemon)
from repro.nids.fleet import SensorFleet
from repro.resilience import FaultInjector, tear_journal_tail
from repro.resilience.recovery import (
    KILL_KINDS,
    capture_sources,
    run_daemon_reference,
    run_daemon_with_crashes,
)
from repro.traffic.mix import BenignMixGenerator

# The engine axis of the kill matrix is defined once, by the CI tool.
sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "tools"))
from crash_matrix import ENGINES  # noqa: E402

SEEDS = [int(s) for s in
         os.environ.get("CHAOS_SEEDS", "0,1,2").split(",")]


def _execve_packet(src, sport, at):
    payload = bytes([0x90]) * 48 + get_shellcode("classic-execve").assemble()
    return udp_packet(src, "10.10.0.3", sport, 69, payload, timestamp=at)


def crash_trace(n=260, seed=5, attacks=6):
    """Benign mix with attack payloads spread through it, so kills land
    both before and after alert-producing packets."""
    packets = BenignMixGenerator(seed=seed).generate_packets(n)[:n]
    step = max(1, n // (attacks + 1))
    for i in range(attacks):
        at = step * (i + 1)
        packets[at] = _execve_packet(f"6.6.{i}.6", 1000 + i,
                                     float(packets[at].timestamp))
    return packets


def kill_schedule(seed, n, kills=2):
    """Seeded global marks, away from the trace edges so every
    incarnation both processes packets and leaves work behind."""
    rng = random.Random(seed)
    return sorted(rng.sample(range(20, n - 20), kills))


def nids_factory():
    return SemanticNids(classification_enabled=False)


def sources(packets):
    """A source factory over an in-memory trace."""
    return lambda: IterPacketSource(packets)


class TestDaemonReplayParity:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("kill_kind", KILL_KINDS)
    def test_crashed_stream_is_byte_identical(self, tmp_path, seed,
                                              kill_kind):
        packets = crash_trace(seed=seed)
        reference, ref_stats = run_daemon_reference(
            sources(packets), nids_factory=nids_factory)
        assert reference, "trace must produce alerts or parity is vacuous"

        injector = FaultInjector(seed=seed)
        report = run_daemon_with_crashes(
            sources(packets), nids_factory=nids_factory,
            checkpoint_dir=tmp_path,
            kills=kill_schedule(seed, len(packets)),
            kill_kind=kill_kind, checkpoint_interval=40,
            journal_fsync_batch=4, injector=injector)

        assert report.crashes >= 1, "a crash run that never crashed proves nothing"
        assert [f for f in injector.injected if f.kind == "crash"]
        assert report.alert_lines == reference
        assert report.uncounted_drops == 0
        assert report.checkpoints >= 1

    def test_accounting_identity_survives_restarts(self, tmp_path):
        packets = crash_trace(seed=1)
        report = run_daemon_with_crashes(
            sources(packets), nids_factory=nids_factory,
            checkpoint_dir=tmp_path,
            kills=kill_schedule(1, len(packets)), checkpoint_interval=40)
        registry = report.registry
        ingested = registry.get("repro_daemon_ingested_total").value
        processed = registry.get("repro_daemon_processed_total").value
        # block policy + completed run: nothing shed, nothing queued —
        # the restored counters keep the identity across incarnations
        assert ingested == processed == len(packets)
        assert report.uncounted_drops == 0

    def test_no_kills_degenerates_to_clean_run(self, tmp_path):
        packets = crash_trace(seed=2)
        reference, _ = run_daemon_reference(sources(packets),
                                            nids_factory=nids_factory)
        report = run_daemon_with_crashes(
            sources(packets), nids_factory=nids_factory,
            checkpoint_dir=tmp_path,
            kills=[], checkpoint_interval=40)
        assert report.crashes == 0
        assert report.incarnations == 1
        assert report.alert_lines == reference


class TestDaemonTornTail:
    def test_resume_over_torn_journal_tail(self, tmp_path):
        """A crash that also tears the last journal frame (power cut
        mid-write): recovery truncates the torn frame and parity still
        holds — the torn alert is regenerated from the checkpointed
        position."""
        packets = crash_trace(seed=3)
        reference, _ = run_daemon_reference(sources(packets),
                                            nids_factory=nids_factory)
        report = run_daemon_with_crashes(
            sources(packets), nids_factory=nids_factory,
            checkpoint_dir=tmp_path,
            kills=kill_schedule(3, len(packets)),
            kill_kind="mid-journal-write", checkpoint_interval=40,
            journal_fsync_batch=1)
        assert report.crashes >= 1
        assert report.alert_lines == reference

    def test_offline_tear_before_resume(self, tmp_path):
        """Tear the journal tail *between* incarnations — disk damage
        discovered only at restart must not poison the resume."""
        packets = crash_trace(seed=4)
        reference, _ = run_daemon_reference(sources(packets),
                                            nids_factory=nids_factory)
        kills = kill_schedule(4, len(packets), kills=1)
        # first leg: run to the crash, then damage the tail on disk
        report = run_daemon_with_crashes(
            sources(packets), nids_factory=nids_factory,
            checkpoint_dir=tmp_path,
            kills=kills, checkpoint_interval=40, journal_fsync_batch=1,
            max_incarnations=1)
        assert report.crashes == 1
        tear_journal_tail(tmp_path / "journal", drop=3)
        # second leg: resume over the torn tail and finish
        report = run_daemon_with_crashes(
            sources(packets), nids_factory=nids_factory,
            checkpoint_dir=tmp_path,
            kills=[], checkpoint_interval=40)
        assert report.alert_lines == reference


class TestEveryEngineReplayParity:
    """The same invariant through the same orchestrator for the other
    three engines (the serial one is ``TestDaemonReplayParity``): each
    is drained before its snapshot, so a checkpoint never covers an
    alert still in flight to a worker."""

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("kill_kind", KILL_KINDS)
    @pytest.mark.parametrize("engine", [e for e in ENGINES if e != "serial"])
    def test_crashed_stream_is_byte_identical(self, tmp_path, engine, seed,
                                              kill_kind):
        factory, meta = ENGINES[engine]
        feed = capture_sources(crash_trace(n=220, seed=seed),
                               tmp_path / "trace.pcap", meta=meta)
        reference, _ = run_daemon_reference(feed, nids_factory=factory)
        assert reference

        report = run_daemon_with_crashes(
            feed, nids_factory=factory, checkpoint_dir=tmp_path / "state",
            kills=kill_schedule(seed, 220, kills=1),
            kill_kind=kill_kind, checkpoint_interval=60, engine=engine)
        assert report.crashes >= 1
        assert report.alert_lines == reference
        assert report.uncounted_drops == 0
        assert report.checkpoints >= 1

    @pytest.mark.parametrize("engine", ["parallel", "fleet-pickle"])
    def test_checkpoint_never_covers_an_alert_in_flight(self, tmp_path,
                                                        engine):
        """A checkpoint after *every* packet and a kill right behind
        each attack: the attack's alert is still on its way back from a
        worker when the checkpoint that covers its packet is taken, so
        without the drain it would be lost for good (never journaled,
        never regenerated)."""
        factory, _ = ENGINES[engine]
        packets = crash_trace(n=120, seed=2, attacks=4)
        attacks = [i for i, pkt in enumerate(packets)
                   if pkt.src.startswith("6.6.")]
        options = DaemonOptions(batch_size=1)
        reference, _ = run_daemon_reference(
            sources(packets), nids_factory=factory, options=options)
        assert len(reference) == len(attacks) == 4

        report = run_daemon_with_crashes(
            sources(packets), nids_factory=factory, checkpoint_dir=tmp_path,
            kills=[at + 1 for at in attacks], checkpoint_interval=1,
            options=options, engine=engine)
        assert report.crashes == 4
        assert report.alert_lines == reference


class TestFleetRefusesForeignSnapshots:
    """``restore_state`` refuses what the fleet's own resume used to."""

    def _checkpointed(self, tmp_path, **fleet_options):
        fleet = SensorFleet(nids_options={"classification_enabled": False},
                            **fleet_options)
        try:
            SensorDaemon(fleet, IterPacketSource(crash_trace(n=80)),
                         checkpoint_dir=tmp_path,
                         checkpoint_interval=30).run()
        finally:
            fleet.close()

    def _resume(self, tmp_path, **fleet_options):
        fleet = SensorFleet(nids_options={"classification_enabled": False},
                            **fleet_options)
        try:
            SensorDaemon(fleet, IterPacketSource(crash_trace(n=80)),
                         checkpoint_dir=tmp_path, resume=True)
        finally:
            fleet.close()

    def test_other_worker_count(self, tmp_path):
        self._checkpointed(tmp_path, workers=2)
        with pytest.raises(ValueError, match="2 shard snapshots"):
            self._resume(tmp_path, workers=3)

    def test_other_template_library(self, tmp_path):
        self._checkpointed(tmp_path, workers=2)
        with pytest.raises(ValueError, match="different template library"):
            self._resume(tmp_path, workers=2, template_set="xor-only")

    def test_same_layout_is_accepted(self, tmp_path):
        self._checkpointed(tmp_path, workers=2)
        self._resume(tmp_path, workers=2)


class TestFleetWatchdog:
    def test_shard_kill_is_absorbed_and_replayed(self, tmp_path):
        """SIGKILL one shard's workers mid-run, under a checkpointing
        daemon: the watchdog respawns the pool from the last barrier
        snapshot, resubmits the recorded batches, and the delivered
        stream still matches an undisturbed run."""
        packets = crash_trace(n=220, seed=6)
        factory, _ = ENGINES["fleet-pickle"]
        reference, _ = run_daemon_reference(sources(packets),
                                            nids_factory=factory)

        injector = FaultInjector(seed=6)
        fleet = SensorFleet(
            workers=2, nids_options={"classification_enabled": False},
            watchdog_timeout=30.0)
        delivered = []
        daemon = SensorDaemon(fleet, IterPacketSource(packets),
                              shed_policy="block", batch_size=32,
                              checkpoint_dir=tmp_path, checkpoint_interval=60,
                              on_alert=delivered.append)
        feed = fleet.process_packet

        def kill_then_feed(pkt):
            if daemon._processed.value == 110:
                injector.kill_shard(fleet, 0)
            return feed(pkt)

        fleet.process_packet = kill_then_feed
        try:
            stats = daemon.run()
        finally:
            fleet.close()

        assert [f for f in injector.injected if f.kind == "worker-kill"]
        assert fleet.stats.watchdog_restarts >= 1
        assert stats.checkpoints >= 1 and stats.uncounted_drops == 0
        assert [alert.format() for alert in delivered] == reference
