"""Tests for the always-on sensor daemon: bounded ingestion, counted
shedding, backpressure, hot reload, heartbeats, and rolling windows."""

import pytest

from repro.core.library import resolve_template_set
from repro.engines.shellcode import get_shellcode
from repro.net.packet import udp_packet
from repro.nids import (
    IterPacketSource,
    ParallelSemanticNids,
    SemanticNids,
    SensorDaemon,
)
from repro.traffic.mix import BenignMixGenerator


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, secs):
        self.now += secs


def _packets(n=60, seed=5):
    return BenignMixGenerator(seed=seed).generate_packets(n)[:n]


def _execve_packet(sport=1000):
    payload = bytes([0x90]) * 48 + get_shellcode("classic-execve").assemble()
    return udp_packet("6.6.6.6", "10.10.0.3", sport, 69, payload)


def _daemon(packets, nids=None, **kw):
    nids = nids if nids is not None else SemanticNids(
        classification_enabled=False)
    return SensorDaemon(nids, IterPacketSource(iter(packets)), **kw)


class TestAccounting:
    def test_clean_run_processes_everything(self):
        packets = _packets(50)
        daemon = _daemon(packets, ring_capacity=16, batch_size=8)
        stats = daemon.run()
        assert stats.ingested == len(packets)
        assert stats.processed == len(packets)
        assert stats.shed == 0
        assert stats.uncounted_drops == 0

    def test_shed_newest_is_counted_never_silent(self):
        """A ring smaller than one ingest batch must shed — and every
        shed packet shows up in the accounting identity."""
        packets = _packets(60)
        daemon = _daemon(packets, ring_capacity=4, batch_size=32,
                         shed_policy="newest")
        # ingest pulls 32/tick but the ring holds 4: the overflow sheds
        stats = daemon.run()
        assert stats.shed > 0
        assert stats.processed == stats.ingested - stats.shed
        assert stats.uncounted_drops == 0
        reg = daemon.nids.registry
        assert reg.get("repro_shed_packets_total",
                       {"policy": "newest"}).value == stats.shed

    def test_block_policy_never_loses_a_packet(self):
        packets = _packets(60)
        daemon = _daemon(packets, ring_capacity=4, batch_size=32,
                         shed_policy="block")
        stats = daemon.run()
        assert stats.shed == 0
        assert stats.backpressure_waits > 0  # the source was paused
        assert stats.processed == len(packets)
        assert stats.uncounted_drops == 0

    def test_max_packets_leaves_queue_accounted(self):
        packets = _packets(50)
        daemon = _daemon(packets, ring_capacity=64, batch_size=8)
        stats = daemon.run(max_packets=10)
        assert stats.processed == 10
        assert stats.uncounted_drops == 0  # rest is queued or unread

    def test_alerts_flow_through_callback(self):
        received = []
        packets = list(_packets(10)) + [_execve_packet()]
        nids = SemanticNids(classification_enabled=False)
        daemon = _daemon(packets, nids=nids, on_alert=received.append)
        daemon.run()
        assert [a.template for a in received] == ["linux_shell_spawn"]

    def test_delivered_alerts_are_not_hoarded_by_the_engine(self):
        """A long-running service must not keep every ``Alert`` (and its
        ``TemplateMatch``) it ever raised: once the daemon has taken an
        alert the engine lets it go, and the count lives in the stats."""
        received = []
        packets = [_execve_packet(sport=1000 + i) for i in range(5)]
        packets[2:2] = _packets(10)
        nids = SemanticNids(classification_enabled=False)
        stats = _daemon(packets, nids=nids, batch_size=4,
                        on_alert=received.append).run()
        assert len(received) == 5 == stats.alerts == nids.stats.alerts
        assert nids.alerts == []

    def test_broken_alert_callback_is_contained(self):
        def explode(alert):
            raise RuntimeError("operator bug")

        packets = [_execve_packet()]
        nids = SemanticNids(classification_enabled=False)
        daemon = _daemon(packets, nids=nids, on_alert=explode)
        stats = daemon.run()  # must not raise
        assert stats.processed == 1
        assert nids.firewall.faults_by_stage().get("deliver") == 1

    def test_broken_alert_callback_is_counted_under_a_fleet_engine(self):
        """Regression: a fleet has no ``firewall`` attribute, and the
        daemon used to swallow the sink's exception with no count at
        all.  Never silent — same ``deliver`` series as the serial
        engine, on the registry the daemon reports from."""
        from repro.nids import SensorFleet

        def explode(alert):
            raise RuntimeError("operator bug")

        fleet = SensorFleet(
            workers=1, nids_options={"classification_enabled": False})
        try:
            stats = _daemon([_execve_packet()], nids=fleet,
                            on_alert=explode).run()  # must not raise
        finally:
            fleet.close()
        assert stats.processed == 1 and stats.alerts == 1
        faults = fleet.registry.get("repro_stage_faults_total",
                                    {"stage": "deliver"})
        assert faults is not None and faults.value == 1


class TestPeriodicDuties:
    def test_heartbeat_fires_on_the_deadline_grid(self):
        clock = FakeClock()
        lines = []
        packets = _packets(40)
        source = IterPacketSource(iter(packets))
        nids = SemanticNids(classification_enabled=False)
        daemon = SensorDaemon(nids, source, batch_size=4, heartbeat=10.0,
                              heartbeat_out=lines.append, clock=clock,
                              sleep=lambda s: None)
        # each tick takes 3s of fake time
        orig_ingest = daemon._ingest_tick

        def slow_ingest():
            clock.advance(3.0)
            return orig_ingest()

        daemon._ingest_tick = slow_ingest
        daemon.run()
        # beats at t=12, 21, 30 (first poll past each 10s deadline), plus
        # the final shutdown beat; the grid never drifts with tick cost
        assert len(lines) >= 2
        assert all("heartbeat:" in line for line in lines)

    def test_windows_roll_on_schedule(self):
        clock = FakeClock()
        packets = _packets(40)
        nids = SemanticNids(classification_enabled=False)
        daemon = SensorDaemon(nids, IterPacketSource(iter(packets)),
                              batch_size=4, window_secs=5.0, clock=clock,
                              sleep=lambda s: None)
        orig = daemon._ingest_tick

        def slow(clock=clock, orig=orig):
            clock.advance(2.0)
            return orig()

        daemon._ingest_tick = slow
        stats = daemon.run()
        assert stats.windows >= 2
        latest = daemon.window.latest
        assert latest is not None
        # the daemon's latency histogram is windowed alongside
        key = ("repro_daemon_processed_total", ())
        total = sum(w.counters.get(key, 0) for w in daemon.window.windows)
        assert total == stats.processed

    def test_idle_timeout_ends_a_quiet_run(self):
        clock = FakeClock()

        class Quiet:
            finished = False

            def poll(self):
                return None

        nids = SemanticNids(classification_enabled=False)
        daemon = SensorDaemon(nids, Quiet(), idle_timeout=30.0, clock=clock,
                              sleep=lambda s: clock.advance(10.0))
        stats = daemon.run()
        assert stats.processed == 0
        assert clock.now >= 30.0


class TestHotReload:
    def test_provider_swaps_library_mid_run(self):
        """The daemon polls the provider between batches: packets before
        the swap are judged by the old library, packets after by the
        new — with no packet lost across the swap."""
        specs = iter(["xor-only", "paper"])

        def provider():
            return next(specs, None)

        clean_then_hot = [_execve_packet(3000), _execve_packet(3001)]
        nids = SemanticNids(templates=resolve_template_set("xor-only"),
                            classification_enabled=False)
        received = []
        daemon = SensorDaemon(nids, IterPacketSource(iter(clean_then_hot)),
                              batch_size=1, template_provider=provider,
                              on_alert=received.append)
        stats = daemon.run()
        assert stats.reloads == 1
        assert stats.processed == 2
        assert stats.uncounted_drops == 0
        # first packet: xor-only (clean); second: paper (alerts)
        assert [a.template for a in received] == ["linux_shell_spawn"]

    def test_provider_same_set_never_reloads(self):
        nids = SemanticNids(templates=resolve_template_set("paper"),
                            classification_enabled=False)
        daemon = _daemon(_packets(20), nids=nids, batch_size=4,
                         template_provider=lambda: "paper")
        stats = daemon.run()
        assert stats.reloads == 0
        assert nids.registry.get("repro_template_reloads_total").value == 0

    def test_provider_reloads_parallel_engine_by_set_name(self):
        specs = iter(["xor-only", "paper"])
        with ParallelSemanticNids(workers=2, template_set="xor-only",
                                  classification_enabled=False) as nids:
            received = []
            daemon = SensorDaemon(
                nids,
                IterPacketSource(iter([_execve_packet(4000),
                                       _execve_packet(4001)])),
                batch_size=1,
                template_provider=lambda: next(specs, None),
                on_alert=received.append)
            stats = daemon.run()
            assert stats.reloads == 1
            assert nids.template_set == "paper"
            assert [a.template for a in received] == ["linux_shell_spawn"]


class TestCheckpointGate:
    def test_parallel_engine_is_refused(self, tmp_path):
        """Regression: the gate was ``hasattr(nids, "snapshot_state")``,
        which the parallel engine inherits — so it was checkpointed
        with payloads still in flight to its workers, and a crash after
        that checkpoint silently lost their alerts."""
        with ParallelSemanticNids(workers=2,
                                  classification_enabled=False) as nids:
            assert not nids.checkpointable
            with pytest.raises(ValueError, match="checkpointable"):
                SensorDaemon(nids, IterPacketSource(iter([])),
                             checkpoint_dir=tmp_path / "state")
        assert not (tmp_path / "state").exists()

    def test_serial_engine_is_accepted(self, tmp_path):
        nids = SemanticNids(classification_enabled=False)
        assert nids.checkpointable
        daemon = SensorDaemon(nids, IterPacketSource(iter([])),
                              checkpoint_dir=tmp_path / "state")
        assert daemon.checkpoints is not None


class TestStatsInvariant:
    @pytest.mark.parametrize("policy", ["newest", "oldest", "block"])
    def test_identity_holds_for_every_policy(self, policy):
        packets = _packets(60)
        daemon = _daemon(packets, ring_capacity=3, batch_size=16,
                         shed_policy=policy)
        stats = daemon.run()
        assert stats.ingested == stats.processed + stats.shed + stats.queued
        if policy == "block":
            assert stats.shed == 0
