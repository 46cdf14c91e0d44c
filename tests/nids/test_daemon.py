"""Tests for the always-on sensor daemon: bounded ingestion, counted
shedding, backpressure, hot reload, heartbeats, and rolling windows."""

import pytest

from repro.core.library import resolve_template_set
from repro.engines.shellcode import get_shellcode
from repro.net.packet import udp_packet
from repro.net.pcap import PcapReader, read_pcap, write_pcap
from repro.nids import (
    IterPacketSource,
    MetaPacketSource,
    ParallelSemanticNids,
    SemanticNids,
    SensorDaemon,
    SensorFleet,
)
from repro.resilience.recovery import (
    run_daemon_reference,
    run_daemon_with_crashes,
)
from repro.traffic.mix import BenignMixGenerator
from repro.traffic.traces import build_table3_trace


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
        # ...and the floor it reports is the dispatcher's own, whatever
        # the workers' registries (which never set it) shipped at close
        assert fleet.registry.get("repro_process_peak_rss_bytes").value > 0


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
        # every field is key=number, and the last one is the process floor
        fields = dict(f.split("=") for f in lines[-1].split()[1:])
        assert all(float(v) >= 0 for v in fields.values())
        gauge = nids.registry.get("repro_process_peak_rss_bytes")
        assert gauge.value > 0
        assert float(fields["rss_mb"]) == round(gauge.value / 2**20, 1)

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
    def test_parallel_engine_checkpoints_and_resumes_with_replay_parity(
            self, tmp_path):
        """The gate is gone: the daemon drains an engine before it
        snapshots it, so the parallel engine — whose inherited snapshot
        counts payloads still in flight to workers as analyzed — is
        checkpointed like the serial one, and a killed run replays to
        the uninterrupted stream."""
        def factory():
            return ParallelSemanticNids(workers=2,
                                        classification_enabled=False)

        packets = _packets(150)
        for i, at in enumerate(range(20, 150, 25)):
            packets[at] = _execve_packet(sport=5000 + i)

        def source():
            return IterPacketSource(packets)

        reference, _ = run_daemon_reference(source, nids_factory=factory)
        assert len(reference) == 6
        report = run_daemon_with_crashes(
            source, nids_factory=factory, checkpoint_dir=tmp_path / "state",
            kills=[50, 110], checkpoint_interval=30, engine="parallel")
        assert report.crashes == 2 and report.checkpoints >= 2
        assert report.alert_lines == reference
        assert report.uncounted_drops == 0
        offloaded = report.registry.get("repro_payloads_offloaded_total")
        assert offloaded.value > 0  # the workers really were in the loop

    def test_serial_engine_is_accepted(self, tmp_path):
        nids = SemanticNids(classification_enabled=False)
        daemon = SensorDaemon(nids, IterPacketSource(iter([])),
                              checkpoint_dir=tmp_path / "state")
        assert daemon.checkpoints is not None

    def test_delivery_keeps_one_checkpoint_interval_of_keys(self, tmp_path):
        """A key below the checkpointed alert seq can never be offered
        again, so each checkpoint lets the dedupe set forget below it:
        10,000 alerts, never more than an interval of keys held (one per
        alert, for the life of the daemon, before)."""
        packets = [_execve_packet(sport=1000 + i) for i in range(10_000)]
        delivered = []
        daemon = SensorDaemon(
            SemanticNids(classification_enabled=False),
            IterPacketSource(packets), shed_policy="block", batch_size=50,
            checkpoint_dir=tmp_path / "state", checkpoint_interval=100,
            journal_fsync_batch=1000, on_alert=delivered.append)
        held = []
        stats = daemon.run(
            stop=lambda: held.append(len(daemon.delivery.seen)))
        assert len(delivered) == stats.alerts == 10_000
        assert stats.checkpoints >= 100 and stats.deduped == 0
        assert max(held) <= 100 and len(daemon.delivery.seen) == 0


DARK = dict(dark_networks=["10.0.0.0/8"], dark_exclude=["10.10.0.0/24"])

ENGINES = {
    "serial": lambda: SemanticNids(**DARK),
    "parallel": lambda: ParallelSemanticNids(workers=2, **DARK),
    "fleet-pickle": lambda: SensorFleet(workers=2, nids_options=DARK),
    "fleet-offset": lambda: SensorFleet(workers=2, transport="offset",
                                        nids_options=DARK),
}


class QuietSpell:
    """A source that goes quiet for a few polls mid-capture, the way a
    tailed file does between bursts."""

    def __init__(self, inner, after, polls=3):
        self.inner, self.after, self.polls = inner, after, polls
        self.served = 0

    @property
    def finished(self):
        return self.inner.finished

    def poll(self):
        if self.served == self.after and self.polls:
            self.polls -= 1
            return None
        item = self.inner.poll()
        self.served += item is not None
        return item


class TestEveryEngineUnderTheDaemon:
    @pytest.fixture(scope="class")
    def capture(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("daemon") / "table3.pcap"
        write_pcap(path, build_table3_trace(2, target_packets=2500,
                                            seed=1000).packets)
        return str(path)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_alerts_flow_and_nothing_is_hoarded(self, capture, engine):
        """Alerts reach the sink while the capture is still being fed —
        at the latest on the next idle tick, not at shutdown — and once
        delivered (shutdown flush included) no engine keeps them."""
        serial = SemanticNids(**DARK)
        expected = [a.format() for a in serial.process_trace(read_pcap(capture))]
        total = serial.stats.packets
        assert len(expected) == 4

        nids = ENGINES[engine]()
        delivered = []
        with PcapReader(capture) as reader:
            inner = (MetaPacketSource(reader) if engine == "fleet-offset"
                     else IterPacketSource(iter(reader)))
            daemon = SensorDaemon(
                nids, QuietSpell(inner, after=total - 300),
                sleep=lambda secs: None,
                on_alert=lambda alert: delivered.append(
                    (daemon._processed.value, alert.format())))
            try:
                stats = daemon.run()
            finally:
                nids.close()
        assert stats.processed == total and stats.alerts == 4
        assert sorted(line for _at, line in delivered) == sorted(expected)
        assert delivered[0][0] <= total - 300 < total
        assert nids.alerts == []
        assert getattr(nids, "_collected", []) == []


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
