"""Transport parity suite: the fleet's verdicts are transport-invariant.

The transports (in-band pickle triples, pcap-offset extents) are pure
plumbing — they move the same wire bytes to the same sharded engines
by different roads.  This suite proves it: for a dark-config
Table 3 trace and for adversarially-delivered (evasion gauntlet)
traffic, every transport must emit the byte-identical alert stream a
serial :class:`SemanticNids` run over the same capture produces — and
must keep producing it across the crash-seam kill matrix with the
accounting intact (``uncounted_drops == 0``).

Every run is fed from a pcap file: that is the only source the offset
transport can dispatch from, and the round-trip pins timestamps to pcap
microsecond precision so "byte-identical" compares like with like.
"""

import pytest

from repro.engines.shellcode import get_shellcode
from repro.net.packet import udp_packet
from repro.net.pcap import PcapReader, read_pcap, write_pcap
from repro.nids import MetaPacketSource, SemanticNids, SensorDaemon
from repro.nids.fleet import FLEET_TRANSPORTS, SensorFleet
from repro.resilience.recovery import (
    capture_sources,
    run_daemon_reference,
    run_daemon_with_crashes,
)
from repro.traffic import apply_evasion
from repro.traffic.traces import build_table3_trace

DARK = dict(dark_networks=["10.0.0.0/8"], dark_exclude=["10.10.0.0/24"],
            dark_threshold=5)

#: Transforms that stress both reassembly front ends (IP fragments and
#: TCP segments) without needing the full gauntlet's runtime.
GAUNTLET = ["tiny-fragments", "fragment-overlap-reorder",
            "tcp-overlap-retransmit"]


def _execve_packet(src, sport, at):
    payload = bytes([0x90]) * 48 + get_shellcode("classic-execve").assemble()
    return udp_packet(src, "10.10.0.3", sport, 69, payload, timestamp=at)


def _serial_lines(capture):
    """Ground truth: a serial engine over the same capture file."""
    nids = SemanticNids(**DARK)
    alerts = []
    for pkt in read_pcap(capture):
        alerts.extend(nids.process_packet(pkt))
    alerts.extend(nids.flush())
    return [alert.format() for alert in alerts]


@pytest.fixture(scope="module")
def trace():
    """Dark-config Table 3 slice with payload attacks spliced in, so the
    parity covers scan detection AND payload analysis paths."""
    packets = build_table3_trace(2, target_packets=1600, seed=1000).packets
    step = len(packets) // 7
    for i in range(6):
        at = step * (i + 1)
        packets[at] = _execve_packet(f"6.6.{i}.6", 1000 + i,
                                     float(packets[at].timestamp))
    return packets


@pytest.fixture(scope="module")
def capture(trace, tmp_path_factory):
    path = tmp_path_factory.mktemp("transport") / "table3.pcap"
    write_pcap(path, trace)
    return str(path)


@pytest.fixture(scope="module")
def reference(capture):
    lines = _serial_lines(capture)
    assert lines  # a parity suite over zero alerts proves nothing
    return lines


class TestTransportParity:
    @pytest.mark.parametrize("transport", FLEET_TRANSPORTS)
    @pytest.mark.parametrize("workers", [1, 3])
    def test_table3_alerts_are_byte_identical(self, capture, reference,
                                              transport, workers):
        with SensorFleet(workers=workers, transport=transport,
                         nids_options=DARK) as fleet:
            fleet.process_capture(capture)
            lines = [alert.format() for alert in fleet.alerts]
            stats = fleet.stats
        assert lines == reference
        assert stats.transport == transport
        assert stats.dispatched == len(read_pcap(capture))

    @pytest.mark.parametrize("transport", FLEET_TRANSPORTS)
    @pytest.mark.parametrize("transform", GAUNTLET)
    def test_gauntlet_delivery_is_transport_invariant(
            self, trace, tmp_path, transport, transform):
        """Adversarial delivery exercises reassembly in the workers;
        the transport must not perturb what the reassemblers see."""
        evaded = apply_evasion(transform, trace[:500], seed=3)
        capture = tmp_path / f"{transform}.pcap"
        write_pcap(capture, evaded)
        expected = _serial_lines(str(capture))
        with SensorFleet(workers=2, transport=transport,
                         nids_options=DARK) as fleet:
            fleet.process_capture(str(capture))
            lines = [alert.format() for alert in fleet.alerts]
        assert lines == expected

    def test_removed_transport_is_rejected_before_any_spawn(
            self, monkeypatch):
        """``shm`` is gone: asking for it names what is left and costs
        no worker process."""
        spawned = []
        monkeypatch.setattr(SensorFleet, "_spawn_pool",
                            lambda self, shard: spawned.append(shard))
        with pytest.raises(ValueError) as err:
            SensorFleet(workers=2, transport="shm")
        assert all(name in str(err.value) for name in FLEET_TRANSPORTS)
        assert FLEET_TRANSPORTS == ("pickle", "offset")
        assert not spawned


class TestOffsetFeedTakesBoundariesOnly:
    def test_packets_and_raw_records_are_refused(self, trace):
        """An offset fleet queues extent runs; a decoded packet or a raw
        record slipped into them would be shipped as garbage."""
        fleet = SensorFleet(workers=1, transport="offset")
        try:
            with pytest.raises(ValueError, match="PcapRecordMeta"):
                fleet.process_packet(trace[0])
            with pytest.raises(ValueError, match="process_capture"):
                fleet.process_raw(trace[0].encode())
            assert fleet.stats.dispatched == 0
        finally:
            fleet.close()


class TestCrashSeamMatrix:
    """Kill matrix × transports, the fleet driven by the daemon (the one
    durability layer): mid-batch death at seeded marks, then
    restart-and-resume; parity and accounting must hold."""

    @staticmethod
    def _factory(transport):
        return lambda: SensorFleet(workers=2, transport=transport,
                                   nids_options=DARK)

    @pytest.mark.parametrize("transport", FLEET_TRANSPORTS)
    def test_killed_fleet_replays_to_parity(self, trace, tmp_path,
                                            transport):
        feed = capture_sources(trace, tmp_path / "trace.pcap",
                               meta=transport == "offset")
        reference, _ = run_daemon_reference(
            feed, nids_factory=self._factory(transport))
        assert reference

        report = run_daemon_with_crashes(
            feed, nids_factory=self._factory(transport),
            checkpoint_dir=tmp_path / "state",
            kills=[len(trace) // 3, (2 * len(trace)) // 3],
            checkpoint_interval=60, engine=f"fleet-{transport}")
        assert report.crashes == 2
        assert report.alert_lines == reference
        assert report.uncounted_drops == 0
        assert report.checkpoints >= 1
        assert report.replayed >= 0 and report.deduped >= 0

    def test_reference_runs_agree_across_transports(self, trace, tmp_path,
                                                    reference):
        """The recovery harness's own baseline is transport-invariant
        too (it is what every crash assertion compares against), and it
        is the serial stream."""
        for transport in FLEET_TRANSPORTS:
            lines, stats = run_daemon_reference(
                capture_sources(trace, tmp_path / f"{transport}.pcap",
                                meta=transport == "offset"),
                nids_factory=self._factory(transport))
            assert lines == reference
            assert stats.processed == len(trace)


class TestOffsetFeedUnderASheddingRing:
    def test_workers_decode_exactly_the_processed_records(self, capture):
        """The daemon's ring may shed a record between two that hash to
        one shard: they are consecutive in dispatch seq but not in the
        file, so they must not share an extent run (a worker re-reads a
        run as consecutive records and would analyze the shed one)."""
        fleet = SensorFleet(workers=2, transport="offset", nids_options=DARK)
        offsets = []
        feed = fleet.process_packet

        def recording(meta):
            offsets.append(meta.offset)
            return feed(meta)

        fleet.process_packet = recording
        delivered = []
        try:
            with PcapReader(capture) as reader:
                stats = SensorDaemon(
                    fleet, MetaPacketSource(reader), ring_capacity=64,
                    shed_policy="newest", on_alert=delivered.append).run()
            decoded = fleet.registry.get("repro_packets_total").value
            payload = fleet.registry.get("repro_payload_bytes_total").value
        finally:
            fleet.close()
        assert stats.shed > 0
        assert stats.ingested == stats.processed + stats.shed + stats.queued
        assert stats.processed == len(offsets) == decoded

        # Ground truth: a serial engine over exactly the kept records.
        kept = set(offsets)
        nids = SemanticNids(**DARK)
        with PcapReader(capture) as reader:
            while True:
                at, pkt = reader.tell(), reader.poll_packet()
                if pkt is None:
                    break
                if at in kept:
                    nids.process_packet(pkt)
        nids.flush()
        assert payload == nids.stats.payload_bytes
        assert delivered and sorted(a.format() for a in delivered) == \
            sorted(a.format() for a in nids.alerts)


class TestSupervisedRetryTimeout:
    def test_watchdog_timeout_applies_on_the_retry_path(self):
        """Regression: ``_submit_supervised`` used to drop the
        ``watchdog_timeout`` when a submit hit a broken pool and was
        retried after the restart — the retried future then waited
        forever on a wedged worker instead of tripping the watchdog."""
        from concurrent.futures import TimeoutError as FutureTimeoutError

        fleet = SensorFleet(workers=1, watchdog_timeout=7.5,
                            nids_options={"classification_enabled": False})
        real_pools = fleet._pools
        captured = []

        class _Pool:
            def __init__(self, outcome):
                self._outcome = outcome

            def submit(self, fn, *args):
                outcome = self._outcome

                class _Future:
                    def result(self, timeout=None):
                        captured.append(timeout)
                        if isinstance(outcome, Exception):
                            raise outcome
                        return outcome
                return _Future()

        try:
            # first attempt times out; the (patched) restart installs a
            # fresh pool and the retry must still run under the deadline
            fleet._pools = [_Pool(FutureTimeoutError())]
            fleet._restart_shard = lambda shard: fleet._pools.__setitem__(
                shard, _Pool("ok"))
            assert fleet._submit_supervised(0, len, b"") == "ok"
            assert captured == [7.5, 7.5]
        finally:
            fleet._pools = real_pools
            fleet.close()


class TestCloseAfterFailedFlush:
    def test_workers_are_released_when_flush_raises(self):
        """Regression: ``close()`` ran ``flush()`` outside any
        ``try``/``finally``, so a flush that raised (second watchdog
        timeout) orphaned every worker process."""
        fleet = SensorFleet(workers=2,
                            nids_options={"classification_enabled": False})
        fleet.flush()  # a real flush reaches every shard: workers are up
        procs = [proc for pool in fleet._pools
                 for proc in pool._processes.values()]
        assert len(procs) == 2

        def broken_flush():
            raise OSError("shard hung twice")

        fleet.flush = broken_flush
        with pytest.raises(OSError, match="shard hung twice"):
            fleet.close()
        for proc in procs:
            proc.join(timeout=10)
            assert not proc.is_alive()
        assert fleet._pools == []
