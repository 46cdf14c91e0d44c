"""Tests for the five-stage NIDS pipeline."""

import multiprocessing

import pytest

from repro.engines.codered import CodeRedHost
from repro.engines.exploit import EXPLOITS
from repro.engines.generator import ExploitGenerator
from repro.net.packet import tcp_packet, udp_packet
from repro.net.wire import Host, Wire
from repro.nids.alerts import Alert, BlockList
from repro.nids.pipeline import SemanticNids
from repro.nids.sensor import NidsSensor

HONEYPOT = "10.10.0.250"


def nids_with_honeypot(**kwargs):
    return SemanticNids(honeypots=[HONEYPOT], **kwargs)


def wire_sensor(nids):
    wire = Wire()
    sensor = NidsSensor(nids)
    sensor.attach(wire)
    return wire, sensor


class TestTable1EndToEnd:
    def test_all_eight_detected_binders_noted(self):
        nids = nids_with_honeypot()
        wire, _ = wire_sensor(nids)
        ExploitGenerator(wire).fire_all(HONEYPOT)
        by_template = nids.alerts_by_template()
        assert by_template["linux_shell_spawn"] == 8
        assert by_template["port_bind_shell"] == 2

    def test_offenders_blocked(self):
        nids = nids_with_honeypot()
        wire, _ = wire_sensor(nids)
        ExploitGenerator(wire).fire_all(HONEYPOT)
        assert nids.blocklist.is_blocked("203.0.113.66")


class TestClassifierGating:
    def test_innocent_traffic_never_analyzed(self):
        nids = nids_with_honeypot()
        wire, _ = wire_sensor(nids)
        client = Host(ip="192.168.1.5", wire=wire)
        session = client.open_tcp("10.10.0.2", 80)
        session.send(b"GET / HTTP/1.0\r\n\r\n")
        session.close()
        assert nids.stats.payloads_analyzed == 0
        assert nids.stats.frames_analyzed == 0

    def test_exploit_from_unmarked_host_missed_when_classifying(self):
        """The flip side of classification: traffic from a host that never
        tripped the classifier is not analyzed (that is the efficiency
        trade the paper makes)."""
        nids = nids_with_honeypot()
        wire, _ = wire_sensor(nids)
        gen = ExploitGenerator(wire)
        gen.fire(EXPLOITS[0], "10.10.0.2", seed=1)  # not the honeypot
        assert nids.alerts == []

    def test_honeypot_contact_marks_then_catches(self):
        nids = nids_with_honeypot()
        wire, _ = wire_sensor(nids)
        gen = ExploitGenerator(wire)
        # attacker first probes the honeypot...
        probe = gen.host.open_tcp(HONEYPOT, 80)
        probe.send(b"HEAD / HTTP/1.0\r\n\r\n")
        probe.close()
        # ...then attacks a production host; now it IS analyzed.
        gen.fire(EXPLOITS[0], "10.10.0.2", seed=1)
        assert nids.alerts_by_template().get("linux_shell_spawn") == 1

    def test_classification_disabled_analyzes_everything(self):
        nids = SemanticNids(classification_enabled=False)
        wire, _ = wire_sensor(nids)
        gen = ExploitGenerator(wire)
        gen.fire(EXPLOITS[0], "10.10.0.2", seed=1)
        assert nids.alerts_by_template().get("linux_shell_spawn") == 1


class TestDarkSpaceIntegration:
    def test_scanner_flagged_then_exploit_caught(self):
        nids = SemanticNids(
            dark_networks=["10.0.0.0/8"], dark_exclude=["10.10.0.0/24"],
            dark_threshold=5,
        )
        wire, _ = wire_sensor(nids)
        worm = CodeRedHost(ip="10.44.1.2", seed=1)
        wire.transmit_all(worm.scan_packets(count=40, base_time=1.0))
        wire.transmit_all(worm.exploit_packets("10.10.0.9", base_time=2.0))
        assert nids.alerts_by_template().get("codered_ii_vector") == 1
        assert nids.alerts[0].source == "10.44.1.2"


class TestAlertPlumbing:
    def test_alert_fields(self):
        nids = nids_with_honeypot()
        wire, _ = wire_sensor(nids)
        ExploitGenerator(wire).fire(EXPLOITS[0], HONEYPOT, seed=0)
        alert = nids.alerts[0]
        assert alert.source == "203.0.113.66"
        assert alert.destination == HONEYPOT
        assert alert.severity == "critical"
        assert alert.match is not None
        assert "linux_shell_spawn" in alert.format()

    def test_per_stream_dedup(self):
        """A growing stream re-analyzed several times alerts once per
        template, not once per segment."""
        nids = SemanticNids(classification_enabled=False,
                            reanalysis_growth=64)
        wire, _ = wire_sensor(nids)
        gen = ExploitGenerator(wire)
        gen.host.open_tcp(HONEYPOT, 21)  # warm up ports
        spec = EXPLOITS[0]
        from repro.engines.exploit import build_exploit_request
        request = build_exploit_request(spec, seed=1)
        session = gen.host.open_tcp("10.10.0.2", spec.port)
        session.mss = 200  # force many segments
        session.send(request)
        session.close()
        assert nids.alerts_by_template()["linux_shell_spawn"] == 1

    def test_udp_payload_analyzed(self):
        nids = SemanticNids(classification_enabled=False)
        from repro.engines.shellcode import get_shellcode
        from repro.engines.admmutate import SLED_OPCODES
        payload = bytes([0x90]) * 48 + get_shellcode("classic-execve").assemble()
        pkt = udp_packet("6.6.6.6", "10.10.0.3", 1000, 69, payload)
        alerts = nids.process_packet(pkt)
        assert any(a.template == "linux_shell_spawn" for a in alerts)

    def test_callback_invoked(self):
        nids = nids_with_honeypot()
        wire = Wire()
        seen = []
        NidsSensor(nids, on_alert=seen.append).attach(wire)
        ExploitGenerator(wire).fire(EXPLOITS[0], HONEYPOT, seed=0)
        assert seen and isinstance(seen[0], Alert)

    def test_alert_sources(self):
        nids = nids_with_honeypot()
        wire, _ = wire_sensor(nids)
        ExploitGenerator(wire).fire_all(HONEYPOT)
        assert nids.alert_sources() == {"203.0.113.66"}


class TestBenignCleanliness:
    def test_benign_mix_no_alerts_classification_off(self):
        from repro.traffic.mix import BenignMixGenerator
        nids = SemanticNids(classification_enabled=False)
        packets = BenignMixGenerator(seed=11).generate_packets(150)
        nids.process_trace(packets)
        assert nids.alerts == []
        assert nids.stats.payloads_analyzed > 0

    def test_stats_summary_renders(self):
        nids = SemanticNids(classification_enabled=False)
        nids.process_packet(tcp_packet("1.1.1.1", "2.2.2.2", 1, 80, b"GET /"))
        text = nids.stats.summary()
        assert "packets=1" in text
        assert "classify" in text


class TestBlockList:
    def test_block_and_query(self):
        bl = BlockList()
        bl.block("1.2.3.4", when=10.0)
        bl.block("1.2.3.4", when=20.0)  # first block time kept
        assert bl.is_blocked("1.2.3.4")
        assert bl.blocked_since("1.2.3.4") == 10.0
        assert not bl.is_blocked("4.3.2.1")
        assert len(bl) == 1
        assert bl.addresses() == ["1.2.3.4"]


class TestBoundedStreamState:
    def test_stream_state_bounded_by_max_streams(self):
        """Per-stream analysis state is evicted in lockstep with the
        reassembler: a flow-churn flood cannot grow memory without bound."""
        nids = SemanticNids(classification_enabled=False, max_streams=64)
        for i in range(500):
            pkt = tcp_packet(f"10.{i % 200 + 1}.2.3", "10.0.0.1",
                             1000 + i, 80, payload=b"GET / HTTP/1.0\r\n",
                             seq=1, timestamp=float(i))
            nids.process_packet(pkt)
        assert len(nids.reassembler.streams) <= 64
        assert len(nids._stream_state) <= 64
        nids.flush()
        assert len(nids._stream_state) <= 64
        assert nids.stats.streams_evicted == 436
        assert nids.stats.state_evicted == 436

    def test_max_streams_reaches_reassembler(self):
        nids = SemanticNids(max_streams=7)
        assert nids.reassembler.max_streams == 7

    def test_out_of_window_segments_are_reported(self):
        """A segment the reassembler cannot place is dropped loudly: the
        one counter shows in NidsStats, the summary and the report."""
        from repro.net.flow import Stream
        from repro.nids.report import build_report

        nids = SemanticNids(classification_enabled=False)
        for seq in (1, 1 + Stream.MAX_BUFFER):
            nids.process_packet(tcp_packet("10.1.2.3", "10.0.0.1", 1234, 80,
                                           payload=b"GET / HTTP/1.0\r\n",
                                           seq=seq))
        assert nids.stats.out_of_window_segments == 1
        assert "out_of_window_segments=1" in nids.stats.summary()
        report = build_report(nids)
        assert report.to_dict()["frontend"]["out_of_window_segments"] == 1


class TestCheckpointState:
    def test_v1_checkpoint_is_refused(self):
        """STATE_VERSION 4: streams and fragment buffers pickle as
        ``Assembler`` subclasses (window, pieces, origin); a
        keep-everything (v1), pre-``fin_offset`` (v2) or
        segment-dict (v3) snapshot cannot be resumed and the version
        check says so."""
        state = SemanticNids().snapshot_state()
        assert state["version"] == SemanticNids.STATE_VERSION == 4
        for old in (1, 2, 3):
            state["version"] = old
            with pytest.raises(ValueError,
                               match=f"state version {old} != 4"):
                SemanticNids().restore_state(state)

    def test_round_trip_carries_pieces_and_a_half_built_datagram(self):
        """A stream with pieces pending above a hole and a datagram with
        fragments missing ride in the snapshot; the resumed sensor, fed
        the missing bytes, raises the same alerts and reads the same
        gauges as the one that never stopped."""
        import pickle

        from repro.engines import generic_overflow_request, get_shellcode
        from repro.net.defrag import fragment_packet
        from repro.net.packet import udp_packet

        exploit = generic_overflow_request(
            get_shellcode("classic-execve").assemble(), seed=1)
        frags = fragment_packet(
            udp_packet("10.9.9.9", "10.0.0.1", 53, 53, exploit), 64)
        frags = frags[::-1]                      # every piece out of order
        cuts = [(0, 100), (200, 300), (400, len(exploit))]

        def sensor():
            nids = SemanticNids(classification_enabled=False)
            for lo, hi in cuts:
                nids.process_packet(tcp_packet(
                    "10.1.2.3", "10.0.0.1", 4000, 80, payload=exploit[lo:hi],
                    seq=1 + lo))
            for frag in frags[:-3]:
                nids.process_packet(frag)
            (stream,) = nids.reassembler.streams.values()
            assert [off for off, _ in stream.pieces()] == [200, 400]
            assert nids.defragmenter.bytes_buffered > 0 and not nids.alerts
            return nids

        def gauges(nids):
            return (nids.reassembler.bytes_buffered,
                    nids.defragmenter.bytes_buffered,
                    len(nids.reassembler.streams),
                    len(nids.defragmenter._buffers))

        original, resumed = sensor(), SemanticNids(
            classification_enabled=False)
        resumed.restore_state(pickle.loads(pickle.dumps(
            sensor().snapshot_state())))
        assert gauges(resumed) == gauges(original)
        missing = [tcp_packet("10.1.2.3", "10.0.0.1", 4000, 80,
                              payload=exploit[lo:hi], seq=1 + lo)
                   for lo, hi in ((100, 200), (300, 400))] + frags[-3:]
        for nids in (original, resumed):
            for pkt in missing:
                nids.process_packet(pkt)
            nids.flush()
        assert len(original.alerts) == 2
        assert ([a.format() for a in resumed.alerts]
                == [a.format() for a in original.alerts])
        assert gauges(resumed) == gauges(original)
        assert gauges(resumed)[1:] == (0, 1, 0)

    def test_restore_keeps_windows_and_recency_order(self):
        import pickle

        nids = SemanticNids(classification_enabled=False)
        for i, sport in enumerate([5000, 5001, 5000]):
            nids.process_packet(tcp_packet(
                "10.1.2.3", "10.0.0.1", sport, 80, payload=b"A" * 30000,
                seq=1 + 30000 * (i // 2), timestamp=float(i)))
        resumed = SemanticNids(classification_enabled=False)
        resumed.restore_state(pickle.loads(pickle.dumps(
            nids.snapshot_state())))
        assert ([k.sport for k in resumed.reassembler.streams]
                == [k.sport for k in nids.reassembler.streams]
                == [5001, 5000])
        assert (resumed.reassembler.bytes_buffered
                == nids.reassembler.bytes_buffered
                == 2 * nids.reanalysis_overlap)
        for key, stream in nids.reassembler.streams.items():
            twin = resumed.reassembler.streams[key]
            assert (twin.released, twin.data()) == (stream.released,
                                                    stream.data())


class TestSharedPayloadCore:
    """Stages (b)-(e) exist once (``analyze_payload``) and so does the
    merge: a fault between two matching frames surfaces *between* their
    alerts, on every engine."""

    @staticmethod
    def three_attachment_mail() -> bytes:
        """An SMTP DATA payload with three base64 attachments, i.e. three
        frames: execve shellcode, a marked junk frame, a bind shell."""
        import base64

        from repro.engines import get_shellcode

        def attachment(code: bytes) -> str:
            body = base64.encodebytes(bytes([0x90]) * 48 + code).decode()
            return ("--BOUND\r\nContent-Type: application/octet-stream\r\n"
                    "Content-Transfer-Encoding: base64\r\n\r\n"
                    + body.replace("\n", "\r\n") + "\r\n")

        return ("From: a@b\r\nTo: c@d\r\nSubject: x\r\nMIME-Version: 1.0\r\n"
                "Content-Type: multipart/mixed; boundary=BOUND\r\n\r\n"
                + attachment(get_shellcode("classic-execve").assemble())
                + attachment(b"\xcc" * 8 + b"POISON" + b"\xcc" * 40)
                + attachment(get_shellcode("bind-4444-execve").assemble())
                + "--BOUND--\r\n.\r\n").encode()

    def test_core_reports_entries_in_frame_order(self):
        from types import SimpleNamespace

        from repro.extract.frames import BinaryFrame
        from repro.nids.pipeline import analyze_payload

        def match(name):
            return SimpleNamespace(
                template=SimpleNamespace(name=name, severity="high"),
                summary=lambda: f"{name} matched")

        class StubExtractor:
            def extract(self, payload):
                return [BinaryFrame(data=payload[i:i + 1], origin=f"f{i}",
                                    offset=i) for i in range(3)]

        class StubAnalyzer:
            frame_cache = None

            def analyze_frame(self, data, deadline=None):
                if data == b"b":
                    raise RuntimeError("poisoned frame")
                return SimpleNamespace(
                    cached=False,
                    matches=[match("first")] if data == b"a"
                    else [match("third")])

        result = analyze_payload(StubExtractor(), StubAnalyzer(), b"abc",
                                 None)
        assert [(e.template, e.origin, e.fault) for e in result.entries] == [
            ("first", "f0", False),
            ("resilience.stage-fault", "analyze", True),
            ("third", "f2", False),
        ]
        assert result.entries[1].detail == "RuntimeError: poisoned frame"
        assert result.entries[2].match is not None  # live object in-process
        assert (result.frames_extracted, result.frames_analyzed) == (3, 2)
        assert (result.cache_hits, result.cache_misses) == (0, 0)

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="workers inherit the poisoned analyzer only through fork")
    def test_serial_and_workers_emit_the_same_ordered_alerts(
            self, monkeypatch):
        from repro.core.analyzer import SemanticAnalyzer
        from repro.nids import ParallelSemanticNids

        real = SemanticAnalyzer.analyze_frame

        def poisoned(self, data, base=0, deadline=None):
            if b"POISON" in data:
                raise RuntimeError("poisoned frame")
            return real(self, data, base, deadline=deadline)

        # Patched on the class before any pool spawns, so the forked
        # workers fault on the same frame the serial engine does.
        monkeypatch.setattr(SemanticAnalyzer, "analyze_frame", poisoned)
        pkt = udp_packet("6.6.6.6", "10.10.0.3", 1000, 25,
                         self.three_attachment_mail())

        def ordered(nids):
            try:
                nids.process_packet(pkt)
                nids.flush()
            finally:
                nids.close()
            return [(a.template, a.frame_origin, a.detail)
                    for a in nids.alerts]

        serial = ordered(SemanticNids(classification_enabled=False))
        engine = ParallelSemanticNids(workers=2,
                                      classification_enabled=False)
        parallel = ordered(engine)
        assert engine.stats.payloads_offloaded == 1  # a worker did it
        assert [t for t, _origin, _detail in serial] == [
            "linux_shell_spawn", "resilience.stage-fault",
            "linux_shell_spawn", "port_bind_shell"]
        assert parallel == serial
