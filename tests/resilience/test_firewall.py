"""Tests for the stage firewall and the quarantine writer."""

import json

from repro.errors import DeadlineExceeded, DecodeError
from repro.net.packet import tcp_packet
from repro.net.pcap import read_pcap
from repro.obs import MetricsRegistry
from repro.resilience import (
    CONTAINED_STAGES,
    DEADLINE_TEMPLATE,
    FAULT_TEMPLATE,
    QuarantineWriter,
    StageFirewall,
)


def sample_packet(payload=b"\xde\xad\xbe\xef"):
    return tcp_packet("10.1.2.3", "10.10.0.5", 4444, 80, payload=payload,
                      timestamp=12.5)


class TestStageFirewall:
    def test_contain_counts_by_stage(self):
        registry = MetricsRegistry()
        fw = StageFirewall(registry)
        fw.contain_record("extract", reason=FAULT_TEMPLATE)
        fw.contain_record("extract", reason=FAULT_TEMPLATE)
        fw.contain_record("analyze", reason=FAULT_TEMPLATE)
        assert fw.faults_by_stage() == {"extract": 2, "analyze": 1}
        assert fw.total_faults == 3
        counter = registry.get("repro_stage_faults_total",
                               labels={"stage": "extract"})
        assert counter.value == 2

    def test_all_stage_labels_registered_up_front(self):
        registry = MetricsRegistry()
        StageFirewall(registry)
        for stage in CONTAINED_STAGES:
            assert registry.get("repro_stage_faults_total",
                                labels={"stage": stage}) is not None
        assert registry.get("repro_quarantined_total") is not None

    def test_decode_error_attributed_to_decode_stage(self):
        fw = StageFirewall(MetricsRegistry())
        stage = fw.stage_for("classify", DecodeError("bad header"))
        assert stage == "decode"
        assert fw.stage_for("classify", RuntimeError("x")) == "classify"
        fw.contain_record(stage, reason=FAULT_TEMPLATE)
        assert fw.faults_by_stage() == {"decode": 1}

    def test_unknown_stage_falls_back_to_analyze(self):
        fw = StageFirewall(MetricsRegistry())
        fw.contain_record("no-such-stage", reason=FAULT_TEMPLATE)
        assert fw.faults_by_stage() == {"analyze": 1}

    def test_template_selection(self):
        fw = StageFirewall(MetricsRegistry())
        assert fw.template_for(DeadlineExceeded()) == DEADLINE_TEMPLATE
        assert fw.template_for(RuntimeError("x")) == FAULT_TEMPLATE

    def test_quarantine_wired_through(self, tmp_path):
        registry = MetricsRegistry()
        q = QuarantineWriter(tmp_path / "q.pcap")
        fw = StageFirewall(registry, quarantine=q)
        fw.contain_record("extract", reason=FAULT_TEMPLATE,
                          detail="ExtractionError: boom", pkt=sample_packet())
        q.close()
        assert fw.quarantined == 1
        assert registry.get("repro_quarantined_total").value == 1


class TestQuarantineWriter:
    def test_lazy_open_writes_nothing_on_clean_run(self, tmp_path):
        path = tmp_path / "q.pcap"
        with QuarantineWriter(path):
            pass
        assert not path.exists()

    def test_packet_roundtrip_with_sidecar(self, tmp_path):
        path = tmp_path / "q.pcap"
        pkt = sample_packet()
        with QuarantineWriter(path) as q:
            q.record(reason=FAULT_TEMPLATE, stage="classify", pkt=pkt,
                     detail="ValueError: nope")
        assert q.written == 1
        back = read_pcap(path)
        assert len(back) == 1
        assert back[0].payload == pkt.payload
        assert back[0].src == pkt.src
        meta = [json.loads(line)
                for line in q.meta_path.read_text().splitlines()]
        assert meta[0]["stage"] == "classify"
        assert meta[0]["reason"] == FAULT_TEMPLATE
        assert meta[0]["detail"] == "ValueError: nope"
        assert meta[0]["source"] == pkt.src

    def test_reassembled_payload_synthesized(self, tmp_path):
        # The analyzed payload is a whole reassembled stream — not any
        # one packet's bytes — so the quarantine synthesizes a carrier.
        path = tmp_path / "q.pcap"
        pkt = sample_packet(payload=b"tail-chunk")
        stream_payload = b"A" * 3000
        with QuarantineWriter(path) as q:
            q.record(reason=FAULT_TEMPLATE, stage="analyze", pkt=pkt,
                     payload=stream_payload)
        back = read_pcap(path)
        assert back[0].payload == stream_payload
        assert back[0].src == pkt.src  # attribution preserved

    def test_oversized_payload_truncated_and_noted(self, tmp_path):
        path = tmp_path / "q.pcap"
        with QuarantineWriter(path) as q:
            q.record(reason=FAULT_TEMPLATE, stage="analyze",
                     payload=b"B" * 70_000)
        back = read_pcap(path)
        assert len(back[0].payload) == 65000
        meta = json.loads(q.meta_path.read_text().splitlines()[0])
        assert meta["truncated_from"] == 70_000
        assert meta["payload_len"] == 70_000

    def test_write_errors_are_swallowed(self, tmp_path):
        q = QuarantineWriter(tmp_path / "no-such-dir" / "q.pcap")
        q.record(reason=FAULT_TEMPLATE, stage="extract", pkt=sample_packet())
        assert q.written == 0
        assert q.write_errors == 1
        q.close()
