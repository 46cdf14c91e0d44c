"""Tests for the command-line tools."""

import pytest

from repro.cli import (
    analyze_main,
    asm_main,
    disasm_main,
    make_trace_main,
    sensor_main,
)
from repro.engines import EXPLOITS, ExploitGenerator, get_shellcode
from repro.net.pcap import write_pcap
from repro.net.wire import Wire


@pytest.fixture()
def attack_pcap(tmp_path):
    """A small capture: one exploit conversation against a honeypot."""
    wire = Wire()
    packets = []
    wire.attach(packets.append)
    ExploitGenerator(wire).fire(EXPLOITS[0], "10.10.0.250", seed=1)
    path = tmp_path / "attack.pcap"
    write_pcap(path, packets)
    return path


class TestSensor:
    def test_detects_and_returns_one(self, attack_pcap, capsys):
        rc = sensor_main([str(attack_pcap), "--honeypot", "10.10.0.250",
                          "--stats"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "linux_shell_spawn" in out
        assert "blocked sources: 203.0.113.66" in out

    def test_clean_returns_zero(self, tmp_path, capsys):
        rc = make_trace_main([str(tmp_path / "b.pcap"), "--benign-only",
                              "--packets", "800"])
        assert rc == 0
        rc = sensor_main([str(tmp_path / "b.pcap"), "--no-classify"])
        assert rc == 0
        assert "ALERT" not in capsys.readouterr().out.upper().replace(
            "FALSE", "")

    def test_classification_gates(self, attack_pcap, capsys):
        # Without registering the honeypot, the attacker is never marked.
        rc = sensor_main([str(attack_pcap)])
        assert rc == 0


class TestAnalyze:
    def test_hex_detection(self, capsys, classic_shellcode):
        rc = analyze_main(["--hex", classic_shellcode.hex()])
        out = capsys.readouterr().out
        assert rc == 1
        assert "linux_shell_spawn" in out

    def test_file_clean(self, tmp_path, capsys):
        blob = tmp_path / "clean.bin"
        blob.write_bytes(bytes.fromhex("9090c3"))
        rc = analyze_main(["--file", str(blob)])
        assert rc == 0
        assert "clean" in capsys.readouterr().out

    def test_verify_flag(self, capsys, classic_shellcode):
        rc = analyze_main(["--hex", classic_shellcode.hex(), "--verify"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "dynamic: confirmed" in out

    def test_listing_flag(self, capsys, classic_shellcode):
        analyze_main(["--hex", classic_shellcode.hex(), "--listing"])
        out = capsys.readouterr().out
        assert "int 0x80" in out


class TestAsmDisasm:
    def test_asm_to_stdout(self, tmp_path, capsys):
        src = tmp_path / "a.s"
        src.write_text("xor eax, eax\nret\n")
        assert asm_main([str(src)]) == 0
        assert capsys.readouterr().out.strip() == "31c0c3"

    def test_asm_to_file(self, tmp_path, capsys):
        src = tmp_path / "a.s"
        src.write_text("nop\n")
        out = tmp_path / "a.bin"
        assert asm_main([str(src), "-o", str(out)]) == 0
        assert out.read_bytes() == b"\x90"

    def test_asm_error(self, tmp_path, capsys):
        src = tmp_path / "bad.s"
        src.write_text("frobnicate eax\n")
        assert asm_main([str(src)]) == 2
        assert "error" in capsys.readouterr().err

    def test_disasm_hex(self, capsys):
        assert disasm_main(["--hex", "31c0 c3"]) == 0
        out = capsys.readouterr().out
        assert "xor eax, eax" in out and "ret" in out

    def test_disasm_stops_at_garbage(self, capsys):
        assert disasm_main(["--hex", "90" + "0f0b"]) == 0
        assert "stopped after 1/3 bytes" in capsys.readouterr().out

    def test_disasm_strict_errors(self, capsys):
        assert disasm_main(["--hex", "0f0b", "--strict"]) == 2

    def test_roundtrip_via_files(self, tmp_path, capsys, classic_shellcode):
        blob = tmp_path / "sc.bin"
        blob.write_bytes(classic_shellcode)
        assert disasm_main(["--file", str(blob)]) == 0
        listing = capsys.readouterr().out
        assert "int 0x80" in listing


class TestMakeTrace:
    def test_labelled_trace(self, tmp_path, capsys):
        path = tmp_path / "t.pcap"
        rc = make_trace_main([str(path), "--index", "2",
                              "--packets", "3000"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "4 CRII instances" in out
        assert path.stat().st_size > 100_000

    def test_trace_detectable_by_sensor(self, tmp_path, capsys):
        path = tmp_path / "t.pcap"
        make_trace_main([str(path), "--index", "1", "--packets", "3000"])
        rc = sensor_main([str(path), "--dark-net", "10.0.0.0/8",
                          "--dark-exclude", "10.10.0.0/24"])
        assert rc == 1
        assert "codered_ii_vector" in capsys.readouterr().out


class TestSensorErrorHandling:
    def test_missing_file(self, capsys):
        rc = sensor_main(["/nonexistent/file.pcap"])
        assert rc == 2
        assert "no such file" in capsys.readouterr().err

    def test_corrupt_pcap(self, tmp_path, capsys):
        bad = tmp_path / "bad.pcap"
        bad.write_bytes(b"\x00" * 64)
        rc = sensor_main([str(bad)])
        assert rc == 2
        assert "bad pcap" in capsys.readouterr().err

    def test_truncated_pcap_salvages_prefix(self, tmp_path, attack_pcap,
                                            capsys):
        # A capture clipped mid-record is salvaged, not rejected: the
        # complete prefix is analyzed (and still alerts) and the damage
        # is reported on stderr.  docs/robustness.md, "salvage".
        clipped = tmp_path / "clip.pcap"
        clipped.write_bytes(attack_pcap.read_bytes()[:-7])
        rc = sensor_main([str(clipped), "--honeypot", "10.10.0.250"])
        assert rc == 1
        captured = capsys.readouterr()
        assert "linux_shell_spawn" in captured.out
        assert "truncated mid-record" in captured.err
        assert "salvaged 5 complete record(s)" in captured.err


class TestSensord:
    def test_daemon_drains_capture_and_accounts(self, attack_pcap, capsys):
        from repro.cli import sensord_main
        rc = sensord_main([str(attack_pcap), "--honeypot", "10.10.0.250"])
        captured = capsys.readouterr()
        # Exit status and status line come from the stats: the engine no
        # longer holds the alerts the daemon delivered.
        assert rc == 1
        assert "linux_shell_spawn" in captured.out
        assert "uncounted_drops=0" in captured.err
        assert "alerts=0" not in captured.err

    def test_clean_capture_returns_zero(self, tmp_path, capsys):
        from repro.cli import make_trace_main, sensord_main
        path = tmp_path / "b.pcap"
        make_trace_main([str(path), "--benign-only", "--packets", "400"])
        capsys.readouterr()
        rc = sensord_main([str(path), "--no-classify"])
        captured = capsys.readouterr()
        assert rc == 0
        assert "alerts=0" in captured.err
        assert "uncounted_drops=0" in captured.err

    def test_tiny_ring_sheds_counted(self, tmp_path, capsys):
        from repro.cli import make_trace_main, sensord_main
        path = tmp_path / "b.pcap"
        make_trace_main([str(path), "--benign-only", "--packets", "400"])
        capsys.readouterr()
        rc = sensord_main([str(path), "--no-classify", "--ring-capacity", "2",
                           "--batch-size", "64", "--shed-policy", "newest",
                           "--stats"])
        captured = capsys.readouterr()
        assert rc == 0
        assert "uncounted_drops=0" in captured.err  # sheds are all counted

    def test_template_set_file_hot_reload(self, tmp_path, capsys):
        from repro.cli import sensord_main
        from repro.engines import get_shellcode
        from repro.net.packet import udp_packet
        from repro.net.pcap import write_pcap
        payload = bytes([0x90]) * 48 + \
            get_shellcode("classic-execve").assemble()
        pkt = udp_packet("6.6.6.6", "10.10.0.3", 999, 69, payload)
        path = tmp_path / "hot.pcap"
        write_pcap(path, [pkt])
        spec = tmp_path / "set.txt"
        spec.write_text("paper\n")
        rc = sensord_main([str(path), "--no-classify",
                           "--template-set", "xor-only",
                           "--template-set-file", str(spec)])
        captured = capsys.readouterr()
        # the file's set wins before the first packet is judged
        assert rc == 1
        assert "linux_shell_spawn" in captured.out
        assert "reloads=1" in captured.err

    @pytest.mark.parametrize("engine", [
        [], ["--workers", "2"], ["--fleet-workers", "2"],
        ["--fleet-workers", "2", "--fleet-transport", "offset"],
    ], ids=["serial", "parallel", "fleet-pickle", "fleet-offset"])
    def test_stats_are_pipeline_statistics_under_every_engine(
            self, attack_pcap, capsys, engine):
        """``--stats`` is the NidsStats view of the engine's registry — a
        fleet's holds the merged worker deltas — not a dataclass repr."""
        from repro.cli import sensord_main
        rc = sensord_main([str(attack_pcap), "--honeypot", "10.10.0.250",
                           "--stats"] + engine)
        out = capsys.readouterr().out
        assert rc == 1
        assert "FleetStats(" not in out
        stats = [line for line in out.splitlines()
                 if line.startswith("payloads_analyzed=")]
        assert len(stats) == 1
        assert "payloads_analyzed=0" not in stats[0]
        assert "alerts=0" not in stats[0]
        assert "  analyze      calls=" in out
        # the fleet's own counters ride along as one extra line
        fleet = [line for line in out.splitlines()
                 if line.startswith("fleet: workers=2 ")]
        assert len(fleet) == (1 if "--fleet-workers" in engine else 0)

    def test_missing_file(self, capsys):
        from repro.cli import sensord_main
        rc = sensord_main(["/nonexistent/file.pcap"])
        assert rc == 2

    def test_offset_fleet_accepts_daemon_loop_flags(self, attack_pcap,
                                                    tmp_path, capsys):
        """The offset fleet runs under the daemon loop like every other
        engine, so the loop's duties apply to it (these flags used to be
        rejected: the offset path bypassed the daemon)."""
        from repro.cli import sensord_main
        spec = tmp_path / "set.txt"
        spec.write_text("paper\n")
        rc = sensord_main([str(attack_pcap), "--honeypot", "10.10.0.250",
                           "--fleet-workers", "2",
                           "--fleet-transport", "offset",
                           "--template-set", "xor-only",
                           "--template-set-file", str(spec),
                           "--heartbeat", "0.1", "--window-secs", "5",
                           "--ring-capacity", "64",
                           "--shed-policy", "block"])
        captured = capsys.readouterr()
        assert rc == 1
        assert "linux_shell_spawn" in captured.out
        assert "heartbeat:" in captured.err
        assert "reloads=1" in captured.err
        assert "uncounted_drops=0" in captured.err

    def test_workers_with_checkpoint_dir_checkpoints_and_resumes(
            self, attack_pcap, tmp_path, capsys):
        """``--workers`` + ``--checkpoint-dir`` used to be a usage
        error; the parallel engine now checkpoints like the others, and
        a resume over the finished capture re-delivers nothing new."""
        from repro.cli import sensord_main
        state = tmp_path / "state"
        argv = [str(attack_pcap), "--honeypot", "10.10.0.250",
                "--workers", "2", "--checkpoint-dir", str(state),
                "--checkpoint-interval", "2"]
        assert sensord_main(argv) == 1
        first = capsys.readouterr()
        assert "linux_shell_spawn" in first.out
        assert (state / "checkpoint.bin").exists()
        assert list((state / "journal").glob("seg-*.wal"))
        sensord_main(argv + ["--resume"])
        resumed = capsys.readouterr()
        assert "processed=6 " in resumed.err  # restored, nothing re-read
        assert "uncounted_drops=0" in resumed.err

    @pytest.mark.parametrize("transport", ["pickle", "offset"])
    def test_fleet_writes_metrics_out(self, attack_pcap, tmp_path, capsys,
                                      transport):
        """The snapshot is written whichever engine ran (the fleet's
        registry is the aggregator's)."""
        import json

        from repro.cli import sensord_main
        out = tmp_path / "metrics.json"
        rc = sensord_main([str(attack_pcap), "--honeypot", "10.10.0.250",
                           "--fleet-workers", "2",
                           "--fleet-transport", transport,
                           "--metrics-out", str(out)])
        assert rc == 1
        assert "linux_shell_spawn" in capsys.readouterr().out
        assert json.loads(out.read_text())["schema"] == "repro.obs/v1"


class TestSensordEngineMatrix:
    """One daemon path for every engine: the index-2 evaluation trace
    (4 Code Red II instances) prints the same four alert lines and
    ``alerts=4`` whichever engine runs it, checkpointing or not."""

    SITE = ["--dark-net", "10.0.0.0/8", "--dark-exclude", "10.10.0.0/24"]
    ENGINES = {
        "serial": [],
        "workers": ["--workers", "2"],
        "fleet-pickle": ["--fleet-workers", "2"],
        "fleet-offset": ["--fleet-workers", "2",
                         "--fleet-transport", "offset"],
    }

    @pytest.fixture(scope="class")
    def trace(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("matrix") / "t.pcap"
        assert make_trace_main([str(path), "--index", "2",
                                "--packets", "6000"]) == 0
        return path

    @pytest.fixture(scope="class")
    def serial_lines(self, trace):
        from repro.net.pcap import read_pcap
        from repro.nids import SemanticNids
        nids = SemanticNids(dark_networks=["10.0.0.0/8"],
                            dark_exclude=["10.10.0.0/24"])
        lines = sorted(a.format() for a in nids.process_trace(read_pcap(trace)))
        assert len(lines) == 4
        return lines

    @pytest.mark.parametrize("checkpoint", [False, True])
    @pytest.mark.parametrize("engine", ENGINES)
    def test_same_four_alert_lines(self, trace, serial_lines, tmp_path,
                                   capsys, engine, checkpoint):
        from repro.cli import sensord_main
        capsys.readouterr()
        argv = [str(trace), *self.SITE, *self.ENGINES[engine]]
        if checkpoint:
            argv += ["--checkpoint-dir", str(tmp_path / "state"),
                     "--checkpoint-interval", "500"]
        assert sensord_main(argv) == 1
        captured = capsys.readouterr()
        assert sorted(captured.out.splitlines()) == serial_lines
        assert " alerts=4 " in captured.err
        assert "uncounted_drops=0" in captured.err


class TestSharedEngineFlags:
    """``repro-sensor`` and ``repro-sensord`` take the same engine flags
    and refuse what the options record refuses, as a usage error."""

    @pytest.fixture()
    def stall_pcap(self, tmp_path):
        """The chaos job's stall capture: one datagram that would hold
        the analyzer for ~60k instructions."""
        from repro.net.packet import udp_packet
        from repro.resilience import build_stall_payload
        path = tmp_path / "stall.pcap"
        write_pcap(path, [udp_packet(
            "10.66.6.6", "10.10.0.9", 6000, 69, timestamp=1.0,
            payload=build_stall_payload(instructions=60_000))])
        return path

    @pytest.mark.parametrize("command", ["sensor_main", "sensord_main"])
    def test_out_of_range_option_is_a_usage_error(self, command, attack_pcap,
                                                  capsys):
        import repro.cli
        with pytest.raises(SystemExit) as exit_info:
            getattr(repro.cli, command)([str(attack_pcap),
                                         "--max-streams", "0"])
        assert exit_info.value.code == 2
        assert "max_streams: must be >= 1" in capsys.readouterr().err

    def test_sensord_honours_the_analysis_deadline(self, stall_pcap, capsys):
        from repro.cli import sensord_main
        rc = sensord_main([str(stall_pcap), "--no-classify",
                           "--analysis-deadline-ms", "5",
                           "--max-streams", "8", "--no-fastpath",
                           "--breaker-threshold", "2"])
        lines = capsys.readouterr().out.splitlines()
        assert rc == 1 and len(lines) == 1
        assert "resilience.deadline-exceeded" in lines[0]

    def test_sensor_takes_template_set(self, attack_pcap, capsys):
        rc = sensor_main([str(attack_pcap), "--honeypot", "10.10.0.250",
                          "--template-set", "all"])
        assert rc == 1
        assert "linux_shell_spawn" in capsys.readouterr().out
        assert sensor_main([str(attack_pcap), "--honeypot", "10.10.0.250",
                            "--template-set", "xor-only"]) == 0
