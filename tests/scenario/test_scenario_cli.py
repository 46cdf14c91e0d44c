"""The repro-scenario command-line tool."""

import json

import pytest

from repro.cli import scenario_main

GOOD = """
scenario: cli-good
seed: 7
campaigns:
  - engine: codered
    count: 1
engine:
  options:
    classification_enabled: false
expect:
  alerts:
    templates:
      codered_ii_vector: {min: 1}
"""


@pytest.fixture()
def good(tmp_path):
    path = tmp_path / "good.yaml"
    path.write_text(GOOD)
    return path


@pytest.fixture()
def bad(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("scenario: broken\ncampaigns:\n  - engine: cletx\n")
    return path


class TestValidate:
    def test_ok(self, good, capsys):
        assert scenario_main(["validate", str(good)]) == 0
        assert "cli-good" in capsys.readouterr().out

    def test_invalid_is_one_line_with_path(self, bad, capsys):
        assert scenario_main(["validate", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "campaigns[0].engine" in err
        assert "cletx" in err

    def test_mixed_batch_still_checks_all(self, good, bad, capsys):
        assert scenario_main(["validate", str(bad), str(good)]) == 2
        captured = capsys.readouterr()
        assert "cli-good" in captured.out       # good one still reported
        assert "INVALID" in captured.err

    def test_missing_file(self, tmp_path, capsys):
        assert scenario_main(["validate", str(tmp_path / "no.yaml")]) == 2
        assert "no such file" in capsys.readouterr().err


class TestRun:
    def test_pass_exits_zero_and_reports(self, good, capsys):
        assert scenario_main(["run", str(good)]) == 0
        out = capsys.readouterr().out
        assert "alert stream sha256:" in out
        assert "[PASS] alerts.templates.codered_ii_vector" in out

    def test_failed_expect_exits_one(self, tmp_path, capsys):
        path = tmp_path / "strict.yaml"
        path.write_text(GOOD.replace("{min: 1}", "5"))
        assert scenario_main(["run", str(path)]) == 1
        assert "[FAIL]" in capsys.readouterr().out

    def test_bad_file_exits_two(self, bad, capsys):
        assert scenario_main(["run", str(bad)]) == 2
        assert "campaigns[0].engine" in capsys.readouterr().err

    def test_result_out(self, good, tmp_path, capsys):
        out_path = tmp_path / "result.json"
        assert scenario_main(["run", str(good),
                              "--result-out", str(out_path)]) == 0
        data = json.loads(out_path.read_text())
        assert data["schema"] == "repro.scenario-result/v1"
        assert data["passed"] is True
        assert data["alerts"]["by_template"]["codered_ii_vector"] >= 1

    def test_print_alerts_matches_digest_bytes(self, good, capsys):
        import hashlib

        assert scenario_main(["run", str(good), "--print-alerts"]) == 0
        out = capsys.readouterr().out
        lines, digest = [], None
        for line in out.splitlines():
            if line.startswith("[") and "codered_ii_vector" in line:
                lines.append(line)
            if line.startswith("alert stream sha256:"):
                digest = line.split()[-1]
        stream = b"".join(l.encode() + b"\n" for l in lines)
        assert hashlib.sha256(stream).hexdigest() == digest

    def test_override_engine_keeps_digest(self, good, capsys):
        digests = []
        for engine in ("serial", "parallel"):
            assert scenario_main(
                ["run", str(good), "--override-engine", engine]) == 0
            out = capsys.readouterr().out
            [line] = [l for l in out.splitlines()
                      if l.startswith("alert stream sha256:")]
            digests.append(line.split()[-1])
        assert digests[0] == digests[1]

    @pytest.mark.parametrize("extra, kind, blamed", [
        # was: AttributeError: 'SensorFleet' object has no attribute
        # 'classifier'
        ("chaos: [{kind: decode-faults}]", "fleet", "chaos[0].kind"),
        # was: ran on the parallel engine, its daemon block dropped
        ("engine: {kind: daemon, daemon: {batch_size: 16}}", "parallel",
         "engine.daemon"),
    ])
    def test_override_engine_is_held_to_the_conflict_rules(
            self, tmp_path, capsys, extra, kind, blamed):
        """An override that makes the file invalid fails like a file
        written that way: one line naming the YAML path, exit 2."""
        path = tmp_path / "overridden.yaml"
        path.write_text("scenario: overridden\n"
                        "campaigns: [{engine: codered}]\n" + extra + "\n")
        assert scenario_main(["validate", str(path)]) == 0
        capsys.readouterr()
        assert scenario_main(
            ["run", str(path), "--override-engine", kind]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {blamed}: ")
        assert captured.err.count("\n") == 1 and not captured.out

    def test_override_seed_moves_digest(self, tmp_path, capsys):
        # clet's xor key is campaign-seed-derived (codered's payload is
        # not — it is pinned by the source address), so a master-seed
        # override must move this stream.
        path = tmp_path / "poly.yaml"
        path.write_text("""
scenario: poly
campaigns: [{engine: clet, count: 1}]
engine:
  template_set: all
  options: {classification_enabled: false}
""")
        digests = []
        for seed in ("7", "8"):
            scenario_main(["run", str(path), "--override-seed", seed])
            out = capsys.readouterr().out
            [line] = [l for l in out.splitlines()
                      if l.startswith("alert stream sha256:")]
            digests.append(line.split()[-1])
        assert digests[0] != digests[1]

    def test_quiet(self, good, capsys):
        assert scenario_main(["run", str(good), "--quiet"]) == 0
        assert capsys.readouterr().out == ""


class TestList:
    def test_vocabulary(self, capsys):
        assert scenario_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "campaign engines:" in out
        assert "codered" in out
        assert "tcp-tiny-segments" in out
        assert "template sets:" in out

    def test_keys_covers_whole_schema(self, capsys):
        from repro.scenario import schema_keys

        assert scenario_main(["list", "--keys"]) == 0
        out = capsys.readouterr().out
        for key in schema_keys():
            assert key in out

    def test_file_summaries(self, good, capsys):
        assert scenario_main(["list", str(good)]) == 0
        out = capsys.readouterr().out
        assert "cli-good" in out
        assert "expect: yes" in out
