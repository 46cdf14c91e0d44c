"""One declaration per option: the ``SensorOptions`` record is what the
engine constructors, the worker processes, the scenario DSL and the
sensor commands all read, and ``DaemonOptions`` what ``SensorDaemon``,
``engine.daemon`` and the ``repro-sensord`` flags read — so they refuse
the same values, with the field named, and name the same options."""

import argparse
import dataclasses
import json
import multiprocessing
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import repro.cli
from repro.cli import _add_engine_options, _add_flags
from repro.net.pcap import write_pcap
from repro.nids import (DaemonOptions, IterPacketSource,
                        ParallelSemanticNids, SemanticNids, SensorDaemon,
                        SensorFleet, SensorOptions, build_engine)
from repro.scenario import SCHEMA, ScenarioError, schema_keys, validate
from repro.traffic.mix import BenignMixGenerator

#: the harness's address plan (benchmarks/harness/adapters.py).
DEPLOYMENT = {"dark_networks": ["10.0.0.0/8"],
              "dark_exclude": ["10.10.0.0/24"]}


class TestRecord:
    def test_frozen_and_picklable(self):
        options = SensorOptions(**DEPLOYMENT)
        assert pickle.loads(pickle.dumps(options)) == options
        with pytest.raises(dataclasses.FrozenInstanceError):
            options.max_streams = 1

    def test_lists_are_taken_by_value(self):
        plan = ["10.0.0.0/8"]
        options = SensorOptions(dark_networks=plan)
        plan.append("172.16.0.0/12")
        assert options.dark_networks == ("10.0.0.0/8",)

    @pytest.mark.parametrize("bad", [
        {"max_streams": 0}, {"dark_threshold": 0},
        {"smtp_fanout_threshold": 0}, {"analysis_deadline_ms": 0},
        {"analysis_deadline_ms": -1.5}, {"max_rounds_per_stream": 0},
        {"reanalysis_growth": 0}, {"reanalysis_overlap": -1},
        {"frame_cache_size": -1}, {"template_set": "everything"},
    ])
    def test_out_of_range_is_a_value_error_naming_the_field(self, bad):
        (name, _), = bad.items()
        with pytest.raises(ValueError, match=f"^{name}: "):
            SensorOptions(**bad)

    @pytest.mark.parametrize("bad", [
        {"max_streams": "many"}, {"max_streams": True},
        {"dark_threshold": 2.5}, {"classification_enabled": 1},
        {"honeypots": "10.10.0.250"}, {"dark_networks": [10]},
        {"template_set": None},
    ])
    def test_wrong_type_is_a_type_error_naming_the_field(self, bad):
        (name, _), = bad.items()
        with pytest.raises(TypeError, match=f"^{name}: "):
            SensorOptions(**bad)

    def test_every_default_passes_its_own_checks(self):
        assert SensorOptions() == SensorOptions(
            **dataclasses.asdict(SensorOptions()))


class TestConstructors:
    def test_serial_refuses_at_construction(self):
        """``max_streams=0`` used to construct, then fault on every TCP
        packet (148 stage faults and none of 4 alerts on the index-2
        trace)."""
        with pytest.raises(ValueError, match="max_streams"):
            SemanticNids(max_streams=0)
        with pytest.raises(TypeError, match="dark_treshold"):
            SemanticNids(dark_treshold=3)

    def test_fleet_refuses_in_the_parent_before_any_spawn(self):
        """A misspelled fleet option used to surface as
        ``BrokenProcessPool`` out of ``process_trace`` and ``close``."""
        before = set(multiprocessing.active_children())
        with pytest.raises(TypeError, match="dark_treshold"):
            SensorFleet(workers=1, nids_options={"dark_treshold": 3})
        with pytest.raises(ValueError, match="max_streams"):
            SensorFleet(workers=1, nids_options={"max_streams": 0})
        assert set(multiprocessing.active_children()) == before

    def test_harness_call_forms(self):
        """Every keyword form benchmarks/harness/adapters.py uses."""
        plan = SensorOptions(**DEPLOYMENT)
        assert SemanticNids(**DEPLOYMENT).options == plan
        nids = SemanticNids(classification_enabled=False, **DEPLOYMENT)
        assert nids.options == dataclasses.replace(
            plan, classification_enabled=False)
        assert not nids.classifier.enabled
        with ParallelSemanticNids(workers=2, **DEPLOYMENT) as parallel:
            assert parallel.options == plan and len(parallel._pools) == 2
        with SensorFleet(workers=2, transport="offset",
                         nids_options=DEPLOYMENT) as fleet:
            assert fleet.options == plan

    def test_harness_daemon_call_forms(self, tmp_path):
        """The two ``SensorDaemon`` forms of benchmarks/harness/adapters.py
        (keywords only, a record never handed over)."""
        packets = BenignMixGenerator(seed=3).generate_packets(12)
        delivered = []
        durable = SensorDaemon(
            SemanticNids(**DEPLOYMENT), IterPacketSource(packets),
            checkpoint_dir=tmp_path, shed_policy="block",
            on_alert=delivered.append)
        plain = SensorDaemon(
            SemanticNids(**DEPLOYMENT), IterPacketSource(iter(packets)),
            shed_policy="block", on_alert=delivered.append)
        for daemon in (durable, plain):
            assert daemon.options == DaemonOptions(shed_policy="block")
            assert daemon.ring.policy == "block"
            stats = daemon.run()
            assert stats.processed == len(packets) and not stats.shed
        assert durable.checkpoints.saves >= 1 and plain.checkpoints is None

    def test_daemon_record_and_keywords_combine(self):
        base = DaemonOptions(ring_capacity=32, shed_policy="block")
        daemon = SensorDaemon(SemanticNids(), IterPacketSource([]), base,
                              batch_size=4)
        assert daemon.options == dataclasses.replace(base, batch_size=4)
        assert (daemon.ring.capacity, daemon.batch_size) == (32, 4)
        with pytest.raises(TypeError, match="max_windows"):
            SensorDaemon(SemanticNids(), IterPacketSource([]), max_windows=9)

    def test_record_and_keywords_combine(self):
        base = SensorOptions(**DEPLOYMENT)
        nids = SemanticNids(base, max_streams=7)
        assert nids.options == dataclasses.replace(base, max_streams=7)
        assert nids.reassembler.max_streams == 7

    def test_build_engine_kinds(self):
        options = SensorOptions(classification_enabled=False)
        assert type(build_engine("serial", options)) is SemanticNids
        with build_engine("parallel", options, workers=2) as parallel:
            assert type(parallel) is ParallelSemanticNids
        with build_engine("fleet", options, workers=1,
                          transport="offset") as fleet:
            assert (fleet.options, fleet.transport) == (options, "offset")
        with pytest.raises(ValueError, match="quantum"):
            build_engine("quantum")


def _flag_group():
    """flag -> action of the engine flags both sensor commands share."""
    parser = argparse.ArgumentParser(add_help=False)
    _add_engine_options(parser, metrics_out="", metrics_format="",
                        stats="", heartbeat="")
    return {action.option_strings[0]: action for action in parser._actions
            if action.option_strings}


class TestOneDeclaration:
    """The record's user-facing fields, the ``engine.options.*`` scenario
    keys and the shared flag group name the same options."""

    #: user-facing, yet spelled differently in one of the two surfaces
    FLAGLESS = {"smtp_fanout_threshold"}          # scenario files only
    OUTSIDE_OPTIONS = {"template_set"}            # engine.template_set

    @pytest.mark.parametrize(
        "field", dataclasses.fields(SensorOptions), ids=lambda f: f.name)
    def test_field_surfaces_agree(self, field):
        flag, in_dsl = field.metadata["flag"], field.metadata["scenario"]
        assert (f"engine.options.{field.name}" in schema_keys()) == in_dsl
        assert (flag in _flag_group()) == (flag is not None)
        if flag is None and not in_dsl:
            return  # tuning: Python callers only
        assert (flag is None) == (field.name in self.FLAGLESS)
        assert (not in_dsl) == (field.name in self.OUTSIDE_OPTIONS)
        if flag is not None:
            action = _flag_group()[flag]
            kind = field.type.partition(" | ")[0]
            if kind == "bool":
                assert flag.startswith("--no-") and action.default is False
            elif kind.startswith("tuple"):
                assert action.default == []
            else:
                assert action.default == field.default

    def test_no_surface_names_an_option_the_record_lacks(self):
        names = {f.name for f in dataclasses.fields(SensorOptions)}
        keys = {k.split(".", 2)[2] for k in schema_keys()
                if k.startswith("engine.options.")}
        assert len(keys) == 9 and keys <= names
        flags = {f.metadata["flag"] for f in dataclasses.fields(SensorOptions)}
        assert set(_flag_group()) - flags == {
            "--workers", "--breaker-threshold", "--metrics-out",
            "--metrics-format", "--stats", "--heartbeat"}

    def test_dsl_reports_the_records_error_at_the_key(self):
        with pytest.raises(ScenarioError) as exc_info:
            validate({"scenario": "t",
                      "engine": {"options": {"max_streams": 0}}})
        assert exc_info.value.path == "engine.options.max_streams"
        assert exc_info.value.message == "must be >= 1, got 0"


# ---------------------------------------------------------------------------
# the daemon's record: constructor, flags and DSL refuse the same values
# ---------------------------------------------------------------------------

BOUNDED = [f for f in dataclasses.fields(DaemonOptions)
           if f.metadata["bound"]]


def _below(field):
    """The first value under ``field``'s lower bound (``">= 1"`` -> 0)."""
    op, limit = field.metadata["bound"].split()
    assert op == ">="
    return int(limit) - 1


class _Untouched:
    """A source that fails the test if the daemon so much as polls it."""

    finished = False

    def poll(self):
        raise AssertionError("source polled before the options were checked")

    tell = poll


@pytest.fixture(scope="module")
def capture(tmp_path_factory):
    path = tmp_path_factory.mktemp("options") / "benign.pcap"
    write_pcap(path, BenignMixGenerator(seed=3).generate_packets(12))
    return str(path)


class TestDaemonRecord:
    def test_every_ranged_setting_is_covered(self):
        """A new bounded field is tested by being declared."""
        assert {f.name for f in BOUNDED} == {
            "ring_capacity", "batch_size", "window_secs", "idle_timeout",
            "checkpoint_interval", "journal_fsync_batch"}

    @pytest.mark.parametrize("field", BOUNDED, ids=lambda f: f.name)
    def test_constructor_refuses_before_touching_the_source(self, field,
                                                            tmp_path):
        """``batch_size=0`` used to loop forever; ``checkpoint_interval=-5``
        was clamped to 1 without a word."""
        bound = field.metadata["bound"]
        with pytest.raises(ValueError) as refusal:
            SensorDaemon(SemanticNids(), _Untouched(), checkpoint_dir=tmp_path,
                         **{field.name: _below(field)})
        assert str(refusal.value) == (
            f"{field.name}: must be {bound}, got {_below(field)}")
        assert not list(tmp_path.iterdir())  # nor the checkpoint directory

    @pytest.mark.parametrize("field", BOUNDED, ids=lambda f: f.name)
    def test_flag_is_a_usage_error_naming_it(self, field, capture, capsys):
        """Exit status 2, not a traceback's 1 — which means "detections"."""
        flag = field.metadata["flag"]
        with pytest.raises(SystemExit) as exit_info:
            repro.cli.sensord_main([capture, flag, str(_below(field))])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert f"argument {flag}: {field.name}: must be " in captured.err
        assert "ingested=" not in captured.err  # nothing was run

    @pytest.mark.parametrize(
        "field", [f for f in BOUNDED if f.metadata["scenario"]],
        ids=lambda f: f.name)
    def test_dsl_reports_the_same_words_at_the_key(self, field):
        with pytest.raises(ScenarioError) as refusal:
            validate({"scenario": "t", "engine": {
                "kind": "daemon", "daemon": {field.name: _below(field)}}})
        assert refusal.value.path == f"engine.daemon.{field.name}"
        with pytest.raises(ValueError) as direct:
            DaemonOptions(**{field.name: _below(field)})
        assert f"{field.name}: {refusal.value.message}" == str(direct.value)

    def test_wrong_type_and_unknown_policy_name_the_field(self):
        with pytest.raises(TypeError, match="^batch_size: expected int"):
            DaemonOptions(batch_size="many")
        with pytest.raises(TypeError, match="^batch_size: expected int"):
            DaemonOptions(batch_size=True)
        with pytest.raises(ValueError, match="^shed_policy: unknown value"):
            DaemonOptions(shed_policy="random")

    def test_batch_size_zero_cannot_hang_the_command(self, capture):
        """Through a fresh interpreter under a timeout, the way CI runs
        it: before the record a tick that moved nothing slept and looped
        forever."""
        src = Path(__file__).resolve().parents[2] / "src"
        done = subprocess.run(
            [sys.executable, "-c",
             "import sys; from repro.cli import sensord_main; "
             "sys.exit(sensord_main(sys.argv[1:]))",
             capture, "--batch-size", "0"],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True, timeout=20)
        assert done.returncode == 2
        assert "argument --batch-size" in done.stderr


class TestEngineChoiceFlags:
    """``--workers``, ``--breaker-threshold`` and ``--fleet-workers`` pick
    and size the engine; out of range they are usage errors where they
    are parsed, not a traceback or a silent serial run."""

    @pytest.mark.parametrize("command, flag, value", [
        ("sensor_main", "--workers", "-2"),
        ("sensord_main", "--workers", "-2"),
        ("sensor_main", "--breaker-threshold", "0"),
        ("sensord_main", "--breaker-threshold", "0"),
        ("sensord_main", "--fleet-workers", "-1"),
    ])
    def test_below_range_is_exit_2(self, command, flag, value, capture,
                                   capsys):
        with pytest.raises(SystemExit) as exit_info:
            getattr(repro.cli, command)([capture, flag, value])
        assert exit_info.value.code == 2
        assert f"argument {flag}: must be >= " in capsys.readouterr().err


class TestOneDaemonDeclaration:
    """``DaemonOptions``' fields, the ``engine.daemon.*`` keys and the
    ``repro-sensord`` flags name the same settings with the same
    defaults — bar the one stated difference of the scenario base."""

    SCENARIO_BASE = {"shed_policy": "block"}

    def _flags(self):
        parser = argparse.ArgumentParser(add_help=False)
        _add_flags(parser, DaemonOptions)
        return {a.option_strings[0]: a for a in parser._actions}

    def test_every_field_has_a_flag_with_its_default(self):
        flags = self._flags()
        assert set(flags) == {
            f.metadata["flag"] for f in dataclasses.fields(DaemonOptions)}
        for f in dataclasses.fields(DaemonOptions):
            action = flags[f.metadata["flag"]]
            assert action.default == f.default
            assert action.dest == f.name
            assert action.choices == f.metadata["choices"]

    def test_scenario_keys_are_fields_with_the_base_defaults(self):
        rows = {k.path.rpartition(".")[2]: k for k in SCHEMA
                if k.path.startswith("engine.daemon.")}
        names = {f.name for f in dataclasses.fields(DaemonOptions)
                 if f.metadata["scenario"]}
        assert set(rows) == names == {"ring_capacity", "shed_policy",
                                      "batch_size"}
        base = DaemonOptions(**self.SCENARIO_BASE)
        for name, row in rows.items():
            assert row.default == json.dumps(getattr(base, name))
        assert validate({"scenario": "t"}).engine.daemon == base

    def test_sensord_builds_the_record_its_flags_spell(self, capture,
                                                       monkeypatch):
        seen = {}
        real = SensorDaemon.__init__

        def spy(self, nids, source, options=None, **keywords):
            seen["options"] = options
            real(self, nids, source, options, **keywords)

        monkeypatch.setattr(SensorDaemon, "__init__", spy)
        repro.cli.sensord_main([capture, "--ring-capacity", "64",
                                "--shed-policy", "oldest",
                                "--idle-timeout", "3"])
        assert seen["options"] == DaemonOptions(
            ring_capacity=64, shed_policy="oldest", idle_timeout=3.0)
