"""One declaration per engine option: the ``SensorOptions`` record is
what the constructors, the worker processes, the scenario DSL and the
sensor commands all read — so they refuse the same values, with the
field named, and name the same options."""

import argparse
import dataclasses
import multiprocessing
import pickle

import pytest

from repro.cli import _add_engine_options
from repro.nids import (ParallelSemanticNids, SemanticNids, SensorFleet,
                        SensorOptions, build_engine)
from repro.scenario import ScenarioError, schema_keys, validate

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
