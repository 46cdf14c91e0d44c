"""Crash chaos in the scenario DSL: schema validation + end-to-end."""

import pytest

from repro.scenario.runner import run_scenario
from repro.scenario.schema import ScenarioError, validate


def crash_doc(**overrides):
    doc = {
        "scenario": "crash-case",
        "seed": 7,
        "traffic": {"conversations": 30},
        "campaigns": [{"engine": "admmutate", "at": 2.0, "count": 2}],
        "engine": {"kind": "daemon",
                   "template_set": "all",
                   "options": {"classification_enabled": False},
                   "daemon": {"ring_capacity": 64, "batch_size": 16,
                              "shed_policy": "block"}},
        "chaos": [{"kind": "crash", "kills": [60],
                   "checkpoint_interval": 40}],
        "expect": {"recovery": {"parity": True, "restarts": 1}},
    }
    doc.update(overrides)
    return doc


class TestSchema:
    def test_valid_crash_scenario(self):
        spec = validate(crash_doc())
        chaos = spec.chaos[0]
        assert chaos.kind == "crash"
        assert chaos.kills == (60,)
        assert chaos.kill_kind == "mid-batch"
        assert chaos.checkpoint_interval == 40
        assert spec.expect.recovery.parity is True
        assert spec.expect.recovery.restarts.check(1)

    def test_kills_is_required(self):
        doc = crash_doc()
        del doc["chaos"][0]["kills"]
        with pytest.raises(ScenarioError, match="kills"):
            validate(doc)

    def test_kills_must_be_non_negative_ints(self):
        for bad in ([-1], ["60"], [True], []):
            doc = crash_doc()
            doc["chaos"][0]["kills"] = bad
            with pytest.raises(ScenarioError):
                validate(doc)

    def test_kill_kind_choices(self):
        doc = crash_doc()
        doc["chaos"][0]["kill_kind"] = "mid-sentence"
        with pytest.raises(ScenarioError, match="kill_kind"):
            validate(doc)

    def test_crash_needs_restartable_engine(self):
        doc = crash_doc(engine={"kind": "serial"})
        with pytest.raises(ScenarioError, match="daemon|fleet"):
            validate(doc)

    def test_daemon_crash_requires_block_shedding(self):
        """Parity against a reference is only meaningful when nothing is
        shed: shed decisions depend on ring timing, which restarts
        change."""
        doc = crash_doc()
        doc["engine"]["daemon"]["shed_policy"] = "newest"
        with pytest.raises(ScenarioError, match="shed_policy"):
            validate(doc)

    def test_at_most_one_crash_entry(self):
        doc = crash_doc()
        doc["chaos"].append({"kind": "crash", "kills": [90]})
        with pytest.raises(ScenarioError, match="at most one"):
            validate(doc)

    def test_recovery_expectations_need_crash_chaos(self):
        doc = crash_doc(chaos=[])
        with pytest.raises(ScenarioError, match="recovery"):
            validate(doc)

    def test_unknown_recovery_key_rejected(self):
        doc = crash_doc()
        doc["expect"]["recovery"]["reboots"] = 3
        with pytest.raises(ScenarioError, match="reboots"):
            validate(doc)


class TestEndToEnd:
    def test_daemon_crash_scenario_passes(self):
        result = run_scenario(validate(crash_doc()))
        assert result.passed, [c.as_dict() for c in result.checks]
        names = [c.check for c in result.checks]
        assert "recovery.parity" in names
        assert "recovery.restarts" in names
        report = result.as_dict()["recovery"]
        assert report["parity"] is True
        assert report["crashes"] == 1
        assert report["engine"] == "daemon"

    @pytest.mark.parametrize("kind", ["parallel", "fleet"])
    def test_worker_engine_crash_scenario_passes(self, kind):
        """Both engines with worker processes checkpoint under the
        daemon (the parallel one since the daemon drains before it
        snapshots)."""
        doc = crash_doc(engine={"kind": kind, "workers": 2,
                                "template_set": "all",
                                "options": {
                                    "classification_enabled": False}})
        doc["chaos"][0]["kill_kind"] = "mid-checkpoint"
        result = run_scenario(validate(doc))
        assert result.passed, [c.as_dict() for c in result.checks]
        recovery = result.as_dict()["recovery"]
        assert recovery["engine"] == kind and recovery["crashes"] == 1

    def test_failed_parity_bound_is_reported(self):
        """An unmeetable restarts bound fails its check without blowing
        up the run — recovery checks are ordinary CheckResults."""
        doc = crash_doc()
        doc["expect"]["recovery"]["restarts"] = {"min": 5}
        result = run_scenario(validate(doc))
        failed = [c for c in result.checks if not c.passed]
        assert [c.check for c in failed] == ["recovery.restarts"]
