"""Scenario schema validation: every failure is ONE actionable error
carrying its YAML path — never a traceback, never a second guess."""

import dataclasses

import pytest

from repro.scenario import (
    CAMPAIGN_ENGINES, CHAOS_KINDS, SCHEMA, CampaignSpec, ChaosSpec,
    EvasionSpec, ScenarioError, TrafficSpec, loads, schema_keys, validate,
)


def err(data) -> ScenarioError:
    with pytest.raises(ScenarioError) as exc_info:
        validate(data, "test.yaml")
    return exc_info.value


MINIMAL = {"scenario": "t"}


class TestShape:
    def test_minimal_scenario_validates(self):
        spec = validate(dict(MINIMAL), "test.yaml")
        assert spec.name == "t"
        assert spec.seed == 0
        assert spec.engine.kind == "serial"
        assert spec.campaigns == ()
        assert spec.expect.empty

    def test_scenario_name_required(self):
        e = err({})
        assert "scenario" in str(e)

    def test_empty_name_rejected(self):
        e = err({"scenario": ""})
        assert "scenario" in str(e)

    def test_non_mapping_file(self):
        with pytest.raises(ScenarioError) as exc_info:
            loads("- just\n- a\n- list\n")
        assert "mapping" in str(exc_info.value)

    def test_empty_file(self):
        with pytest.raises(ScenarioError) as exc_info:
            loads("")
        assert "empty" in str(exc_info.value)

    def test_yaml_syntax_error_carries_line(self):
        with pytest.raises(ScenarioError) as exc_info:
            loads("scenario: [unclosed\n", source="bad.yaml")
        assert "bad.yaml" in str(exc_info.value)
        assert "YAML syntax error" in str(exc_info.value)


class TestUnknownKeys:
    def test_unknown_top_level_key(self):
        e = err(dict(MINIMAL, campaignz=[]))
        assert "campaignz" in str(e)
        assert "unknown key" in str(e)

    def test_unknown_campaign_key_names_list_index(self):
        e = err(dict(MINIMAL, campaigns=[
            {"engine": "codered"}, {"engine": "codered", "scanz": 3}]))
        assert "campaigns[1]" in str(e)
        assert "scanz" in str(e)

    def test_unknown_nested_engine_option(self):
        e = err(dict(MINIMAL, engine={"options": {"dark_treshold": 5}}))
        assert "engine.options" in str(e)
        assert "dark_treshold" in str(e)

    def test_engine_specific_key_on_wrong_engine(self):
        # scans belongs to codered; netsky must reject it, not drop it.
        e = err(dict(MINIMAL, campaigns=[{"engine": "netsky", "scans": 4}]))
        assert "campaigns[0]" in str(e)
        assert "scans" in str(e)

    @pytest.mark.parametrize("section, record, kinds", [
        ("campaigns", CampaignSpec, CAMPAIGN_ENGINES),
        ("chaos", ChaosSpec, CHAOS_KINDS)])
    def test_every_kind_rejects_every_siblings_key(self, section, record,
                                                   kinds):
        """Each engine / kind, each key that only others take — even
        spelled with its default, which a record alone could not tell
        from unset."""
        head, *rest = dataclasses.fields(record)
        assert len(kinds) >= 4
        for kind in kinds:
            entry = {head.name: kind, **({"kills": [5]} if kind == "crash"
                                         else {})}
            foreign = [f for f in rest
                       if f.metadata["only"] and kind not in f.metadata["only"]]
            assert foreign
            for f in foreign:  # (null would leave the key unset)
                value = f.default if f.default is not None else 1
                e = err(dict(MINIMAL, engine={"kind": "daemon"}, **{
                    section: [dict(entry, **{f.name: value})]}))
                assert e.path == f"{section}[0].{f.name}"
                assert e.message.startswith(
                    f"not an option of {head.name} {kind!r}")

    def test_sibling_key_message_names_the_kind(self):
        e = err(dict(MINIMAL, campaigns=[{"engine": "netsky", "scans": 4}]))
        assert str(e).startswith(
            "campaigns[0].scans: not an option of engine 'netsky'")


class TestTypesAndRanges:
    def test_wrong_type_reports_expected_and_got(self):
        e = err(dict(MINIMAL, seed="lots"))
        assert "seed" in str(e)
        assert "int" in str(e)
        assert "str" in str(e)

    def test_bool_is_not_an_int(self):
        # bool is an int subclass; the validator must not accept it.
        e = err(dict(MINIMAL, seed=True))
        assert "seed" in str(e)

    def test_seed_out_of_range(self):
        e = err(dict(MINIMAL, seed=2**32))
        assert "seed" in str(e)

    def test_negative_seed(self):
        e = err(dict(MINIMAL, seed=-1))
        assert "seed" in str(e)

    def test_campaign_count_must_be_positive(self):
        e = err(dict(MINIMAL,
                     campaigns=[{"engine": "codered", "count": 0}]))
        assert "campaigns[0].count" in str(e)

    def test_unknown_campaign_engine_lists_choices(self):
        e = err(dict(MINIMAL, campaigns=[{"engine": "cletx"}]))
        assert "campaigns[0].engine" in str(e)
        assert "cletx" in str(e)
        assert "clet" in str(e)  # the fix is in the message

    def test_unknown_evasion_transform(self):
        e = err(dict(MINIMAL, evasion=[{"transform": "tiny-fragmentz"}]))
        assert "evasion[0].transform" in str(e)

    def test_unknown_chaos_kind(self):
        e = err(dict(MINIMAL, chaos=[{"kind": "coffee-spill"}]))
        assert "chaos[0].kind" in str(e)

    def test_unknown_engine_kind(self):
        e = err(dict(MINIMAL, engine={"kind": "quantum"}))
        assert "engine.kind" in str(e)

    def test_unknown_template_set(self):
        e = err(dict(MINIMAL, engine={"template_set": "everything"}))
        assert "engine.template_set" in str(e)


def _out_of_range(field):
    """A value just outside ``field``'s declared range."""
    *low, op, limit = field.metadata["bound"].split()
    if op == "<=":
        return float(limit) + 1 if "float" in field.type else int(limit) + 1
    return int(limit) - (op == ">=")


SECTIONS = [("traffic", TrafficSpec, None), ("evasion", EvasionSpec, None),
            ("campaigns", CampaignSpec, "engine"),
            ("chaos", ChaosSpec, "kind")]
RANGED = [(section, record, head, f)
          for section, record, head in SECTIONS
          for f in dataclasses.fields(record) if f.metadata["bound"]]


class TestSectionRecords:
    """Each section is a record: a declared range is refused by the
    record from Python and by the DSL at the key, in the same words."""

    def _kind(self, record, head, field):
        """A first-field value under which ``field`` applies."""
        if head is None:
            return {}
        only = field.metadata["only"]
        return {head: only[0] if only else
                dataclasses.fields(record)[0].metadata["choices"][0]}

    @pytest.mark.parametrize(
        "section, record, head, field", RANGED,
        ids=[f"{s}.{f.name}" for s, _, _, f in RANGED])
    def test_declared_range_is_enforced_twice_alike(self, section, record,
                                                    head, field):
        bad = _out_of_range(field)
        if field.type.startswith("tuple"):
            bad = [bad]
        entry = self._kind(record, head, field)
        if record is EvasionSpec:
            entry["transform"] = "tiny-fragments"
        if entry.get("kind") == "crash":
            entry["kills"] = [5]
        entry[field.name] = bad
        with pytest.raises(ValueError, match=f"^{field.name}: ") as direct:
            record(**entry)
        doc = dict(MINIMAL, engine={"kind": "daemon"},
                   **{section: entry if section == "traffic" else [entry]})
        e = err(doc)
        where = section if section == "traffic" else f"{section}[0]"
        assert e.path == f"{where}.{field.name}"
        assert f"{field.name}: {e.message}" == str(direct.value)

    def test_the_ranged_keys_are_the_documented_ones(self):
        assert len(RANGED) == 19
        for section, _, _, f in RANGED:
            prefix = section if section == "traffic" else section + "[]"
            [row] = [k for k in SCHEMA if k.path == f"{prefix}.{f.name}"]
            assert f.metadata["bound"] in row.constraints

    def test_null_leaves_a_key_unset_in_every_section(self):
        spec = validate(dict(MINIMAL, traffic={"conversations": None},
                             campaigns=[{"engine": "codered",
                                         "scans": None}]))
        assert spec.traffic == TrafficSpec()
        assert spec.campaigns[0].scans == 40

    def test_choices_are_looked_up_when_checked(self):
        e = err(dict(MINIMAL, campaigns=[{"engine": "admmutate",
                                          "family": "rot13"}]))
        assert e.path == "campaigns[0].family"
        from repro.engines.admmutate import DECODER_FAMILIES
        assert all(name in e.message for name in DECODER_FAMILIES)
        [row] = [k for k in SCHEMA if k.path == "campaigns[].family"]
        assert row.constraints == "one of: " + ", ".join(
            f'"{name}"' for name in DECODER_FAMILIES)


class TestConflicts:
    def test_workers_on_serial_engine(self):
        e = err(dict(MINIMAL, engine={"kind": "serial", "workers": 4}))
        assert "workers" in str(e)

    def test_daemon_block_on_parallel_engine(self):
        e = err(dict(MINIMAL, engine={"kind": "parallel",
                                      "daemon": {"batch_size": 64}}))
        assert "daemon" in str(e)

    def test_fanout_needs_classification(self):
        e = err(dict(MINIMAL, engine={
            "options": {"classification_enabled": False,
                        "smtp_fanout_threshold": 8}}))
        assert "smtp_fanout_threshold" in str(e)

    def test_fanout_rejected_on_fleet(self):
        e = err(dict(MINIMAL, engine={
            "kind": "fleet",
            "options": {"smtp_fanout_threshold": 8}}))
        assert "smtp_fanout_threshold" in str(e)

    def test_decode_faults_rejected_on_fleet(self):
        e = err(dict(MINIMAL, chaos=[{"kind": "decode-faults"}],
                     engine={"kind": "fleet"}))
        assert "decode-faults" in str(e)


class TestExpectBlock:
    def test_dangling_template_reference(self):
        e = err(dict(MINIMAL, expect={
            "alerts": {"templates": {"codered_iii_vector": 1}}}))
        assert "codered_iii_vector" in str(e)
        assert "expect.alerts.templates" in str(e)

    def test_template_must_be_in_selected_set(self):
        # codered_ii_vector exists, but not in the xor-only set.
        e = err(dict(MINIMAL, engine={"template_set": "xor-only"},
                     expect={"alerts": {"templates":
                                        {"codered_ii_vector": 1}}}))
        assert "codered_ii_vector" in str(e)

    def test_degraded_templates_always_referencable(self):
        spec = validate(dict(MINIMAL, expect={
            "alerts": {"templates": {"resilience.stage-fault": 0}}}),
            "test.yaml")
        assert "resilience.stage-fault" in spec.expect.templates

    def test_bound_needs_min_or_max(self):
        e = err(dict(MINIMAL, expect={"alerts": {"total": {}}}))
        assert "expect.alerts.total" in str(e)

    def test_bound_min_above_max(self):
        e = err(dict(MINIMAL,
                     expect={"alerts": {"total": {"min": 5, "max": 2}}}))
        assert "expect.alerts.total" in str(e)

    def test_bad_digest_rejected(self):
        e = err(dict(MINIMAL, expect={"digest": "abc123"}))
        assert "expect.digest" in str(e)

    def test_digest_prefix_stripped(self):
        hexd = "0" * 64
        spec = validate(
            dict(MINIMAL, expect={"digest": f"sha256:{hexd}"}), "t.yaml")
        assert spec.expect.digest == hexd


#: ``schema_keys()`` of the commit before the table was generated
KEYS = """
scenario description seed
traffic traffic.conversations traffic.seed traffic.client_net
traffic.server_net traffic.start_time traffic.mean_gap traffic.radiation
campaigns campaigns[].engine campaigns[].at campaigns[].seed
campaigns[].source campaigns[].target campaigns[].count campaigns[].scans
campaigns[].relay_net campaigns[].size campaigns[].shellcode
campaigns[].family campaigns[].junk_probability
evasion evasion[].transform evasion[].seed
chaos chaos[].kind chaos[].at chaos[].instructions chaos[].source
chaos[].target chaos[].count chaos[].seed chaos[].drop_bytes chaos[].kills
chaos[].kill_kind chaos[].checkpoint_interval
engine engine.kind engine.workers engine.template_set engine.options
engine.options.honeypots engine.options.dark_networks
engine.options.dark_exclude engine.options.dark_threshold
engine.options.smtp_fanout_threshold engine.options.classification_enabled
engine.options.analysis_deadline_ms engine.options.max_streams
engine.options.fastpath
engine.daemon engine.daemon.ring_capacity engine.daemon.shed_policy
engine.daemon.batch_size
expect expect.alerts expect.alerts.total expect.alerts.templates
expect.alerts.sources expect.metrics expect.digest expect.recovery
expect.recovery.parity expect.recovery.restarts expect.recovery.replayed
expect.recovery.deduped
""".split()


class TestSchemaTable:
    def test_generated_table_keeps_every_key_in_order(self):
        assert len(KEYS) == 69
        assert schema_keys() == KEYS

    def test_rows_a_record_cannot_phrase_by_accident(self):
        rows = {k.path: (k.type, k.default, k.constraints) for k in SCHEMA}
        assert rows["campaigns[].count"] == ("int", "engine-specific", ">= 1")
        assert rows["campaigns[].source"] == ("str", "engine-specific", "")
        assert rows["chaos[].kills"] == (
            "list[int]", "—", "required for crash; each >= 0")
        assert rows["campaigns[].engine"] == (
            "str", "—", "required; one of: " + ", ".join(
                sorted(CAMPAIGN_ENGINES)))
        assert rows["traffic.seed"] == (
            "int | null", "null", "0 <= seed <= 4294967295")
        assert rows["engine.daemon.shed_policy"] == (
            "str", '"block"', "one of: newest, oldest, block")

    def test_every_campaign_engine_has_a_builder(self):
        from repro.scenario.runner import _CAMPAIGN_BUILDERS
        assert set(_CAMPAIGN_BUILDERS) == set(CAMPAIGN_ENGINES)

    def test_each_vocabulary_has_one_owner(self):
        from repro.nids import fleet, options
        from repro.resilience import recovery, shedder
        from repro.scenario import schema
        assert schema.KILL_KINDS is recovery.KILL_KINDS
        assert fleet.FLEET_TRANSPORTS is options.FLEET_TRANSPORTS
        [policy] = [f for f in dataclasses.fields(options.DaemonOptions)
                    if f.name == "shed_policy"]
        assert policy.metadata["choices"] is shedder.SHED_POLICIES
        assert not hasattr(schema, "SHED_POLICIES")

    def test_schema_keys_unique(self):
        keys = schema_keys()
        assert len(keys) == len(set(keys))

    def test_every_key_documented(self):
        for key in SCHEMA:
            assert key.doc, f"{key.path} has no doc string"
            assert key.type, f"{key.path} has no type"
