"""Hot template-library reload: digest-keyed swap with atomic
invalidation of every derived cache (frame cache, compiled match plans,
anchor prefilter), on the serial and the parallel engine."""

import pytest

from repro.core.library import library_digest, resolve_template_set
from repro.engines.admmutate import SLED_OPCODES  # noqa: F401 — doc import
from repro.engines.shellcode import get_shellcode
from repro.net.packet import udp_packet
from repro.nids import ParallelSemanticNids, SemanticNids


def _execve_packet(sport=1000):
    """A payload only the paper templates detect (shell spawn): under
    'xor-only' it is clean, under 'paper' it alerts."""
    payload = bytes([0x90]) * 48 + get_shellcode("classic-execve").assemble()
    return udp_packet("6.6.6.6", "10.10.0.3", sport, 69, payload)


def _serial(template_set="xor-only", **kw):
    return SemanticNids(templates=resolve_template_set(template_set),
                        classification_enabled=False, **kw)


class TestSerialReload:
    def test_unchanged_digest_is_a_noop(self):
        nids = _serial("paper")
        fingerprint = nids.analyzer.template_fingerprint
        assert nids.reload_templates(resolve_template_set("paper")) is False
        assert nids.analyzer.template_fingerprint == fingerprint
        assert nids.registry.get("repro_template_reloads_total").value == 0

    def test_reload_swaps_library_and_counts(self):
        nids = _serial("xor-only")
        assert nids.reload_templates(resolve_template_set("paper")) is True
        assert nids.library_digest() == \
            library_digest(resolve_template_set("paper"))
        assert nids.registry.get("repro_template_reloads_total").value == 1

    def test_width_only_change_is_a_different_library(self):
        """Two libraries differing only in an access width used to share
        a digest (``describe()`` omitted ``size``): the reload was
        refused and the sensor kept matching with the old width."""
        from repro.core.template import LoadFrom, StoreTo, Template

        def library(size):
            return [Template("split", [LoadFrom(size=size),
                                       StoreTo(size=size)])]
        assert library_digest(library(1)) != library_digest(library(4))
        assert library_digest(library(1)) == library_digest(library(1))
        nids = SemanticNids(templates=library(1),
                            classification_enabled=False)
        assert nids.reload_templates(library(4)) is True
        assert nids.analyzer.templates[0].nodes[0].size == 4

    def test_frame_cache_cannot_replay_stale_verdicts(self):
        """The end-to-end property: a payload analyzed (and cached clean)
        under the old library must be re-analyzed under the new one —
        byte-identical input, different verdict."""
        # fastpath off: under xor-only the anchor prefilter would skip
        # the frame outright (skipped frames are never cached), and this
        # test needs a stale CLEAN verdict sitting in the cache.
        nids = _serial("xor-only", fastpath=False)
        assert nids.process_packet(_execve_packet(sport=1000)) == []
        assert len(nids.analyzer.frame_cache) > 0  # verdict cached
        nids.reload_templates(resolve_template_set("paper"))
        assert len(nids.analyzer.frame_cache) == 0  # cache dropped with it
        alerts = nids.process_packet(_execve_packet(sport=1001))
        assert [a.template for a in alerts] == ["linux_shell_spawn"]

    def test_compiled_plans_rebuild_for_new_templates(self):
        nids = _serial("xor-only")
        nids.process_packet(_execve_packet())
        engine = nids.analyzer.engine
        assert engine._plans  # old library's plans, keyed by id(template)
        new_templates = resolve_template_set("paper")
        nids.reload_templates(new_templates)
        # exactly the new library's plans — the id-keyed cache would
        # otherwise leak one entry per dead template object
        assert set(engine._plans) == {id(t) for t in new_templates}

    def test_anchor_prefilter_rederives(self):
        nids = _serial("xor-only", fastpath=True)
        old = nids.analyzer.prefilter
        assert old is not None
        nids.reload_templates(resolve_template_set("paper"))
        assert nids.analyzer.prefilter is not old
        alerts = nids.process_packet(_execve_packet())
        assert [a.template for a in alerts] == ["linux_shell_spawn"]

    def test_first_post_reload_analysis_is_a_miss_that_matches(self):
        """Nothing analysis-derived survives a reload: the frame cache is
        empty, and a frame seen before the swap is disassembled, lifted
        and matched afresh — one counted miss, the right verdict."""
        nids = _serial("xor-only", fastpath=False)
        nids.process_packet(_execve_packet(sport=1000))
        nids.process_packet(_execve_packet(sport=1001))
        assert nids.stats.frame_cache_hits > 0  # the frame is resident
        nids.reload_templates(resolve_template_set("paper"))
        assert len(nids.analyzer.frame_cache) == 0
        hits, misses = (nids.stats.frame_cache_hits,
                        nids.stats.frame_cache_misses)
        lifts = nids.analyzer.lift_timer.calls
        alerts = nids.process_packet(_execve_packet(sport=1002))
        assert nids.stats.frame_cache_hits == hits
        assert nids.stats.frame_cache_misses > misses
        assert nids.analyzer.lift_timer.calls > lifts  # re-lifted
        assert [a.template for a in alerts] == ["linux_shell_spawn"]


class TestParallelReload:
    def test_template_objects_rejected(self):
        with ParallelSemanticNids(workers=2, template_set="paper",
                                  classification_enabled=False) as nids:
            with pytest.raises(ValueError):
                nids.reload_templates(resolve_template_set("all"))

    def test_same_set_is_a_noop(self):
        with ParallelSemanticNids(workers=2, template_set="paper",
                                  classification_enabled=False) as nids:
            assert nids.reload_template_set("paper") is False
            assert nids.template_set == "paper"

    def test_workers_answer_from_the_new_library(self):
        """Worker pools are respawned on reload: the same payload that
        was clean under the old set alerts under the new one, through
        the worker round-trip (not a parent-side fallback)."""
        with ParallelSemanticNids(workers=2, template_set="xor-only",
                                  classification_enabled=False) as nids:
            nids.process_packet(_execve_packet(sport=2000))
            assert nids.flush() == []
            assert nids.reload_template_set("paper") is True
            assert nids.template_set == "paper"
            nids.process_packet(_execve_packet(sport=2001))
            alerts = nids.flush()
            assert [a.template for a in alerts] == ["linux_shell_spawn"]
            assert nids.stats.payloads_offloaded == 2  # both via workers
            assert nids.registry.get(
                "repro_template_reloads_total").value == 1
