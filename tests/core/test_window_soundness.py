"""Window-filter soundness: pruning start positions never changes a match.

``MatchEngine.match`` hands ``_search`` only the starts whose window can
hold every kind the template requires (the §4.3 pruning) and every anchor
clause.  That is sound only while "requires" means the same thing
everywhere it is derived — the plan's ``required`` mask, the anchor
compiler and the executors all skip a node whose minimum repeat is 0.
When the kind filter alone counted optional nodes, a template with an
optional store was pruned off every frame that has none.

The property, for every library template and for variants with one node
made optional, over polymorphic / metamorphic instances and random byte
frames: ``match()`` returns what ``_search`` over *all* starts returns
whenever neither exhausts the budget, and the compiled executors still
equal the interpreter oracle in match and ``budget_trips``.
"""

import random
from dataclasses import replace

from interp_oracle import InterpretedMatchEngine

from repro.core.analyzer import disassemble_frame
from repro.core.library import all_templates
from repro.core.matcher import MatchEngine, prepare_trace
from repro.core.template import PushValue, StoreTo, Template
from repro.engines import (
    AdmMutateEngine,
    CletEngine,
    MetamorphicEngine,
    get_shellcode,
)
from repro.fastpath import CompiledPrefilter
from repro.fastpath.anchors import derive_anchors
from repro.x86.asm import assemble
from repro.x86.disasm import disassemble


def templates():
    """Every library template, plus each with one node made optional."""
    out = []
    for template in all_templates():
        out.append(template)
        for i in range(len(template.nodes)):
            hi = template.repeats.get(i, (1, 1))[1]
            out.append(replace(template, name=f"{template.name}~opt{i}",
                               repeats={**template.repeats, i: (0, hi)}))
    return out


def traces():
    shell = get_shellcode("classic-execve")
    frames = [AdmMutateEngine(seed=5).mutate(shell.assemble(), instance=i).data
              for i in range(6)]
    frames += [CletEngine(seed=5).mutate(shell.assemble(), instance=i).data
               for i in range(4)]
    frames += [MetamorphicEngine(seed=5).mutate_source(shell.source, i).data
               for i in range(4)]
    rng = random.Random(20261003)
    frames += [bytes(rng.randrange(256) for _ in range(rng.randrange(16, 160)))
               for _ in range(16)]
    out = []
    for data in frames:
        instructions, _ = disassemble_frame(data)
        if instructions:
            out.append((data, prepare_trace(instructions)))
    return out


def same(a, b) -> bool:
    if a is None or b is None:
        return a is b
    return (a.template is b.template and a.bindings == b.bindings
            and a.positions == b.positions)


def test_pruned_starts_never_change_the_match():
    library = templates()
    prefilter = CompiledPrefilter(library)
    checked = matched = pruned = 0
    for data, trace in traces():
        scan = prefilter.scan(data)
        for template in library:
            engine = MatchEngine()
            budget = [engine.max_candidates]
            full = engine._search(template, trace, range(len(trace)), budget)
            assert budget[0] > 0
            # the kind filter alone, then with the anchor clauses on top
            assert same(engine.match(template, trace), full), template.name
            if scan.survives(template.name):
                hits = prefilter.clause_hits(template.name, scan)
                assert same(engine.match(template, trace, clause_hits=hits),
                            full), template.name
            else:  # ruled out by the anchors: there must be no match
                assert full is None, template.name
            assert engine.budget_trips == 0
            pruned += engine.starts_pruned
            matched += full is not None
            checked += 1
    assert checked > 500 and matched > 50 and pruned > 500


def test_compiled_equals_oracle_on_optional_variants():
    for _, trace in traces():
        for template in templates():
            for cap in (200_000, 25):
                comp = MatchEngine(max_candidates=cap)
                interp = InterpretedMatchEngine(max_candidates=cap)
                assert same(comp.match(template, trace),
                            interp.match(template, trace)), template.name
                assert comp.budget_trips == interp.budget_trips


def test_optional_store_matches_a_frame_without_stores():
    """The reported false negative: ``required_features`` counted the
    optional ``StoreTo``, so the template was pruned off a frame the
    search itself matches at position 0."""
    template = Template("opt", [PushValue(), StoreTo()], repeats={1: (0, 1)})
    trace = prepare_trace(disassemble(assemble(
        "push 0x41414141\npush 0x42424242\nnop\nnop")))
    for engine in (MatchEngine(), InterpretedMatchEngine()):
        found = engine.match(template, trace)
        assert found is not None and found.positions == [0]
        assert same(found, engine._search(template, trace,
                                          range(len(trace)), [10_000]))
    # the anchor compiler always skipped the optional node: one clause
    assert [c.label for c in derive_anchors(template).clauses] == ["PushValue"]
