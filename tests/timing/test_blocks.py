"""Compiled hot blocks (``repro.timing.blocks``) against the reference models.

A block inlines the L1 probe of ``Cache.access`` and the gshare update of
``BranchPredictor.predict_and_update``.  On seeded random address and
branch streams, a run with every block compiled must leave the caches and
the predictor in exactly the state the general issue loop leaves them in
through those two methods: every ``CacheStats`` field, the recency order
of every set, and the predictor's counters, history and tallies.
"""

import random

import pytest

from repro.isa.builder import ProgramBuilder
from repro.machine.superblock import find_leaders
from repro.timing import blocks
from repro.timing.core import ENTRY
from repro.timing.params import named_config
from repro.timing.system import TimingSimulator

from tests.timing.solo_diff import run_variants

#: words of the heap the streams address: four times the L1, an eighth
#: of the L2, so loads and stores hit, miss, evict and write back
HEAP = 8192
STREAM = 600


def stream_program(rng):
    """A loop over random load and store addresses and two branches on
    random bits, each leaving its block when taken."""
    b = ProgramBuilder()
    b.data("loads", [rng.randrange(HEAP) for _ in range(STREAM)])
    b.data("stores", [rng.randrange(HEAP) for _ in range(STREAM)])
    b.data("bits", [rng.randrange(4) for _ in range(STREAM)])
    b.zeros("heap", HEAP)
    with b.function("main"):
        b.la(6, "loads")
        b.la(7, "stores")
        b.la(8, "bits")
        b.la(9, "heap")
        b.li(4, 0)
        b.li(5, STREAM)
        top = b.fresh_label("loop")
        skip = b.fresh_label("skip")
        b.label(top)
        b.ldx(10, 6, 4)
        b.ldx(11, 9, 10)
        b.ldx(12, 8, 4)
        b.andi(13, 12, 1)
        b.beqz(13, skip)
        b.ldx(14, 7, 4)
        b.stx(11, 9, 14)
        b.label(skip)
        b.andi(13, 12, 2)
        over = b.fresh_label("over")
        b.bnez(13, over)
        b.addi(15, 15, 1)
        b.label(over)
        b.addi(4, 4, 1)
        b.blt(4, 5, top)
        b.out(4)
        b.halt()
    return b.build()


def model_state(sim):
    """The hierarchy's and predictor's full state."""
    caches = sim.hierarchy.l1 + [sim.hierarchy.l2]
    predictor = sim.predictor
    return {
        "sets": [[list(ways.items()) for ways in cache._sets]
                 for cache in caches],
        "stats": [cache.stats.as_dict() for cache in caches],
        "dram": sim.hierarchy.dram_accesses,
        "coherence": sim.hierarchy.coherence_invalidations,
        "counters": list(predictor._counters),
        "history": predictor._history,
        "lookups": predictor.lookups,
        "mispredicts": predictor.mispredicts,
    }


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("config", ["smt2", "cmp2", "serial"])
def test_inline_probe_and_gshare_match_the_reference_models(config, seed):
    program = stream_program(random.Random(seed))
    runs = run_variants(lambda: TimingSimulator(program, named_config(config)))
    compiled, snap = runs["compiled"]
    stepped, reference = runs["stepped"]
    assert snap == reference and snap["error"] is None
    # the stream really ran compiled, through hits, misses and evictions
    assert compiled.compiled_instructions > 0.9 * compiled.solo_instructions
    stats = compiled.hierarchy.l1[0].stats
    assert stats.hits and stats.misses and stats.writebacks
    assert 0 < compiled.predictor.mispredicts < compiled.predictor.lookups
    assert model_state(compiled) == model_state(stepped)


def test_block_entries_are_leaders_with_a_block():
    program = stream_program(random.Random(0))
    sim = TimingSimulator(program, named_config("smt2"))
    hot = blocks.HotBlocks(sim, sim.cores[0])
    entries = {pc for pc, row in enumerate(hot.table) if row[0] == ENTRY}
    assert entries == set(hot.shapes) <= find_leaders(program)
    for pc, (path, is_loop) in hot.shapes.items():
        body = [program.instructions[step] for step in path]
        # a block holds each instruction once and no boundary opcode; it
        # follows fall-through edges and jmps, and only its last
        # instruction may jump or fall through back to its entry
        assert path[0] == pc and len(set(path)) == len(path)
        assert not any(ins.op in blocks.BOUNDARY_OPCODES for ins in body)
        for ins, step, following in zip(body, path, path[1:]):
            assert following == (ins.target if ins.op == "jmp" else step + 1)
        assert all(ins.target != pc for ins in body[:-1])
        last = body[-1]
        assert is_loop == (last.target == pc or (
            last.op != "jmp" and path[-1] + 1 == pc))
