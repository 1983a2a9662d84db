"""Compiled hot blocks (``repro.timing.blocks``) against the reference models.

A block inlines the L1 probe of ``Cache.access`` and the gshare update of
``BranchPredictor.predict_and_update``.  On seeded random address and
branch streams, a run with every block compiled must leave the caches and
the predictor in exactly the state the general issue loop leaves them in
through those two methods: every ``CacheStats`` field, the recency order
of every set, and the predictor's counters, history and tallies.
"""

import random
from collections import OrderedDict

import pytest

from repro.isa.builder import ProgramBuilder
from repro.machine import superblock
from repro.machine.superblock import find_leaders, form_blocks
from repro.timing import blocks
from repro.timing.core import ENTRY
from repro.timing.params import CoreParams, named_config
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
    formed = form_blocks(program)
    assert entries == {pc for pc, block in enumerate(hot.hot)
                       if block is not None}
    assert entries == {pc for pc, _, _ in formed} <= find_leaders(program)
    for pc, length, is_loop in formed:
        body = program.instructions[pc:pc + length]
        # a block is the contiguous range the functional tier forms: no
        # boundary opcode, only its last instruction may jmp backward
        # but to the head of an inner loop, and it loops exactly when an
        # edge outside its inner loops targets its entry
        loops = superblock.loop_nest(program.instructions, pc, length) or {}
        assert not any(ins.op in superblock.BOUNDARY_OPCODES
                       for ins in body)
        assert all(ins.target > pc + j or ins.target - pc in loops
                   for j, ins in enumerate(body[:-1]) if ins.op == "jmp")
        assert is_loop == any(
            ins.target == pc for j, ins in enumerate(body)
            if ins.op in superblock.TERMINATOR_OPCODES
            and not any(head <= j < end for head, end in loops.items()))


def test_timed_code_never_crosses_machine_configurations(monkeypatch):
    # the code of one block shape bakes in its configuration (issue
    # width, single- or multi-core stores, L1 geometry, latencies): two
    # configurations share it exactly when those values agree
    monkeypatch.setattr(superblock, "_CODE_CACHE", OrderedDict())
    program = stream_program(random.Random(0))

    def bind_every_block(config):
        sim = TimingSimulator(program, config)
        hot = blocks.HotBlocks(sim, sim.cores[0])
        superblock.reset_cache_stats()
        for block in form_blocks(program):
            hot.compile(*block)
        return superblock.cache_stats()

    first = bind_every_block(named_config("smt2"))
    assert first["cache_misses"] >= 2
    # a second core (stores invalidate through the hierarchy) or another
    # issue width compiles its own code
    for config in (named_config("cmp2"),
                   named_config("smt2", core_params=CoreParams(
                       issue_width=2))):
        assert bind_every_block(config)["cache_misses"] == \
            first["cache_misses"], config.name
    # smt4 and serial differ from smt2 only in contexts per core
    for name in ("smt2", "smt4", "serial"):
        again = bind_every_block(named_config(name))
        assert again["cache_misses"] == 0, name
        assert again["cache_hits"] == first["blocks_compiled"]


def test_one_timed_shape_at_two_entries_matches_the_general_loop(
        monkeypatch):
    # two copies of one loop at different PCs run one shared code object
    # with per-entry exits and gshare indices (a call ends each copy's
    # block, so the first does not run on into the second)
    monkeypatch.setattr(superblock, "_CODE_CACHE", OrderedDict())
    b = ProgramBuilder()
    b.data("xs", list(range(64)))
    with b.function("main"):
        b.la(6, "xs")
        for _copy in range(2):
            b.li(4, 0)
            b.li(5, 40)
            top = b.fresh_label("loop")
            b.label(top)
            b.ldx(7, 6, 4)
            b.add(8, 8, 7)
            b.addi(4, 4, 1)
            b.blt(4, 5, top)
            b.nop()
            b.call("noop")
        b.out(8)
        b.halt()
    with b.function("noop"):
        b.ret()
    program = b.build()
    sim = TimingSimulator(program, named_config("smt2"))
    hot = blocks.HotBlocks(sim, sim.cores[0])
    loops = sorted((pc, length, is_loop)
                   for pc, length, is_loop in form_blocks(program) if is_loop)
    assert len(loops) == 2
    superblock.reset_cache_stats()
    functions = [hot.compile(*block) for block in loops]
    stats = superblock.cache_stats()
    assert stats["cache_misses"] == stats["cache_hits"] == 1
    assert functions[0].__code__.co_code == functions[1].__code__.co_code
    assert [f.__name__ for f in functions] == [f"tb_{pc}"
                                               for pc, _, _ in loops]
    runs = run_variants(lambda: TimingSimulator(program, named_config("smt2")))
    assert runs["compiled"][1] == runs["stepped"][1]
    assert runs["shipped"][1] == runs["stepped"][1]
