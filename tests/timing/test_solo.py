"""Directed cases for the solo run-ahead in ``TimingSimulator.run``.

Each case runs a simulation as shipped, with every block entry compiled
on first reach, and with the run-ahead patched out
(:mod:`tests.timing.solo_diff`), and requires identical results,
counters, rotations and ``busy_until`` — at the edges the run-ahead and
its compiled blocks must reconcile: an engine opcode that wakes another
context mid-cycle, a fault, the instruction and cycle limits, running
off the end of the program, a failed memory guard, a mispredict that
ends a cycle mid-block, and a store that invalidates another core's L1.
"""

import pytest

from repro.core.engine import DttEngine
from repro.core.registry import ThreadRegistry, TriggerSpec
from repro.isa.builder import ProgramBuilder
from repro.machine.events import MachineObserver
from repro.machine.machine import ENGINE_OPCODES
from repro.machine.superblock import form_blocks
from repro.obs.metrics import MetricsRegistry
from repro.timing.core import EXIT
from repro.timing.params import named_config
from repro.timing.system import TimingSimulator

from tests.timing.solo_diff import (CONFIGS, assert_solo_exact, make_config,
                                   record_exits)


def loop_program(trips=40, tail=()):
    """A counted loop over ALU, multi-cycle, load and store ops (L1
    misses and hits, stalls of several lengths), then ``tail`` emitted
    as ``(op, a, b, c)`` rows, an ``out`` and ``halt``."""
    b = ProgramBuilder()
    b.zeros("buf", 256)
    with b.function("main"):
        b.la(6, "buf")
        b.li(4, 3)
        b.li(5, trips)
        top = b.fresh_label("loop")
        b.label(top)
        b.addi(4, 4, 1)
        b.muli(7, 5, 16)
        b.ldx(8, 6, 7)
        b.add(4, 4, 8)
        b.stx(4, 6, 5)
        b.subi(5, 5, 1)
        b.bnez(5, top)
        for op, ra, rb, rc in tail:
            b.emit(op, ra, rb, rc)
        b.out(4)
        b.halt()
    return b.build()


def baseline_sim(program, config="smt2", **kwargs):
    config_kwargs = {}
    if "max_cycles" in kwargs:
        config_kwargs["max_cycles"] = kwargs.pop("max_cycles")
    return lambda: TimingSimulator(
        program, make_config(config, **config_kwargs), **kwargs)


def test_loop_matches_the_step_loop_on_every_config():
    for config in CONFIGS:
        sim, snap = assert_solo_exact(baseline_sim(loop_program(), config),
                                      label=config)
        assert snap["error"] is None
        # a baseline run is solo from its first cycle to its halt
        assert sim.solo_instructions == sim.machine.instructions_executed
        assert sim.solo_cycles == sim.now


# -- engine opcodes: a treturn waking main mid-cycle -----------------------------


def treturn_program(pad):
    """main triggers ``worker`` and blocks at its tcheck; the worker runs
    solo and its ``treturn`` is the first of a 4-wide cycle, leaving
    three slots when it wakes main.  ``pad`` nops before the trigger
    shift which rotation parity the treturn cycle lands on."""
    b = ProgramBuilder()
    b.data("xs", [1])
    b.zeros("ys", 1)
    with b.thread("worker"):
        b.li(4, 7)
        b.addi(4, 4, 1)
        b.la(5, "ys")
        b.st(4, 5, 0)
        b.addi(4, 4, 1)
        b.treturn()
    with b.function("main"):
        for _ in range(pad):
            b.nop()
        b.la(6, "xs")
        b.li(4, 99)
        tst_pc = b.tst(4, 6, 0)
        b.tcheck_thread("worker")
        b.addi(9, 9, 1)
        b.addi(9, 9, 1)
        b.la(7, "ys")
        b.ld(4, 7, 0)
        b.out(4)
        b.halt()
    return b.build(), TriggerSpec("worker", store_pcs=[tst_pc])


def dtt_sim(program, spec, config):
    return lambda: TimingSimulator(
        program, make_config(config),
        engine=DttEngine(ThreadRegistry([spec]), deferred=True))


def record_treturn(sim):
    """Hook: log, on ``sim.log``, (cycle, main's core rotation) at each
    treturn and (context, cycle) at each instruction the general path
    issues."""
    engine, machine = sim.engine, sim.machine
    on_treturn, step = engine.on_treturn, machine.step
    sim.log = log = {"treturn": [], "steps": []}

    def traced_treturn(ctx):
        log["treturn"].append((sim.now, sim.cores[0]._rotation))
        return on_treturn(ctx)

    def traced_step(ctx):
        log["steps"].append((ctx.context_id, sim.now))
        return step(ctx)

    engine.on_treturn = traced_treturn
    machine.step = traced_step


@pytest.mark.parametrize("config", ["smt2", "smt4", "cmp2", "cmp2x2"])
def test_treturn_wakes_main_mid_cycle(config):
    parities = set()
    for pad in range(8):
        program, spec = treturn_program(pad)
        sim, snap = assert_solo_exact(dtt_sim(program, spec, config),
                                      hook=record_treturn,
                                      label=f"{config} pad={pad}")
        assert snap["error"] is None and snap["output"] == [8]
        (cycle, rotation), = sim.log["treturn"]
        parities.add(rotation % 2)
        main_same_cycle = (0, cycle) in sim.log["steps"]
        # on one SMT core the scan wraps from the worker to main; with two
        # cores the worker runs on core 1, and main's core 0 already had
        # its turn this cycle
        assert main_same_cycle == config.startswith("smt"), (config, pad)
        assert sim.solo_instructions > 0
    if config != "cmp2":  # one context per core always rotates to 0
        assert parities == {0, 1}


# -- faults and limits inside the run-ahead ----------------------------------------


@pytest.mark.parametrize("slot", range(4))
@pytest.mark.parametrize("config", CONFIGS)
def test_idiv_by_zero_inside_the_solo_loop(config, slot):
    tail = [("nop", None, None, None)] * slot
    tail += [("li", 9, 0, None), ("idiv", 4, 4, 9)]
    sim, snap = assert_solo_exact(baseline_sim(loop_program(tail=tail),
                                               config))
    assert snap["error"] == ("ExecutionFault", "integer division by zero")
    # the machine counts the faulting instruction; the core never issued it
    core = sim.cores[0]
    assert sim.machine.instructions_executed == core.instructions_issued + 1
    assert sim.solo_instructions == sim.machine.instructions_executed


@pytest.mark.parametrize("config", CONFIGS)
def test_max_instructions_hit_inside_the_loop(config):
    for limit in range(150, 160):
        sim, snap = assert_solo_exact(
            baseline_sim(loop_program(), config, max_instructions=limit))
        assert snap["error"] == (
            "ExecutionLimitExceeded",
            f"exceeded {limit} dynamic instructions")
        # the run-ahead stops a width short of the limit, and the general
        # path counts the attempt past it
        assert limit - 4 < sim.solo_instructions <= limit
        assert sim.machine.instructions_executed == limit + 1


@pytest.mark.parametrize("config", CONFIGS)
def test_max_cycles_hit_inside_the_loop(config):
    for limit in range(100, 140, 3):
        sim, snap = assert_solo_exact(
            baseline_sim(loop_program(), config, max_cycles=limit))
        assert snap["error"] == ("ExecutionLimitExceeded",
                                 f"exceeded {limit} simulated cycles")
        assert sim.solo_cycles == sim.now > limit


@pytest.mark.parametrize("length", range(1, 6))
def test_running_off_the_end_of_the_program(length):
    b = ProgramBuilder()
    with b.function("main"):
        b.li(4, 1)
        for _ in range(length):
            b.muli(4, 4, 3)
    program = b.build()
    sim, snap = assert_solo_exact(baseline_sim(program))
    assert snap["error"] == (
        "ExecutionFault",
        f"context 0 ran off the end of the program (pc={length + 1})")
    assert sim.machine.instructions_executed == length + 2


# -- compiled blocks: the rare exits, compared against the issue loop ---------


def compiled_exact(make_sim, label=""):
    """The compiled variant of a three-way comparison, with its exits."""
    sim, snap = assert_solo_exact(make_sim, hook=record_exits, label=label,
                                  variant="compiled")
    assert sim.compiled_instructions > 0
    return sim, snap


def guard_program(pad):
    """A loop whose ``ldx`` index jumps out of the address space on its
    ninth iteration, ``pad`` ALU ops into the block."""
    b = ProgramBuilder()
    b.zeros("buf", 64)
    with b.function("main"):
        b.la(6, "buf")
        b.li(5, 0)
        top = b.fresh_label("loop")
        b.label(top)
        for _ in range(pad):
            b.addi(4, 4, 1)
        b.shri(9, 5, 3)
        b.muli(9, 9, 1 << 40)
        b.ldx(8, 6, 9)
        b.add(4, 4, 8)
        b.addi(5, 5, 1)
        b.slti(10, 5, 20)
        b.bnez(10, top)
        b.out(4)
        b.halt()
    return b.build()


@pytest.mark.parametrize("pad", range(4))
@pytest.mark.parametrize("config", CONFIGS)
def test_out_of_range_ldx_mid_block_falls_back_to_the_handler(config, pad):
    sim, snap = compiled_exact(baseline_sim(guard_program(pad), config))
    assert snap["error"][0] == "MemoryFault"
    assert sim.exits["guard"] == 1 and sim.exits["back-edge"]


def divide_program(slot):
    """A loop whose ``idiv`` divides by zero on its sixth iteration, at
    issue slot ``slot``: a multiply ends the cycle before ``slot`` nops."""
    b = ProgramBuilder()
    with b.function("main"):
        b.li(4, 1000)
        b.li(5, 10)
        top = b.fresh_label("loop")
        b.label(top)
        b.subi(5, 5, 1)
        b.subi(9, 5, 4)
        b.muli(11, 11, 1)
        for _ in range(slot):
            b.nop()
        b.idiv(12, 4, 9)
        b.bnez(5, top)
        b.out(12)
        b.halt()
    return b.build()


@pytest.mark.parametrize("slot", range(4))
@pytest.mark.parametrize("config", CONFIGS)
def test_idiv_by_zero_at_each_slot_of_a_compiled_loop(config, slot):
    sim, snap = compiled_exact(baseline_sim(divide_program(slot), config))
    assert snap["error"] == ("ExecutionFault", "integer division by zero")
    assert sim.exits["fault"] == 1 and sim.exits["back-edge"]


@pytest.mark.parametrize("config", CONFIGS)
def test_max_cycles_hit_inside_a_compiled_loop(config):
    kinds = set()
    for limit in range(100, 140, 3):
        sim, snap = compiled_exact(
            baseline_sim(loop_program(), config, max_cycles=limit))
        assert snap["error"] == ("ExecutionLimitExceeded",
                                 f"exceeded {limit} simulated cycles")
        kinds.update(sim.exits)
    assert "cycle-limit" in kinds


def multiply_chain_program():
    """A loop of three-cycle multiplies: every cycle ends on a latency,
    so some cycle limit falls between a cycle end and its stall."""
    b = ProgramBuilder()
    with b.function("main"):
        b.li(4, 1)
        b.li(5, 30)
        top = b.fresh_label("loop")
        b.label(top)
        b.muli(4, 4, 3)
        b.muli(6, 4, 5)
        b.subi(5, 5, 1)
        b.bnez(5, top)
        b.out(4)
        b.halt()
    return b.build()


@pytest.mark.parametrize("config", ["smt2", "cmp2"])
def test_cycle_limit_between_a_cycle_end_and_its_stall(config):
    for limit in range(60, 72):
        sim, snap = compiled_exact(baseline_sim(
            multiply_chain_program(), config, max_cycles=limit))
        assert snap["error"] == ("ExecutionLimitExceeded",
                                 f"exceeded {limit} simulated cycles")
        assert sim.exits["cycle-limit"] == 1


@pytest.mark.parametrize("config", CONFIGS)
def test_max_instructions_hit_inside_a_compiled_loop(config):
    for limit in range(150, 160):
        sim, snap = compiled_exact(
            baseline_sim(loop_program(), config, max_instructions=limit))
        assert snap["error"] == (
            "ExecutionLimitExceeded",
            f"exceeded {limit} dynamic instructions")
        # the loop leaves its block when another iteration would not fit
        assert sim.exits["headroom"] == 1


def mispredict_program():
    """A loop with a branch on the low bit of its counter: the gshare
    counters start weakly taken, so its fall-through path mispredicts
    mid-block, and its taken path skips the if-converted arm inside the
    block."""
    b = ProgramBuilder()
    with b.function("main"):
        b.li(5, 40)
        top = b.fresh_label("loop")
        skip = b.fresh_label("skip")
        b.label(top)
        b.addi(4, 4, 1)
        b.andi(9, 5, 1)
        b.beqz(9, skip)
        b.addi(4, 4, 2)
        b.addi(4, 4, 3)
        b.label(skip)
        b.subi(5, 5, 1)
        b.bnez(5, top)
        b.out(4)
        b.halt()
    return b.build()


@pytest.mark.parametrize("config", CONFIGS)
def test_mispredict_ends_a_cycle_mid_block(config):
    sim, snap = compiled_exact(baseline_sim(mispredict_program(), config))
    assert snap["error"] is None
    assert sim.predictor.mispredicts > 0
    # the loop is an inner loop of the entry's block, which runs every
    # iteration in one call: no taken exit, one call that loops and
    # leaves at the halt, and every instruction but the halt compiled
    assert sim.exits["taken"] == 0 and sim.exits["back-edge"] == 1
    assert sim.exits["engine"] == sim.exits["engine@inner"] + 1 == 1
    assert sim.compiled_instructions == \
        sim.machine.instructions_executed - 1


def while_program():
    """A top-tested loop with a diamond whose arms end in forward
    ``jmp``s, closed by a ``jmp`` back to the loop's test."""
    b = ProgramBuilder()
    b.zeros("buf", 64)
    with b.function("main"):
        b.la(6, "buf")
        b.li(5, 0)
        b.li(7, 50)
        top = b.fresh_label("top")
        done = b.fresh_label("done")
        odd = b.fresh_label("odd")
        join = b.fresh_label("join")
        b.label(top)
        b.bge(5, 7, done)
        b.andi(9, 5, 7)
        b.beqz(9, odd)
        b.ldx(8, 6, 9)
        b.add(4, 4, 8)
        b.jmp(join)
        b.label(odd)
        b.subi(4, 4, 1)
        b.label(join)
        b.stx(4, 6, 9)
        b.addi(5, 5, 1)
        b.jmp(top)
        b.label(done)
        b.out(4)
        b.halt()
    return b.build()


@pytest.mark.parametrize("config", CONFIGS)
def test_a_path_through_jmps_loops_into_its_own_entry(config):
    program = while_program()
    sim, snap = compiled_exact(baseline_sim(program, config))
    assert snap["error"] is None
    assert sim.exits["back-edge"] and sim.exits["taken"]
    # the loop is one block from its test to the closing jmp, with the
    # diamond if-converted inside it
    loops = [(pc, length) for pc, length, is_loop in form_blocks(program)
             if is_loop]
    assert [program.instructions[pc + length - 1].op
            for pc, length in loops] == ["jmp"]


def invalidating_program():
    """``worker`` reads eight lines into its core's L1; after its
    ``treturn`` main stores to the same lines from a compiled loop."""
    b = ProgramBuilder()
    b.data("xs", [1])
    b.zeros("buf", 128)
    with b.thread("worker"):
        b.la(5, "buf")
        b.li(6, 0)
        top = b.fresh_label("read")
        b.label(top)
        b.ldx(7, 5, 6)
        b.addi(6, 6, 16)
        b.slti(8, 6, 128)
        b.bnez(8, top)
        b.treturn()
    with b.function("main"):
        b.la(6, "xs")
        b.li(4, 99)
        tst_pc = b.tst(4, 6, 0)
        b.tcheck_thread("worker")
        b.la(5, "buf")
        b.li(6, 0)
        top = b.fresh_label("write")
        b.label(top)
        b.stx(6, 5, 6)
        b.addi(6, 6, 16)
        b.slti(8, 6, 128)
        b.bnez(8, top)
        b.out(6)
        b.halt()
    return b.build(), TriggerSpec("worker", store_pcs=[tst_pc])


@pytest.mark.parametrize("config", ["cmp2", "cmp2x2"])
def test_cmp_store_from_a_block_invalidates_the_other_l1(config):
    program, spec = invalidating_program()
    sim, snap = compiled_exact(dtt_sim(program, spec, config))
    assert snap["error"] is None and snap["output"] == [128]
    # every line the worker read on core 1 is invalidated by main's stores
    assert sim.hierarchy.l1[1].stats.invalidations == 8
    assert snap["result"]["coherence_invalidations"] == 8


# -- eligibility ---------------------------------------------------------------------


def test_side_exit_kinds_are_exactly_the_engine_opcodes():
    program, _ = treturn_program(0)
    sim = TimingSimulator(program, named_config("smt2"))
    exits = {row[4].op for row in sim.cores[0].table if row[0] >= EXIT}
    ops = {ins.op for ins in program.instructions}
    assert exits == ENGINE_OPCODES & ops == {"tst", "tcheck", "treturn",
                                             "halt"}


def test_observers_keep_the_general_path():
    program = loop_program()
    observed = TimingSimulator(program, named_config("smt2"))
    observed.machine.add_observer(MachineObserver())
    plain = TimingSimulator(program, named_config("smt2"))
    for sim in (observed, plain):
        sim.run()
    assert observed.solo_instructions == 0
    assert observed.now == plain.now
    assert plain.solo_instructions == plain.machine.instructions_executed


def test_solo_gauges_cover_a_baseline_run():
    registry = MetricsRegistry()
    result = TimingSimulator(loop_program(), named_config("smt2"),
                             metrics=registry).run()
    solo = registry.get("timing.solo_instructions").value
    assert solo == result.instructions
    assert registry.get("timing.solo_cycles").value == result.cycles


def overlap_program():
    """main triggers ``worker`` and keeps looping while it runs."""
    b = ProgramBuilder()
    b.data("xs", [1])
    b.zeros("ys", 1)
    with b.thread("worker"):
        b.li(4, 30)
        top = b.fresh_label("w")
        b.label(top)
        b.muli(5, 4, 3)
        b.subi(4, 4, 1)
        b.bnez(4, top)
        b.la(6, "ys")
        b.st(5, 6, 0)
        b.treturn()
    with b.function("main"):
        b.la(6, "xs")
        b.li(4, 99)
        tst_pc = b.tst(4, 6, 0)
        b.li(4, 40)
        top = b.fresh_label("m")
        b.label(top)
        b.addi(9, 9, 1)
        b.subi(4, 4, 1)
        b.bnez(4, top)
        b.tcheck_thread("worker")
        b.la(7, "ys")
        b.ld(4, 7, 0)
        b.out(4)
        b.halt()
    return b.build(), TriggerSpec("worker", store_pcs=[tst_pc])


def test_multi_gauges_cover_the_overlapping_iterations():
    registry = MetricsRegistry()
    program, spec = overlap_program()
    for config in ("smt2", "cmp2"):
        sim = TimingSimulator(
            program, named_config(config),
            engine=DttEngine(ThreadRegistry([spec]), deferred=True),
            metrics=registry)
        result = sim.run()
        multi = registry.get("timing.multi_instructions").value
        assert multi == sim.multi_instructions > 0
        assert registry.get("timing.multi_cycles").value == sim.multi_cycles
        assert sim.solo_cycles + sim.multi_cycles <= result.cycles
    for config in CONFIGS:
        assert_solo_exact(dtt_sim(program, spec, config), label=config)
