"""Directed cases for the solo run-ahead in ``TimingSimulator.run``.

Each case runs a simulation with the run-ahead and with it patched out
(:mod:`tests.timing.solo_diff`) and requires identical results, counters,
rotations and ``busy_until`` — at the edges the run-ahead must reconcile:
an engine opcode that wakes another context mid-cycle, a fault, the
instruction and cycle limits, and running off the end of the program.
"""

import pytest

from repro.core.engine import DttEngine
from repro.core.registry import ThreadRegistry, TriggerSpec
from repro.isa.builder import ProgramBuilder
from repro.machine.events import MachineObserver
from repro.machine.machine import ENGINE_OPCODES
from repro.obs.metrics import MetricsRegistry
from repro.timing.core import EXIT
from repro.timing.params import named_config
from repro.timing.system import TimingSimulator

from tests.timing.solo_diff import CONFIGS, assert_solo_exact, make_config


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
