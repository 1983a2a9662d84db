"""Driver equivalence: ``Machine.run`` must match ``step()`` exactly.

``run`` dispatches exec-compiled superblocks and falls back to per-PC
closure thunks, and it batches its counter reconciliation; these tests
prove that is invisible — every bundled workload produces byte-identical
memory, output, counters, and engine trace streams under ``step()``,
under ``run``, and under ``run`` on the thunks alone (the ``closure``
path, an emptied block table), and faults/limits/budgets land on the
same instruction with the same machine state.
"""

import pytest

from repro.core.trace import EngineTrace
from repro.errors import (
    ContextError,
    ExecutionFault,
    ExecutionLimitExceeded,
    MemoryFault,
)
from repro.isa.builder import ProgramBuilder
from repro.isa.instructions import Instruction
from repro.isa.program import Program
from repro.machine.context import ContextState
from repro.machine.events import MachineObserver
from repro.machine.machine import Machine, run_to_completion
from repro.workloads.suite import SUITE

from tests.conftest import RUN_PATHS, build_dtt_sum, thunks_only


def drive_legacy(machine):
    """Reference driver: per-instruction step() calls only."""
    main = machine.main_context
    while main.state is not ContextState.HALTED:
        if main.state is not ContextState.RUNNING:
            raise AssertionError(f"main context {main.state}")
        machine.step(main)
    return machine.output


def fingerprint(machine):
    """Every architectural surface two equivalent runs must agree on."""
    main = machine.main_context
    return {
        "output": list(machine.output),
        "memory": machine.memory.snapshot(),
        "instructions_executed": machine.instructions_executed,
        "main_instructions": machine.main_instructions,
        "support_instructions": machine.support_instructions,
        "load_count": machine.memory.load_count,
        "store_count": machine.memory.store_count,
        "pc": main.pc,
        "state": main.state,
        "instruction_count": main.instruction_count,
        "regs": list(main.regs),
    }


# -- every bundled workload, both run paths ----------------------------------------


@pytest.mark.parametrize("path", sorted(RUN_PATHS))
@pytest.mark.parametrize("name", sorted(SUITE))
def test_baseline_workload_equivalence(name, path):
    workload = SUITE[name]
    inp = workload.make_input()
    program = workload.build_baseline(inp)
    legacy = Machine(program)
    drive_legacy(legacy)
    fast = RUN_PATHS[path](Machine(program))
    run_to_completion(fast)
    assert fingerprint(fast) == fingerprint(legacy)


@pytest.mark.parametrize("path", sorted(RUN_PATHS))
@pytest.mark.parametrize("name", sorted(SUITE))
def test_dtt_workload_equivalence_with_trace(name, path):
    workload = SUITE[name]
    inp = workload.make_input()
    build = workload.build_dtt(inp)

    def machine_with_engine():
        machine = Machine(build.program, num_contexts=2)
        engine = build.engine()
        machine.attach_engine(engine)
        trace = EngineTrace(engine)
        return machine, engine, trace

    legacy, legacy_engine, legacy_trace = machine_with_engine()
    drive_legacy(legacy)
    fast, fast_engine, fast_trace = machine_with_engine()
    run_to_completion(RUN_PATHS[path](fast))
    assert fingerprint(fast) == fingerprint(legacy)
    assert fast_engine.summary() == legacy_engine.summary()
    assert ([repr(e) for e in fast_trace.events]
            == [repr(e) for e in legacy_trace.events])


# -- budgets and limits ----------------------------------------------------------


def spin_program():
    b = ProgramBuilder()
    with b.function("main"):
        b.label("spin")
        b.jmp("spin")
    return b.build()


@pytest.mark.parametrize("path", sorted(RUN_PATHS))
def test_run_respects_max_steps_budget(path):
    machine = RUN_PATHS[path](Machine(spin_program()))
    retired = machine.run(max_steps=1000)
    assert retired == 1000
    assert machine.instructions_executed == 1000
    assert machine.main_context.instruction_count == 1000
    assert machine.main_context.state is ContextState.RUNNING
    # and the loop can resume from the synced pc
    assert machine.run(max_steps=7) == 7
    assert machine.instructions_executed == 1007


def test_run_requires_running_context(tiny_program):
    machine = Machine(tiny_program, num_contexts=2)
    with pytest.raises(ContextError):
        machine.run(machine.contexts[1])  # idle support context


def test_instruction_limit_identical_to_step_loop():
    def run_out(driver):
        machine = Machine(spin_program(), max_instructions=5000)
        with pytest.raises(ExecutionLimitExceeded):
            driver(machine)
        return fingerprint(machine)

    legacy = run_out(drive_legacy)
    fast = run_out(run_to_completion)
    assert fast == legacy
    # step() counts the over-limit attempt in the global counter only
    assert fast["instructions_executed"] == 5001
    assert fast["instruction_count"] == 5000


# -- fault equivalence ------------------------------------------------------------


def _fault_fingerprints(program, exc_type, match):
    drivers = [drive_legacy] + [
        (lambda m, prepare=prepare: run_to_completion(prepare(m)))
        for _path, prepare in sorted(RUN_PATHS.items())
    ]
    results = []
    for driver in drivers:
        machine = Machine(program)
        with pytest.raises(exc_type, match=match):
            driver(machine)
        results.append(fingerprint(machine))
    legacy = results[0]
    for fast in results[1:]:
        assert fast == legacy
    return legacy


def test_ret_fault_identical():
    p = Program()
    p.add_label("main")
    p.append(Instruction("nop"))
    p.append(Instruction("ret"))
    p.finalize()
    fp = _fault_fingerprints(p, ExecutionFault, "empty call stack")
    assert fp["pc"] == 1  # every driver leaves the pc on the faulting ret
    assert fp["instructions_executed"] == 2  # the faulting op is counted


def test_run_off_end_fault_identical():
    p = Program()
    p.add_label("main")
    p.append(Instruction("nop"))
    p.finalize()
    fp = _fault_fingerprints(p, ExecutionFault, "ran off the end")
    assert fp["pc"] == 1


def test_call_overflow_fault_identical():
    b = ProgramBuilder()
    with b.function("main"):
        b.call("main")
        b.halt()
    _fault_fingerprints(b.build(), ExecutionFault, "call stack overflow")


def test_division_fault_identical():
    b = ProgramBuilder()
    with b.function("main"):
        with b.scratch(3) as (a, z, d):
            b.li(a, 1)
            b.li(z, 0)
            b.idiv(d, a, z)
        b.halt()
    _fault_fingerprints(b.build(), ExecutionFault, "division by zero")


# -- fallback and rebuild rules ---------------------------------------------------


class _CountingObserver(MachineObserver):
    def __init__(self):
        self.instructions = 0

    def on_instruction(self, ctx, pc, instruction):
        self.instructions += 1


def test_observers_force_exact_single_stepping():
    workload = SUITE["mcf"]
    inp = workload.make_input(scale=4)
    program = workload.build_baseline(inp)
    observed = Machine(program)
    observer = _CountingObserver()
    observed.add_observer(observer)
    run_to_completion(observed)
    # the observer saw every retired instruction — run() fell back
    assert observer.instructions == observed.instructions_executed
    plain = Machine(program)
    run_to_completion(plain)
    assert plain.output == observed.output
    assert plain.instructions_executed == observed.instructions_executed


def test_fast_run_after_restore_reuses_memory_identity():
    program, _spec = build_dtt_sum([1, 2, 3], [0, 2], [9, 9])
    machine = Machine(program)
    saved = machine.snapshot()
    first = list(run_to_completion(machine))
    words = machine.memory._words
    machine.restore(saved)
    assert machine.memory._words is words  # restore must stay in place
    again = run_to_completion(machine)
    assert list(again) == first


def test_equivalence_survives_interleaved_tiers():
    # stepping, thunk-only and compiled batch runs on the same machine
    # may be freely mixed
    workload = SUITE["gzip"]
    inp = workload.make_input(scale=4)
    program = workload.build_baseline(inp)
    mixed = Machine(program)
    main = mixed.main_context
    for _ in range(137):
        mixed.step(main)
    thunks_only(mixed).run(main, max_steps=501)
    mixed._superblocks = None  # the next run recompiles the real table
    mixed.run(main, max_steps=503)
    while main.state is ContextState.RUNNING:
        mixed.step(main)
    reference = Machine(program)
    run_to_completion(reference)
    assert fingerprint(mixed) == fingerprint(reference)


# -- superblock specifics ----------------------------------------------------------


def _guard_side_exit_program(limit):
    """A loop block whose ``ldx`` address walks below zero mid-run."""
    b = ProgramBuilder()
    with b.function("main"):
        with b.scratch(3) as (i, addr, v):
            b.li(i, limit)
            b.li(v, 0)
            b.label("loop")
            b.muli(addr, i, 3)
            b.subi(addr, addr, 10)
            b.ldx(v, addr, i)       # faults once 4*i - 10 < 0
            b.subi(i, i, 1)
            b.bgt(i, v, "loop")
        b.halt()
    return b.build()


def test_superblock_memory_guard_side_exit_faults_identically():
    # the compiled guard must bail to the thunk, which raises the same
    # MemoryFault with the same counters and pc as single-stepping
    fp = _fault_fingerprints(
        _guard_side_exit_program(6), MemoryFault, "outside address space")
    assert fp["state"] is ContextState.RUNNING


def test_superblock_mid_loop_arithmetic_fault_identical():
    # an idiv-by-zero on a later iteration exercises the in-block fault
    # reconciliation path (_k marker + batched counter writeback)
    b = ProgramBuilder()
    with b.function("main"):
        with b.scratch(4) as (i, d, q, z):
            b.li(i, 5)
            b.li(z, 0)
            b.label("loop")
            b.subi(d, i, 3)
            b.idiv(q, i, d)         # faults when i reaches 3
            b.subi(i, i, 1)
            b.bgt(i, z, "loop")
        b.halt()
    fp = _fault_fingerprints(b.build(), ExecutionFault, "division by zero")
    assert fp["instructions_executed"] > 4  # faulted mid-loop, not at entry


def test_superblock_formation_covers_suite():
    from repro.machine.superblock import compile_blocks, form_blocks

    for name in sorted(SUITE):
        workload = SUITE[name]
        program = workload.build_baseline(workload.make_input())
        blocks = form_blocks(program)
        assert blocks, f"{name}: no superblocks formed"
        compiled = compile_blocks(program)
        assert len(compiled.blocks) == len(blocks)
    # the paper's headline workload must compile its hot loop as a loop
    # block, or the 3x run() target is unreachable
    mcf = SUITE["mcf"]
    assert any(
        is_loop for _, _, is_loop
        in form_blocks(mcf.build_baseline(mcf.make_input())))


def test_superblock_code_cache_shares_compiles_across_machines():
    from repro.machine import superblock

    workload = SUITE["gap"]
    program = workload.build_baseline(workload.make_input(scale=4))
    superblock.reset_cache_stats()
    first = Machine(program)
    run_to_completion(first)
    second = Machine(program)
    run_to_completion(second)
    stats = superblock.cache_stats()
    assert stats["cache_misses"] == 1
    assert stats["cache_hits"] >= 1
    assert stats["blocks_compiled"] >= 1
    assert stats["build_seconds"] > 0
    assert first.output == second.output
