"""Driver equivalence: ``Machine.run`` must match ``step()`` exactly.

``run`` dispatches exec-compiled superblocks and runs what they leave on
the pre-decoded step handlers, and it batches its counter reconciliation;
these tests prove that is invisible — every bundled workload produces
byte-identical memory, output, counters, and engine trace streams under
``step()``, under ``run``, and under ``run`` with blocks that never
compile (the ``closure`` path), and faults/limits/budgets land on the
same instruction with the same machine state.
"""

import gc
import weakref

import pytest

from repro.core.engine import DttEngine
from repro.core.registry import ThreadRegistry
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
from repro.profiling.redundancy import RedundantLoadProfiler
from repro.profiling.slices import RedundancyTaintAnalyzer
from repro.workloads.suite import SUITE

from tests.conftest import (RUN_PATHS, HookRecorder, build_dtt_sum,
                            every_block_compiled, never_compiled)


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


def test_observed_run_sees_every_instruction():
    workload = SUITE["mcf"]
    inp = workload.make_input(scale=4)
    program = workload.build_baseline(inp)
    observed = Machine(program)
    observer = _CountingObserver()
    observed.add_observer(observer)
    run_to_completion(observed)
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
    # stepping, uncompiled and compiled batch runs on the same machine
    # may be freely mixed
    workload = SUITE["gzip"]
    inp = workload.make_input(scale=4)
    program = workload.build_baseline(inp)
    mixed = Machine(program)
    main = mixed.main_context
    for _ in range(137):
        mixed.step(main)
    never_compiled(mixed).run(main, max_steps=501)
    mixed._superblocks = None  # the next run recompiles the real table
    mixed.run(main, max_steps=503)
    while main.state is ContextState.RUNNING:
        mixed.step(main)
    reference = Machine(program)
    run_to_completion(reference)
    assert fingerprint(mixed) == fingerprint(reference)


# -- superblock specifics ----------------------------------------------------------


def _codes(program):
    """The shared code object of each functional block of ``program``,
    by entry."""
    from repro.machine.superblock import block_code, form_blocks

    return {entry: block_code(program.instructions, entry, length,
                              is_loop)[0]
            for entry, length, is_loop in form_blocks(program)}


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
    # the compiled guard must bail to the step handler, which raises the same
    # MemoryFault with the same counters and pc as single-stepping
    fp = _fault_fingerprints(
        _guard_side_exit_program(6), MemoryFault, "outside address space")
    assert fp["state"] is ContextState.RUNNING


def _mid_loop_fault_program(pad=0):
    """``pad`` nops, then a loop block whose ``idiv`` divides by zero on
    its third iteration."""
    b = ProgramBuilder()
    with b.function("main"):
        with b.scratch(4) as (i, d, q, z):
            for _ in range(pad):
                b.nop()
            b.li(i, 5)
            b.li(z, 0)
            b.label("loop")
            b.subi(d, i, 3)
            b.idiv(q, i, d)         # faults when i reaches 3
            b.subi(i, i, 1)
            b.bgt(i, z, "loop")
        b.halt()
    return b.build()


def test_superblock_mid_loop_arithmetic_fault_identical():
    # an idiv-by-zero on a later iteration exercises the in-block fault
    # reconciliation path (traceback position + batched counter writeback)
    fp = _fault_fingerprints(_mid_loop_fault_program(), ExecutionFault,
                             "division by zero")
    assert fp["instructions_executed"] > 4  # faulted mid-loop, not at entry


def test_one_shape_faulting_at_two_entries_matches_step():
    # the same loop shape at two entry PCs runs one shared code object;
    # its fault must leave each machine's pc, registers and counters
    # exactly where step() leaves them
    from repro.machine.superblock import form_blocks

    entries = []
    for pad in (0, 3):
        program = _mid_loop_fault_program(pad)
        (entry,) = [e for e, _, is_loop in form_blocks(program) if is_loop]
        entries.append((program, entry))
        fp = _fault_fingerprints(program, ExecutionFault, "division by zero")
        assert fp["pc"] == entry + 1  # the idiv
        assert fp["instructions_executed"] > pad + 4  # mid-loop
    (first, a), (second, b) = entries
    assert a != b
    assert _codes(first)[a] is _codes(second)[b]


@pytest.mark.parametrize("copies", [
    ((1, 1), (2, 1)),        # the forward branch skips one or two
    ((1, 1), (1, 1.0)),      # an int or a float immediate
    ((1, 0.0), (1, -0.0)),   # zero or negative zero
], ids=["target", "int-float", "signed-zero"])
def test_blocks_of_different_shapes_do_not_share_code(copies):
    # two blocks alike but for one branch target or immediate: each is
    # part of the shape, or the second block would run the first's code
    from repro.machine.superblock import form_blocks

    b = ProgramBuilder()
    with b.function("main"):
        with b.scratch(2) as (x, z):
            b.li(z, 0)
            b.li(x, 0)
            for copy, (skipped, step) in enumerate(copies):
                b.label(f"copy{copy}")
                b.addi(x, x, step)
                b.beqz(z, f"over{copy}_{skipped}")
                b.addi(x, x, 100)
                if skipped == 1:
                    b.label(f"over{copy}_{skipped}")
                b.addi(x, x, 1000)
                if skipped == 2:
                    b.label(f"over{copy}_{skipped}")
                b.out(x)
                b.call("noop")
        b.halt()
    with b.function("noop"):
        b.ret()
    program = b.build()
    first, second = (program.labels[f"copy{copy}"] for copy in (0, 1))
    lengths = {entry: n for entry, n, _ in form_blocks(program)}
    assert lengths[first] == lengths[second] == 5
    codes = _codes(program)
    assert codes[first] is not codes[second]
    reference = Machine(program)
    drive_legacy(reference)
    for prepare in RUN_PATHS.values():
        machine = prepare(Machine(program))
        run_to_completion(machine)
        assert fingerprint(machine) == fingerprint(reference)
        assert list(map(repr, machine.output)) == \
            list(map(repr, reference.output))


def record_handler_calls(machine) -> list:
    """Test fake: wrap each of ``machine``'s pre-decoded step handlers
    so that every call, cold or stepped, appends its pc to the returned
    list."""
    calls = []

    def recorded(handler):
        def call(m, ctx, instruction, pc):
            calls.append(pc)
            return handler(m, ctx, instruction, pc)
        return call

    machine._decoded = [(recorded(handler), instruction)
                        for handler, instruction in machine._decoded]
    return calls


def test_loop_block_entered_once_runs_compiled():
    from repro.machine.superblock import SB_PREFIX, form_blocks

    b = ProgramBuilder()
    with b.function("main"):
        with b.scratch(2) as (i, total):
            b.li(i, 1000)
            b.li(total, 0)
            b.label("loop")
            b.add(total, total, i)
            b.subi(i, i, 1)
            b.bnez(i, "loop")
            b.out(total)
        b.halt()
    program = b.build()
    (entry,) = [e for e, _, is_loop in form_blocks(program) if is_loop]
    machine = Machine(program)
    cold = record_handler_calls(machine)
    run_to_completion(machine)
    assert machine._superblocks[entry].__name__ == f"{SB_PREFIX}{entry}"
    assert machine.instructions_executed > 3000
    assert len(cold) < 10  # the loop ran compiled, not cold
    reference = Machine(program)
    drive_legacy(reference)
    assert fingerprint(machine) == fingerprint(reference)


def _ill_nested_program(crossing):
    """A range whose ``jmp`` back to an interior head closes a loop that
    another loop crosses (``crossing``), or that a forward branch enters
    past its head; the code after the ``jmp`` runs on to the halt."""
    b = ProgramBuilder()
    with b.function("main"):
        b.li(4, 3)
        if crossing:
            b.label("first")
            b.addi(5, 5, 1)
            b.label("middle")
            b.subi(4, 4, 1)
            b.bgt(4, 0, "first")    # loop [first, here]
            b.addi(6, 6, 1)
            b.slti(7, 6, 3)
            b.beqz(7, "out")
            b.jmp("middle")         # loop [middle, here]: crosses it
        else:
            b.beqz(8, "middle")     # enters the loop past its head
            b.label("second")
            b.addi(5, 5, 1)
            b.label("middle")
            b.subi(4, 4, 1)
            b.beqz(4, "out")
            b.jmp("second")
        b.label("out")
        b.out(5)
        b.out(6)
        b.halt()
    return b.build()


@pytest.mark.parametrize("crossing", [True, False],
                         ids=["crossing-loops", "entered-past-its-head"])
def test_an_ill_nested_range_stops_at_its_first_backward_jmp(crossing):
    from repro.machine.superblock import form_blocks, loop_nest

    program = _ill_nested_program(crossing)
    jmp = next(pc for pc, ins in enumerate(program.instructions)
               if ins.op == "jmp")
    halt = len(program.instructions) - 1
    assert program.instructions[jmp].target < jmp < halt - 2
    # the range would run on to the halt, but its loops are ill nested
    assert loop_nest(program.instructions, 0, halt) is None
    assert (0, jmp + 1, False) in form_blocks(program)
    reference = Machine(program)
    drive_legacy(reference)
    for prepare in RUN_PATHS.values():
        machine = prepare(Machine(program))
        run_to_completion(machine)
        assert fingerprint(machine) == fingerprint(reference)


def test_equake_row_loop_nest_is_one_loop_block():
    # the sparse row loop (PCs 49-67) with its inner loop (57-65) is one
    # block: the inner loop's backward jmp does not end it
    from repro.machine.superblock import form_blocks, loop_nest

    equake = SUITE["equake"]
    program = equake.build_baseline(equake.make_input())
    ops = [ins.op for ins in program.instructions]
    assert (ops[65], program.instructions[65].target) == ("jmp", 57)
    assert (ops[67], program.instructions[67].target) == ("jmp", 49)
    assert (49, 19, True) in form_blocks(program)
    assert loop_nest(program.instructions, 49, 19) == {8: 17}


def test_superblock_formation_covers_suite():
    from repro.machine.superblock import form_blocks

    for name in sorted(SUITE):
        workload = SUITE[name]
        program = workload.build_baseline(workload.make_input())
        blocks = form_blocks(program)
        assert blocks, f"{name}: no superblocks formed"
        assert len(_codes(program)) == len(blocks)
    # the paper's headline workload must compile its hot loop as a loop
    # block, or the 3x run() target is unreachable
    mcf = SUITE["mcf"]
    assert any(
        is_loop for _, _, is_loop
        in form_blocks(mcf.build_baseline(mcf.make_input())))


def test_superblock_code_cache_shares_compiles_across_machines():
    # a second machine on the same program compiles nothing: every block
    # it binds is a hit on a shape the first machine compiled
    from repro.machine import superblock

    workload = SUITE["gap"]
    program = workload.build_baseline(workload.make_input(scale=4))
    superblock.reset_cache_stats()
    first = Machine(program)
    run_to_completion(first)
    bound = superblock.cache_stats()["blocks_compiled"]
    assert bound >= 1
    superblock.reset_cache_stats()
    second = Machine(program)
    run_to_completion(second)
    stats = superblock.cache_stats()
    assert stats["cache_misses"] == 0
    assert stats["build_seconds"] == 0
    assert stats["cache_hits"] == stats["blocks_compiled"] == bound
    assert stats["hit_rate"] == 1.0
    assert first.output == second.output


def test_observed_block_shapes_compile_afresh_outside_the_code_cache():
    # observed shapes seldom recur: a second observed machine on the same
    # program compiles every block again, and neither run adds a shape to
    # the code cache, though each compile counts as a miss
    from repro.machine import superblock

    workload = SUITE["gap"]
    program = workload.build_baseline(workload.make_input(scale=4))
    cached = dict(superblock._CODE_CACHE)
    outputs = []
    for _ in range(2):
        superblock.reset_cache_stats()
        machine = Machine(program)
        machine.add_observer(RedundantLoadProfiler())
        machine.add_observer(RedundancyTaintAnalyzer())
        run_to_completion(machine)
        stats = superblock.cache_stats()
        assert machine.compiled_instructions > 0
        assert stats["cache_hits"] == 0
        assert stats["cache_misses"] == stats["blocks_compiled"] >= 1
        assert dict(superblock._CODE_CACHE) == cached
        outputs.append(machine.output)
    assert outputs[0] == outputs[1]


def test_baseline_and_dtt_builds_share_block_shapes():
    # the DTT build moves the baseline's loops to other PCs; relocatable
    # code lets both builds run one compile of each shared shape
    from repro.machine.superblock import form_blocks, shape

    workload = SUITE["mcf"]
    inp = workload.make_input()
    builds = [workload.build_baseline(inp), workload.build_dtt(inp).program]
    shapes = [{shape(p.instructions, range(e, e + n), e): e
               for e, n, _ in form_blocks(p)} for p in builds]
    moved = [(shapes[0][key], shapes[1][key])
             for key in shapes[0].keys() & shapes[1].keys()
             if shapes[0][key] != shapes[1][key]]
    assert moved
    baseline, dtt = (_codes(p) for p in builds)
    assert all(baseline[a] is dtt[b] for a, b in moved)


# -- observed runs ------------------------------------------------------------------
#
# With observers attached, ``run`` executes every PC on an observed thunk
# that calls the hooks itself.  The hook stream (kind, context, pc,
# arguments, order), the end state and any fault must match the
# ``step()`` loop's.


def _observed(program, driver, num_contexts=1, max_instructions=20_000_000,
              spec=None):
    """Run ``program`` under a :class:`HookRecorder`; returns
    ``(fingerprint, hook events, fault)``."""
    machine = Machine(program, num_contexts=num_contexts,
                      max_instructions=max_instructions)
    if spec is not None:
        machine.attach_engine(DttEngine(ThreadRegistry([spec])))
    recorder = HookRecorder()
    machine.add_observer(recorder)
    fault = None
    try:
        driver(machine)
    except Exception as exc:  # noqa: BLE001 - fault identity is the point
        fault = (type(exc).__name__, str(exc))
    return fingerprint(machine), recorder.events, fault


def assert_observed_run_matches_step(program, **kwargs):
    reference = _observed(program, drive_legacy, **kwargs)
    assert _observed(program, run_to_completion, **kwargs) == reference
    return reference


def test_observed_faulting_load_matches_step():
    _fp, events, fault = assert_observed_run_matches_step(
        _guard_side_exit_program(6))
    assert fault[0] == "MemoryFault"
    assert any(event[0] == "load" for event in events)


def test_observed_faulting_store_matches_step():
    b = ProgramBuilder()
    b.zeros("xs", 4)
    with b.function("main"):
        with b.scratch(3) as (i, base, v):
            b.la(base, "xs")
            b.li(i, 3)
            b.label("loop")
            b.stx(i, base, i)       # faults once base + i < 0
            b.subi(i, i, 1)
            b.sub(base, base, i)
            b.jmp("loop")
        b.halt()
    _fp, events, fault = assert_observed_run_matches_step(b.build())
    assert fault[0] == "MemoryFault"
    assert any(event[0] == "store" for event in events)


def test_observed_division_fault_matches_step():
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
    _fp, events, fault = assert_observed_run_matches_step(b.build())
    assert fault == ("ExecutionFault", "integer division by zero")
    # the faulting idiv (pc 3) calls no hook; the last one is its subi
    assert events[-1] == ("instruction", 0, 2, "subi")


def test_observed_instruction_limit_matches_step():
    # the limit is reached by the single-step hand-off after observed
    # batch execution
    b = ProgramBuilder()
    b.data("xs", [1])
    with b.function("main"):
        with b.scratch(2) as (base, v):
            b.la(base, "xs")
            b.label("loop")
            b.ld(v, base, 0)
            b.addi(v, v, 1)
            b.st(v, base, 0)
            b.bnez(v, "loop")
        b.halt()
    fp, events, fault = assert_observed_run_matches_step(
        b.build(), max_instructions=40_000)
    assert fault[0] == "ExecutionLimitExceeded"
    assert fp["instructions_executed"] == 40_001
    assert sum(event[0] == "instruction" for event in events) == 40_000


@pytest.mark.parametrize("num_contexts", [1, 2])
def test_observed_dtt_run_matches_step(num_contexts):
    program, spec = build_dtt_sum([3, 1, 4, 1, 5], [0, 2, 4], [9, 8, 7])
    _fp, events, fault = assert_observed_run_matches_step(
        program, num_contexts=num_contexts, spec=spec)
    assert fault is None
    assert any(event[0] == "store" and event[-1] for event in events)
    if num_contexts == 2:
        # the synchronous engine runs the support thread nested inside
        # the tcheck: after the tst's on_store, before the tcheck's own
        # on_instruction
        tst_store = next(n for n, event in enumerate(events)
                         if event[0] == "store" and event[-1])
        support = next(n for n, event in enumerate(events) if event[1] == 1)
        tcheck = next(n for n, event in enumerate(events)
                      if event[0] == "instruction" and event[3] == "tcheck")
        assert tst_store < support < tcheck


@pytest.mark.parametrize("observed", [False, True])
def test_limit_inside_a_nested_support_thread_matches_step(observed):
    # the first support thread runs nested inside a tcheck for longer
    # than the headroom left, so the limit fires inside it: the tcheck
    # itself must already be counted then, as in a step() loop
    program, spec = build_dtt_sum(list(range(6000)), [0, 5], [9, 8])

    def run_out(driver):
        machine = Machine(program, num_contexts=2, max_instructions=30_000)
        machine.attach_engine(DttEngine(ThreadRegistry([spec])))
        recorder = HookRecorder()
        if observed:
            machine.add_observer(recorder)
        with pytest.raises(ExecutionLimitExceeded):
            driver(machine)
        return fingerprint(machine), machine.contexts[1].pc, recorder.events

    fast = run_out(run_to_completion)
    assert fast == run_out(drive_legacy)
    assert fast[0]["instructions_executed"] == 30_001


# -- observer wiring ------------------------------------------------------------------


def _mcf_program():
    workload = SUITE["mcf"]
    return workload.build_baseline(workload.make_input(scale=4))


def test_observer_added_mid_run_sees_exactly_the_rest():
    program = _mcf_program()
    machine = Machine(program)
    machine.run(max_steps=5000)  # compiles and runs superblocks
    observer = _CountingObserver()
    machine.add_observer(observer)
    run_to_completion(machine)
    assert observer.instructions == machine.instructions_executed - 5000
    reference = Machine(program)
    run_to_completion(reference)
    assert fingerprint(machine) == fingerprint(reference)


def test_removed_observer_sees_nothing_more():
    program = _mcf_program()
    machine = Machine(program)
    observer = _CountingObserver()
    machine.add_observer(observer)
    machine.run(max_steps=5000)
    assert observer.instructions == 5000
    machine.remove_observer(observer)
    run_to_completion(machine)
    assert observer.instructions == 5000
    reference = Machine(program)
    run_to_completion(reference)
    assert fingerprint(machine) == fingerprint(reference)


def test_one_load_history_while_an_analysis_reads_it():
    # the machine keeps one history for every attached analysis whose
    # shadow reads {redundant}, from the first attached to the last
    # detached; other observers get none
    from repro.profiling.sampled import SampledRedundantLoadProfiler

    machine = Machine(_mcf_program())
    for other in (HookRecorder(), SampledRedundantLoadProfiler()):
        machine.add_observer(other)
        assert machine.load_history is None
        assert other.load_history is None
    loads, slices = RedundantLoadProfiler(), RedundancyTaintAnalyzer()
    machine.add_observer(loads)
    history = machine.load_history
    assert history is not None and loads.load_history is history
    machine.run(max_steps=5000)
    assert history.last
    machine.add_observer(slices)
    assert machine.load_history is slices.load_history is history
    machine.remove_observer(loads)
    assert machine.load_history is history
    machine.remove_observer(slices)
    assert machine.load_history is None


def test_declared_transfers_replace_hook_calls():
    # with every block compiled, both analyses run as shadow transfers
    # inside the blocks: their hooks are called only for the instructions
    # that no block retired, exactly as step() calls them there
    from repro.machine.semantics import KIND_HOOKS, SEMANTICS

    program = _mcf_program()
    machine = Machine(program)
    analyses = (RedundantLoadProfiler(), RedundancyTaintAnalyzer())
    for analysis in analyses:
        machine.add_observer(analysis)
    every_block_compiled(machine)
    cold = record_handler_calls(machine)
    hooked = []  # (analysis, hook, pc) of every hook call, in order
    for analysis in analyses:
        for name in ("on_load", "on_store", "on_branch", "on_instruction"):
            hook = getattr(analysis, name)
            setattr(analysis, name,
                    lambda ctx, pc, *args, key=(analysis, name), hook=hook:
                    hooked.append(key + (pc,)) or hook(ctx, pc, *args))
    run_to_completion(machine)
    assert machine.compiled_instructions > 0.99 * \
        machine.instructions_executed
    assert len(cold) == \
        machine.instructions_executed - machine.compiled_instructions
    for analysis in analyses:
        calls = [(name, pc) for owner, name, pc in hooked
                 if owner is analysis]
        expected = []
        for pc in cold:
            op = program.instructions[pc].op
            kind = SEMANTICS[op].kind if op in SEMANTICS else None
            if kind in KIND_HOOKS:
                expected.append((KIND_HOOKS[kind], pc))
            expected.append(("on_instruction", pc))
        assert calls == expected


def _assert_freed_without_the_cycle_collector(observers):
    # the block table may not keep its machine's memory once the machine
    # is freed, or every finished machine lives on until a full collection
    program = _mcf_program()
    gc.disable()
    try:
        machine = Machine(program)
        attached = observers()
        for observer in attached:
            machine.add_observer(observer)
        run_to_completion(machine)
        # only observers that all declare a shadow transfer run blocks
        shadowed = all(o.shadow is not None for o in attached)
        assert (machine.compiled_instructions > 0) == shadowed
        # the table, and a block or its countdown stub: each holds memory
        table = machine._superblocks
        entries = [entry for entry in table if entry is not None]
        assert bool(entries) == shadowed
        held = [weakref.ref(entry) for entry in entries[:1]]
        ref = weakref.ref(machine)
        del machine, entries
        assert ref() is None
        assert [entry() for entry in held] == [None] * len(held)
        if shadowed:
            assert table == []  # cleared when its machine was freed
    finally:
        gc.enable()


def test_unobserved_machine_is_freed_without_the_cycle_collector():
    # a machine without observers runs compiled blocks
    _assert_freed_without_the_cycle_collector(lambda: [])


def test_profiled_machine_is_freed_without_the_cycle_collector():
    # a hook observer keeps the run on the step handlers
    _assert_freed_without_the_cycle_collector(lambda: [_CountingObserver()])


def test_shadowed_machine_is_freed_without_the_cycle_collector():
    # observers that all declare a shadow transfer run on compiled blocks
    _assert_freed_without_the_cycle_collector(
        lambda: [RedundantLoadProfiler(), RedundancyTaintAnalyzer()])
