"""Differential testing: random DTIR programs vs an independent oracle.

Generates random programs over every non-engine opcode — ALU, FP and
immediate ops, direct and indexed memory traffic (including wild indexed
addresses), all eight conditional branches as forward skips, forward
``jmp``, ``call``/``ret`` into a subroutine, ``out`` and ``nop`` — and
re-evaluates them with a pure-Python oracle written from the ISA
description, not from the machine's code.  Every program runs on every
execution path: the ``step()`` loop, each ``Machine.run`` path of
``tests.conftest.RUN_PATHS``, an observed ``run`` (observed thunks), and
a timed run (the timing simulator's solo run-ahead).  Registers, memory,
output, the load/store and instruction counters, and any fault (its
type) must match the oracle.

The same programs also run under both redundancy analyses, whose
analysis ``run`` generates into its thunks and compiled blocks as shadow
transfers while ``step()`` calls their hooks: on every ``Machine.run``
path of ``RUN_PATHS``, every analysis result and every piece of shadow
state must equal the ``step()`` loop's, guard and fault hand-backs
inside compiled blocks included.  Directed cases add what
random single-context programs lack: the DTT engine, the limit's
single-stepped tail, an observer without a transfer, and detaching one.

Synchronous support threads are compared the same way: DTT programs
whose support thread runs a random body, plus directed cases (the limit
or a fault mid-body, cascading stores, several activations per
``tcheck``, hook observers), run under ``run_to_completion``, whose
batch loop also runs the nested support threads, and under the
``step()`` loop, which single-steps them.  Every context, memory, the
counters, any fault, the engine summary and the engine's ordered event
stream must match.

All paths are generated from one set of semantics templates, so two
paths can no longer disagree with each other about an opcode; this
oracle is the test that catches a wrong template.

An ALU op or branch may first load its source registers with random
immediates, so every op meets negative, huge, float and special
operands, not only what the program happened to compute.  Operands that
could make a value explode are bounded by construction: ``mul`` and the
register shifts and divisions take their second operand from a freshly
loaded small immediate.
"""

import functools
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import DttConfig
from repro.core.engine import DttEngine
from repro.core.registry import ThreadRegistry, TriggerSpec
from repro.core.trace import EngineEvent, EngineTrace
from repro.errors import (AlignmentFault, CascadeError, ExecutionFault,
                          ExecutionLimitExceeded, MemoryFault)
from repro.isa.builder import ProgramBuilder
from repro.isa.instructions import OPCODES
from repro.machine import superblock
from repro.machine.context import ContextState
from repro.machine.events import TraceObserver
from repro.machine.machine import ENGINE_OPCODES, Machine, run_to_completion
from repro.profiling.redundancy import RedundantLoadProfiler
from repro.profiling.slices import RedundancyTaintAnalyzer
from repro.timing.system import TimingSimulator
from repro.workloads.suite import SUITE

from tests.conftest import RUN_PATHS, HookRecorder, build_dtt_sum

# register window the generated programs use (avoids reserved r1..r3)
REGS = [4, 5, 6, 7]
BASE_REG = 8  # fixed register holding the array base
ARRAY = 8  # words of addressable scratch

# -- the oracle's semantics, from the ISA description -------------------------


def _tdiv(b, c):
    """Integer division truncating toward zero."""
    if c == 0:
        raise ExecutionFault("integer division by zero")
    q = b // c
    if q < 0 and q * c != b:
        q += 1  # floor rounded away from zero
    return q


def _tmod(b, c):
    """Remainder with the sign of the dividend."""
    if c == 0:
        raise ExecutionFault("integer division by zero")
    r = abs(b) % abs(c)
    return -r if b < 0 else r


def _fdiv(b, c):
    if float(c) == 0.0:
        raise ExecutionFault("floating-point division by zero")
    return float(b) / float(c)


def _fsqrt(b):
    if float(b) < 0.0:
        raise ExecutionFault("fsqrt of a negative value")
    return float(b) ** 0.5


#: register-register and register-immediate ALU ops: value of ``a``
BINARY = {
    "add": lambda b, c: b + c,
    "sub": lambda b, c: b - c,
    "mul": lambda b, c: b * c,
    "idiv": lambda b, c: _tdiv(int(b), int(c)),
    "imod": lambda b, c: _tmod(int(b), int(c)),
    "and_": lambda b, c: int(b) & int(c),
    "or_": lambda b, c: int(b) | int(c),
    "xor": lambda b, c: int(b) ^ int(c),
    "shl": lambda b, c: int(b) << int(c),
    "shr": lambda b, c: int(b) >> int(c),
    "slt": lambda b, c: int(b < c),
    "sle": lambda b, c: int(b <= c),
    "sgt": lambda b, c: int(b > c),
    "sge": lambda b, c: int(b >= c),
    "seq": lambda b, c: int(b == c),
    "sne": lambda b, c: int(b != c),
    "fadd": lambda b, c: float(b) + float(c),
    "fsub": lambda b, c: float(b) - float(c),
    "fmul": lambda b, c: float(b) * float(c),
    "fdiv": _fdiv,
}
IMMEDIATE = {op + "i": BINARY[op]
             for op in ("add", "sub", "mul", "shl", "shr", "slt", "sgt",
                        "seq")}
IMMEDIATE.update(andi=BINARY["and_"], ori=BINARY["or_"], xori=BINARY["xor"])
UNARY = {
    "mov": lambda b: b,
    "fsqrt": _fsqrt,
    "fabs": lambda b: abs(float(b)),
    "fneg": lambda b: -float(b),
    "itof": float,
    "ftoi": int,
}
BRANCHES = {
    "beq": lambda a, b: a == b,
    "bne": lambda a, b: a != b,
    "blt": lambda a, b: a < b,
    "ble": lambda a, b: a <= b,
    "bgt": lambda a, b: a > b,
    "bge": lambda a, b: a >= b,
    "beqz": lambda a, b: a == 0,
    "bnez": lambda a, b: a != 0,
}
#: binary ops whose second operand is loaded from a small immediate first
BOUNDED = {"mul", "shl", "shr", "idiv", "imod"}
#: the opcodes the generator emits outside the four tables
OTHER = {"li", "ld", "ldx", "st", "stx", "out", "nop", "jmp", "call", "ret"}


def test_generator_covers_every_non_engine_opcode():
    covered = set(BINARY) | set(IMMEDIATE) | set(UNARY) | set(BRANCHES)
    assert covered | OTHER == set(OPCODES) - ENGINE_OPCODES


# -- program generation --------------------------------------------------------

#: immediates an ``li`` may load, besides small random integers
IMMEDIATE_POOL = [0, 1, -1, 2, -2, 3, -3, 7, -7, 13, -13, 64, -64,
                  10 ** 40, -(10 ** 40), 0.0, -0.0, 0.5, -2.5, 3.75, 1e6,
                  float("inf"), float("-inf"), float("nan")]
SMALL = range(-9, 71)
#: straight-line item kinds, weighted toward the ALU ops (58 templates)
STEP_KINDS = ["li", "binary", "binary", "binary", "imm", "imm", "unary",
              "ld", "st", "ldx", "stx", "out", "nop"]


def compose_plan(pick):
    """One plan ``(body, terminal)`` from ``pick(options)``, shared by
    hypothesis and the seeded sweep so both explore the same family."""

    def immediate():
        return pick([pick(IMMEDIATE_POOL), pick(range(-100, 101))])

    def preloads(*regs):
        # ``li`` the registers an instruction reads right before it:
        # none, or a prefix of ``regs``
        count = pick(range(len(regs) + 1))
        return [[reg, immediate()] for reg in regs[:count]]

    def straight():
        rd, rs, rt = pick(REGS), pick(REGS), pick(REGS)
        kind = pick(STEP_KINDS)
        if kind == "li":
            return ["li", rd, immediate()]
        if kind == "binary":
            op = pick(sorted(BINARY))
            if op in BOUNDED:
                return ["binary", op, rd, rs, rt,
                        preloads(rs) + [[rt, pick(SMALL)]]]
            return ["binary", op, rd, rs, rt, preloads(rs, rt)]
        if kind == "imm":
            return ["imm", pick(sorted(IMMEDIATE)), rd, rs,
                    pick([pick(SMALL), 2.5, -1.5]), preloads(rs)]
        if kind == "unary":
            return ["unary", pick(sorted(UNARY)), rd, rs, preloads(rs)]
        if kind in ("ld", "st"):
            return [kind, rd, pick(range(-1, ARRAY + 1))]
        if kind in ("ldx", "stx"):
            return [kind, rd, rs]
        if kind == "out":
            return ["out", rs]
        return ["nop"]

    def body(nested, size):
        items = []
        for _ in range(pick(range(1, size + 1))):
            compound = pick(["branch", "jmp", "call", None, None, None, None,
                             None, None]) if nested else None
            if compound is None:
                items.append(straight())
            elif compound == "branch":
                ra, rb = pick(REGS), pick(REGS)
                items.append(["branch", pick(sorted(BRANCHES)), ra, rb,
                              preloads(ra, rb), body(False, 5)])
            else:
                items.append([compound, body(False, 5)])
        return items

    return body(True, 40), pick(["halt"] * 5 + ["ret"])


@st.composite
def plans(draw):
    return compose_plan(lambda options: draw(st.sampled_from(options)))


def lower(plan):
    """Lower ``(body, terminal)`` into a finalized program."""
    body, terminal = plan
    b = ProgramBuilder()
    b.zeros("scratch", ARRAY)
    subroutines = []
    with b.function("main"):
        b.program.add_symbol_patch(b.li(BASE_REG, 0), "b", "scratch")
        _lower_body(b, body, subroutines)
        b.emit(terminal)
        for label, sub in subroutines:
            b.label(label)
            _lower_body(b, sub, subroutines)
            b.emit("ret")
    return b.build()


def _lower_body(b, body, subroutines):
    for item in body:
        kind = item[0]
        if kind == "li":
            b.li(item[1], item[2])
        elif kind in ("binary", "imm", "unary"):
            for reg, value in item[-1]:
                b.li(reg, value)
            b.emit(*item[1:-1])
        elif kind in ("ld", "st", "ldx", "stx"):
            b.emit(kind, item[1], BASE_REG, item[2])
        elif kind == "out":
            b.out(item[1])
        elif kind == "nop":
            b.nop()
        elif kind == "branch":
            _, op, ra, rb, pre, inner = item
            for reg, value in pre:
                b.li(reg, value)
            skip = b.fresh_label("skip")
            if op in ("beqz", "bnez"):
                b.emit(op, ra, label=skip)
            else:
                b.emit(op, ra, rb, label=skip)
            _lower_body(b, inner, subroutines)
            b.label(skip)
        elif kind == "jmp":
            over = b.fresh_label("over")
            b.emit("jmp", label=over)
            _lower_body(b, item[1], subroutines)
            b.label(over)
        else:  # call
            label = b.fresh_label("sub")
            subroutines.append((label, item[1]))
            b.emit("call", label=label)


# -- the oracle ----------------------------------------------------------------


class Oracle:
    """Executes a plan the way the ISA description says it behaves."""

    def __init__(self, memory, base, limit):
        self.regs = {r: 0 for r in REGS}
        self.regs[BASE_REG] = base
        self.memory = dict(memory)
        self.limit = limit
        self.output = []
        self.instructions = 1  # the base-address li
        self.loads = self.stores = 0

    def run(self, plan):
        body, terminal = plan
        try:
            self.body(body)
            self.instructions += 1
            if terminal == "ret":
                raise ExecutionFault("ret with empty call stack")
        except Exception as exc:  # noqa: BLE001 - the fault is the result
            return type(exc).__name__
        return None

    def _address(self, address):
        if not isinstance(address, int) or isinstance(address, bool):
            raise AlignmentFault(f"non-integer address {address!r}")
        if not 0 <= address < self.limit:
            raise MemoryFault(address, "outside address space")
        return address

    def preload(self, pairs):
        for reg, value in pairs:
            self.regs[reg] = value
            self.instructions += 1

    def body(self, body):
        regs = self.regs
        for item in body:
            kind = item[0]
            self.instructions += 1
            if kind == "li":
                regs[item[1]] = item[2]
            elif kind == "binary":
                _, op, rd, rs, rt, pre = item
                self.preload(pre)
                regs[rd] = BINARY[op](regs[rs], regs[rt])
            elif kind == "imm":
                _, op, rd, rs, imm, pre = item
                self.preload(pre)
                regs[rd] = IMMEDIATE[op](regs[rs], imm)
            elif kind == "unary":
                _, op, rd, rs, pre = item
                self.preload(pre)
                regs[rd] = UNARY[op](regs[rs])
            elif kind in ("ld", "ldx"):
                offset = item[2] if kind == "ld" else regs[item[2]]
                address = self._address(regs[BASE_REG] + offset)
                regs[item[1]] = self.memory.get(address, 0)
                self.loads += 1
            elif kind in ("st", "stx"):
                offset = item[2] if kind == "st" else regs[item[2]]
                address = self._address(regs[BASE_REG] + offset)
                self.memory[address] = regs[item[1]]
                self.stores += 1
            elif kind == "out":
                self.output.append(regs[item[1]])
            elif kind == "branch":
                _, op, ra, rb, pre, inner = item
                self.preload(pre)
                if not BRANCHES[op](regs[ra], regs[rb]):
                    self.body(inner)
            elif kind == "call":
                self.body(item[1])
                self.instructions += 1  # its ret
            # nop; jmp skips its body


# -- every execution path ------------------------------------------------------


def _run_steps(machine):
    main = machine.main_context
    while main.state is ContextState.RUNNING:
        machine.step(main)


def _run_observed(machine):
    machine.add_observer(HookRecorder())
    run_to_completion(machine)


def _run_path(path):
    prepare = RUN_PATHS[path]
    return lambda machine: run_to_completion(prepare(machine))


#: the functional paths; "timed" (the timing simulator) is the fifth
RUNNERS = {"step": _run_steps, "observed": _run_observed,
           **{path: _run_path(path) for path in RUN_PATHS}}
PATHS = sorted(RUNNERS) + ["timed"]


def _norm(value):
    """NaN-safe comparison key, keeping 1 and 1.0 apart."""
    return repr(value)


def _execute(program, path):
    """Run ``program`` on one path: (machine, fault type name or None)."""
    if path == "timed":
        simulator = TimingSimulator(program)
        machine, run = simulator.machine, simulator.run
    else:
        machine = Machine(program)
        run = functools.partial(RUNNERS[path], machine)
    try:
        run()
    except Exception as exc:  # noqa: BLE001 - the fault is the result
        return machine, type(exc).__name__
    return machine, None


def assert_matches_oracle(plan, paths):
    """Run ``plan`` on each of ``paths``; every end state must be the
    oracle's."""
    program = lower(plan)
    initial = Machine(program).memory
    oracle = Oracle(initial.snapshot(), program.address_of("scratch"),
                    initial.limit)
    expected = {
        "fault": oracle.run(plan),
        "output": [_norm(v) for v in oracle.output],
        "regs": {r: _norm(v) for r, v in oracle.regs.items()},
        "memory": {a: _norm(v) for a, v in oracle.memory.items()},
        "loads": oracle.loads,
        "stores": oracle.stores,
        "instructions": oracle.instructions,
    }
    for path in paths:
        machine, fault = _execute(program, path)
        regs = machine.main_context.regs
        assert {
            "fault": fault,
            "output": [_norm(v) for v in machine.output],
            "regs": {r: _norm(regs[r]) for r in oracle.regs},
            "memory": {a: _norm(v)
                       for a, v in machine.memory.snapshot().items()},
            "loads": machine.memory.load_count,
            "stores": machine.memory.store_count,
            "instructions": machine.instructions_executed,
        } == expected, f"{path} disagrees with the oracle on {plan!r}"


@given(plans())
@settings(max_examples=100, deadline=None)
def test_machine_matches_oracle(plan):
    assert_matches_oracle(plan, PATHS)


@pytest.mark.parametrize("path", PATHS)
def test_seeded_sweep_matches_oracle(path):
    """Bounded sweep: 200 seeded programs, dozens of instances of every
    opcode, each with random operands."""
    rng = random.Random(0x0AC1E)
    for _ in range(200):
        assert_matches_oracle(compose_plan(rng.choice), [path])


# -- the analyses' shadow transfers vs their hooks ------------------------------


def analysis_state(loads, slices):
    """Everything both analyses computed, their shadow state included."""
    return {
        "loads": loads.summary(),
        "load_sites": [(s.pc, s.dynamic, s.redundant)
                       for s in loads.load_sites()],
        "store_sites": [(s.pc, s.dynamic, s.silent, s.triggering)
                        for s in loads.store_sites()],
        "last_loaded": {a: _norm(v) for a, v in loads._last_loaded.items()},
        "slices": slices.summary(),
        "by_class": slices.redundant_by_class,
        "register_taint": {ctx: list(taint)
                           for ctx, taint in slices._reg_taint.items()},
        "memory_taint": dict(slices._mem_taint),
        "slice_last": {a: _norm(v) for a, v in slices._last.items()},
    }


def _analysed(program, drive, num_contexts=1, specs=(), extra=(),
              **machine_kwargs):
    """Run ``drive(machine, loads, slices)`` under both analyses (and the
    ``extra`` observers, attached between them); returns ``(machine,
    analysis state, fault type name or None)``."""
    machine = Machine(program, num_contexts=num_contexts, **machine_kwargs)
    if specs:
        machine.attach_engine(DttEngine(ThreadRegistry(specs)))
    loads, slices = RedundantLoadProfiler(), RedundancyTaintAnalyzer()
    for observer in (loads, *extra, slices):
        machine.add_observer(observer)
    fault = None
    try:
        drive(machine, loads, slices)
    except Exception as exc:  # noqa: BLE001 - the fault is the result
        fault = type(exc).__name__
    return machine, analysis_state(loads, slices), fault


def _steps(machine, _loads, _slices):
    _run_steps(machine)


def _run(machine, _loads, _slices):
    run_to_completion(machine)


def assert_analyses_match_step(program, step=_steps, run=_run, **kwargs):
    """``run`` under both analyses, on each ``Machine.run`` path of
    ``RUN_PATHS``, must end where the ``step()`` loop does, on
    transfers: returns ``({path: run machine}, fault)``."""
    stepped, expected, fault = _analysed(program, step, **kwargs)
    assert stepped.shadow_instructions == 0
    machines = {}
    for path, prepare in RUN_PATHS.items():
        machine, actual, run_fault = _analysed(
            program, lambda m, loads, slices: run(prepare(m), loads, slices),
            **kwargs)
        assert (actual, run_fault) == (expected, fault), path
        assert machine.instructions_executed == stepped.instructions_executed
        assert machine.shadow_instructions > 0
        assert machine.compiled_instructions <= machine.shadow_instructions
        if path == "closure":
            assert machine.compiled_instructions == 0
        machines[path] = machine
    return machines, fault


def record_hand_backs(patch: pytest.MonkeyPatch) -> list:
    """Test fake: every functional block bound from now on appends the
    PC of each instruction it hands back to the returned list."""
    handed = []
    bind = superblock.bind

    def recording(code, name, namespace, defaults):
        block = bind(code, name, namespace, defaults)

        def call(ctx, budget):
            result = block(ctx, budget)
            if result is not None and result[1] < 0:
                handed.append(-2 - result[1])
            return result
        return call

    patch.setattr(superblock, "bind", recording)
    return handed


@given(plans())
@settings(max_examples=50, deadline=None)
def test_analyses_on_run_match_step(plan):
    assert_analyses_match_step(lower(plan))


def test_seeded_sweep_analyses_match_step(monkeypatch):
    """200 seeded programs: every shadow kind, wild indexed addresses on
    the checked memory path, and faults mid-run, also where a compiled
    block hands the faulting instruction back to its thunk."""
    rng = random.Random(0x5AD0)
    handed = record_hand_backs(monkeypatch)
    faults, in_blocks = set(), set()
    for _ in range(200):
        del handed[:]
        machines, fault = assert_analyses_match_step(
            lower(compose_plan(rng.choice)))
        faults.add(fault)
        if handed and handed[-1] == machines["compiled"].main_context.pc:
            in_blocks.add(fault)  # the last hand-back was the fault
    assert {"MemoryFault", "ExecutionFault", None} <= faults
    # failed guards (a wild or a float address) and an exception inside
    # a block, each handed back to the thunk that raised it
    assert {"MemoryFault", "AlignmentFault", "ExecutionFault"} <= in_blocks


@pytest.mark.parametrize("source", ["dtt-sum", "mcf"])
def test_analyses_of_a_dtt_run_match_step(source):
    # the engine on two contexts: tst/tstx/tcheck run under step(), and
    # the synchronous engine runs each support thread nested inside it
    if source == "mcf":
        workload = SUITE["mcf"]
        build = workload.build_dtt(workload.make_input(scale=2))
        program, specs = build.program, build.specs
    else:
        program, spec = build_dtt_sum([3, 1, 4, 1, 5], [0, 2, 4, 2],
                                      [9, 8, 7, 8])
        specs = [spec]
    machines, fault = assert_analyses_match_step(program, num_contexts=2,
                                                 specs=specs)
    machine = machines["superblock"]
    assert fault is None
    assert machine.support_instructions > 0
    assert machine.shadow_instructions < machine.instructions_executed
    assert machines["compiled"].compiled_instructions > 0


def _spin_loads():
    b = ProgramBuilder()
    b.data("xs", [1])
    with b.function("main"):
        with b.scratch(2) as (base, v):
            b.la(base, "xs")
            b.label("loop")
            b.ld(v, base, 0)
            b.addi(v, v, 1)
            b.st(v, base, 0)
            b.ld(v, base, 0)
            b.bnez(v, "loop")
        b.halt()
    return b.build()


def test_analyses_near_the_instruction_limit_match_step():
    # two chunks, then run() single-steps the tail up to the limit
    machines, fault = assert_analyses_match_step(_spin_loads(),
                                                 max_instructions=40_000)
    assert fault == ExecutionLimitExceeded.__name__
    assert machines["superblock"].shadow_instructions < 40_000
    assert machines["superblock"].compiled_instructions > 0


def test_undeclared_observer_sees_steps_hook_stream():
    # a TraceObserver and a HookRecorder declare no transfer, so they get
    # the hook calls a step() loop makes, between the two analyses
    program, spec = build_dtt_sum([3, 1, 4], [0, 2], [9, 8])

    def observed(drive):
        trace, recorder = TraceObserver(), HookRecorder()
        result = _analysed(program, drive, num_contexts=2, specs=[spec],
                           extra=(trace, recorder))
        return result[1:], trace.entries, recorder.events

    expected = observed(_steps)
    assert observed(_run) == expected
    assert expected[1] and expected[2]


def test_detached_analysis_matches_step():
    # detach the taint analysis mid-run; the profiler runs on alone
    program = _spin_loads()

    def stop_slices(advance):
        def drive(machine, _loads, slices):
            advance(machine, 5000)
            machine.remove_observer(slices)
            advance(machine, 7000)
        return drive

    def stepping(machine, count):
        for _ in range(count):
            machine.step(machine.main_context)

    def running(machine, count):
        assert machine.run(max_steps=count) == count

    expected = _analysed(program, stop_slices(stepping))
    actual = _analysed(program, stop_slices(running))
    assert actual[1:] == expected[1:]
    assert actual[1]["slices"]["total_instructions"] == 5000
    assert actual[1]["loads"]["total_instructions"] == 12_000


# -- synchronous support threads: run's batch loop vs the step() loop ---------

#: the support thread every generated DTT program declares
WORKER = "worker"


def compose_dtt_plan(pick):
    """A DTT program: main triggers cells of the scratch array in rounds,
    each consumed by one ``tcheck`` and followed by a printed cell; the
    support thread's body is a random :func:`compose_plan` body."""
    body, terminal = compose_plan(pick)
    rounds = [
        [[[pick(range(ARRAY)), pick([0, 1, 2, pick(SMALL)])]
          for _ in range(pick([1, 2, 3]))], pick(range(ARRAY))]
        for _ in range(pick([1, 2, 3]))
    ]
    return {"body": body, "terminal": pick(["treturn"] * 4 + [terminal]),
            "rounds": rounds, "per_address": pick([False, True])}


@st.composite
def dtt_plans(draw):
    return compose_dtt_plan(lambda options: draw(st.sampled_from(options)))


def lower_dtt(plan):
    """Lower a :func:`compose_dtt_plan` plan: ``(program, specs)``."""
    b = ProgramBuilder()
    b.zeros("scratch", ARRAY)
    subroutines = []
    with b.thread(WORKER):
        b.la(BASE_REG, "scratch")
        _lower_body(b, plan["body"], subroutines)
        b.emit(plan["terminal"])
        if plan["terminal"] != "treturn":
            b.treturn()  # unreachable, but a thread must contain one
        for label, sub in subroutines:
            b.label(label)
            _lower_body(b, sub, subroutines)
            b.emit("ret")
    store_pcs = []
    with b.function("main"):
        b.la(BASE_REG, "scratch")
        for stores, printed in plan["rounds"]:
            for cell, value in stores:
                b.li(REGS[0], value)
                store_pcs.append(b.tst(REGS[0], BASE_REG, cell))
            b.tcheck_thread(WORKER)
            b.ld(REGS[0], BASE_REG, printed)
            b.out(REGS[0])
        b.halt()
    spec = TriggerSpec(WORKER, store_pcs=store_pcs,
                       per_address_dedupe=plan["per_address"])
    return b.build(), [spec]


def dtt_state(machine, trace):
    """Everything a DTT run leaves behind: every context, memory, output,
    the counters, the engine summary and its ordered event stream."""
    return {
        "contexts": [
            ([_norm(v) for v in ctx.regs], ctx.pc, list(ctx.call_stack),
             ctx.state.value, ctx.role.value, ctx.thread_name,
             ctx.waiting_on, ctx.instruction_count)
            for ctx in machine.contexts
        ],
        "memory": {a: _norm(v) for a, v in machine.memory.snapshot().items()},
        "loads": machine.memory.load_count,
        "stores": machine.memory.store_count,
        "output": [_norm(v) for v in machine.output],
        "counters": (machine.instructions_executed,
                     machine.main_instructions,
                     machine.support_instructions),
        "engine": machine.dtt_engine.summary(),
        "events": [tuple(getattr(event, name)
                         for name in EngineEvent.__slots__)
                   for event in trace.events],
    }


def _dtt_run(program, specs, drive, config=None, observers=(),
             **machine_kwargs):
    """Drive a two-context machine with a synchronous engine: ``(machine,
    state, the support-context instructions step() executed)``, the
    fault and the observers' hook streams in the state."""
    machine = Machine(program, num_contexts=2, **machine_kwargs)
    engine = DttEngine(ThreadRegistry(specs), config=config)
    machine.attach_engine(engine)
    trace = EngineTrace(engine)
    for observer in observers:
        machine.add_observer(observer)
    support_steps = []
    step = machine.step

    def counting_step(ctx):
        if ctx is not machine.main_context:
            support_steps.append(ctx.pc)
        return step(ctx)

    machine.step = counting_step
    fault = None
    try:
        drive(machine)
    except Exception as exc:  # noqa: BLE001 - the fault is the result
        fault = (type(exc).__name__, str(exc))
    state = dtt_state(machine, trace)
    state["fault"] = fault
    state["hooks"] = [observer.entries if isinstance(observer, TraceObserver)
                      else observer.events for observer in observers]
    return machine, state, len(support_steps)


def assert_sync_run_matches_step(program, specs, observers=tuple,
                                 **kwargs):
    """``run_to_completion`` on each ``Machine.run`` path must leave what
    the ``step()`` loop leaves; returns the shipped path's machine, its
    state, and the support instructions ``step()`` executed there."""
    stepped, expected, stepped_support = _dtt_run(
        program, specs, _run_steps, observers=observers(), **kwargs)
    # a bare step() loop single-steps every support instruction (and the
    # attempt the instruction limit stops, which is not counted)
    assert stepped_support >= stepped.support_instructions
    assert stepped.shadow_instructions == 0
    for path in sorted(RUN_PATHS):
        machine, actual, support_steps = _dtt_run(
            program, specs, _run_path(path), observers=observers(),
            **kwargs)
        assert actual == expected, f"{path} disagrees with step()"
    return machine, expected, support_steps


@given(dtt_plans())
@settings(max_examples=50, deadline=None)
def test_sync_support_threads_on_run_match_step(plan):
    assert_sync_run_matches_step(*lower_dtt(plan))


def test_seeded_sweep_sync_support_threads_match_step():
    """100 seeded DTT programs: faults inside the support thread (wild
    memory, ``halt``, a stray ``ret``) as well as clean runs."""
    rng = random.Random(0x5C0DE)
    faults = set()
    batched = 0
    for _ in range(100):
        machine, state, support_steps = assert_sync_run_matches_step(
            *lower_dtt(compose_dtt_plan(rng.choice)))
        faults.add(state["fault"] and state["fault"][0])
        batched += machine.support_instructions - support_steps
    assert {"MemoryFault", "ExecutionFault", None} <= faults
    assert batched > 0


def _looping_thread(iterations, trailer=()):
    """A DTT program whose support thread loops ``iterations`` times over
    ``xs`` (long enough for compiled blocks and whole chunks), then runs
    ``trailer`` (a list of ``(op, *operands)`` with ``base`` standing for
    the register holding ``xs``); main triggers it twice."""
    b = ProgramBuilder()
    b.data("xs", [3, 1, 4, 1])
    b.data("flag", [0])
    with b.thread(WORKER):
        with b.scratch(4) as (i, base, acc, v):
            b.la(base, "xs")
            b.li(acc, 0)
            with b.for_range(i, 0, iterations):
                b.andi(v, i, 3)
                b.ldx(v, base, v)
                b.add(acc, acc, v)
            b.out(acc)
            for op, *operands in trailer:
                b.emit(op, *[base if x == "base" else x for x in operands])
        b.treturn()
    with b.function("main"):
        with b.scratch(2) as (base, v):
            b.la(base, "xs")
            for value in (5, 9):
                b.li(v, value)
                pc = b.tst(v, base, 0)
                b.tcheck_thread(WORKER)
            b.ld(v, base, 0)
            b.out(v)
        b.halt()
    return b.build(), [TriggerSpec(WORKER, store_pcs=[pc - 4, pc])]


def test_limit_firing_mid_support_body_matches_step():
    # chunks of the nested batch loop, then its single-stepped tail up to
    # the limit, which fires inside the first activation's loop
    machine, state, support_steps = assert_sync_run_matches_step(
        *_looping_thread(20_000), max_instructions=40_000)
    assert state["fault"][0] == ExecutionLimitExceeded.__name__
    assert machine.support_instructions > 35_000
    assert support_steps < 16_384  # at most the tail, one chunk long


def test_memory_fault_mid_support_body_matches_step():
    # the thread's loop runs on a compiled block, then loads a wild word
    machine, state, support_steps = assert_sync_run_matches_step(
        *_looping_thread(3000, [("ld", 5, "base", 1 << 40)]))
    assert state["fault"][0] == MemoryFault.__name__
    assert machine.support_instructions > 10_000
    assert support_steps == 0


def _cascading_program(store_value):
    """Main triggers ``flag``; the support thread prints, stores
    ``store_value`` to ``flag`` with a triggering store, prints again."""
    b = ProgramBuilder()
    b.data("flag", [0])
    with b.thread(WORKER):
        with b.scratch(3) as (base, v, one):
            b.la(base, "flag")
            b.ld(v, base, 0)
            b.out(v)
            b.li(one, store_value)
            inner = b.tst(one, base, 0)
            b.ld(v, base, 0)
            b.out(v)
        b.treturn()
    with b.function("main"):
        with b.scratch(2) as (base, v):
            b.la(base, "flag")
            b.li(v, 7)
            outer = b.tst(v, base, 0)
            b.tcheck_thread(WORKER)
            b.ld(v, base, 0)
            b.out(v)
        b.halt()
    return b.build(), [TriggerSpec(WORKER, store_pcs=[outer, inner])]


def test_cascading_store_cancelling_its_own_activation_matches_step():
    # the first activation's store changes flag: it cancels itself and
    # re-triggers; the restart stores the same value and completes
    program, specs = _cascading_program(store_value=8)
    machine, state, _ = assert_sync_run_matches_step(
        program, specs, config=DttConfig(allow_cascading=True))
    assert state["fault"] is None
    assert state["engine"]["cancels"] == 1
    assert state["engine"]["executions_completed"] == 1
    assert state["output"] == ["7", "8", "8", "8"]


def test_strict_cascading_error_in_support_thread_matches_step():
    program, specs = _cascading_program(store_value=8)
    _, state, _ = assert_sync_run_matches_step(
        program, specs,
        config=DttConfig(allow_cascading=False, strict_cascading=True))
    assert state["fault"][0] == CascadeError.__name__


def test_one_tcheck_draining_several_activations_matches_step():
    # per-address activations: every round's three stores each queue
    # one, and one tcheck runs them all
    plan = {"body": [["ld", REGS[0], 0], ["out", REGS[0]]],
            "terminal": "treturn", "per_address": True,
            "rounds": [[[[0, 5], [1, 6], [2, 7]], 1],
                       [[[3, 8], [0, 9], [0, 9]], 0]]}
    _, state, _ = assert_sync_run_matches_step(*lower_dtt(plan))
    assert state["fault"] is None
    assert state["engine"]["executions_completed"] == 5
    assert state["engine"]["wait_consumes"] == 2


def test_hook_streams_of_batched_support_threads_match_step():
    # observers without a shadow transfer see step()'s hook stream, the
    # support threads' hooks nested before their tcheck's on_instruction
    machine, state, support_steps = assert_sync_run_matches_step(
        *_looping_thread(500), observers=lambda: (TraceObserver(),
                                                  HookRecorder()))
    assert state["hooks"][0] and state["hooks"][1]
    assert any(event[1] == 1 for event in state["hooks"][1])
    assert support_steps < machine.support_instructions


def test_synchronous_mcf_steps_only_engine_opcodes(monkeypatch):
    # support threads run on the batch loop, entered privately: one
    # public run() call drives the whole machine
    workload = SUITE["mcf"]
    machine = workload.dtt_machine(workload.make_input())
    stepped, runs = [], []
    step, run = Machine.step, Machine.run

    def recording_step(self, ctx):
        stepped.append(self.program.instructions[ctx.pc].op)
        return step(self, ctx)

    def recording_run(self, *args, **kwargs):
        runs.append(args)
        return run(self, *args, **kwargs)

    monkeypatch.setattr(Machine, "step", recording_step)
    monkeypatch.setattr(Machine, "run", recording_run)
    assert run_to_completion(machine) == workload.reference_output(
        workload.make_input())
    assert machine.support_instructions > 0
    assert set(stepped) <= ENGINE_OPCODES
    assert "treturn" in stepped
    assert len(runs) == 1


# -- an instruction a compiled block hands back ---------------------------------


def _arm_fault_program():
    """A loop block that loads and stores every iteration, with an
    if-converted arm on odd counts that divides by ``i - 3`` and stores
    the quotient: the arm faults on the sixth iteration, mid-loop."""
    b = ProgramBuilder()
    b.data("xs", [7, 0])
    with b.function("main"):
        with b.scratch(7) as (i, zero, base, acc, v, t, q):
            b.la(base, "xs")
            b.li(i, 8)
            b.li(zero, 0)
            b.li(acc, 0)
            b.label("loop")
            b.ld(v, base, 0)
            b.add(acc, acc, v)
            b.andi(t, i, 1)
            b.beqz(t, "skip")
            b.subi(t, i, 3)
            b.idiv(q, acc, t)       # faults when i reaches 3
            b.st(q, base, 1)
            b.label("skip")
            b.subi(i, i, 1)
            b.bgt(i, zero, "loop")
        b.halt()
    return b.build()


@pytest.mark.parametrize("path", ["compiled", "superblock"])
def test_fault_in_an_if_converted_arm_matches_step(path):
    # the block hands the idiv back and its thunk raises: the fault, pc,
    # counters and registers must be the step() loop's
    from repro.machine.superblock import SB_PREFIX

    program = _arm_fault_program()

    def fault_state(machine, drive):
        with pytest.raises(ExecutionFault) as caught:
            drive(machine)
        main = machine.main_context
        return {"fault": (type(caught.value).__name__, str(caught.value)),
                "pc": main.pc,
                "counters": (machine.instructions_executed,
                             machine.main_instructions,
                             main.instruction_count),
                "loads": machine.memory.load_count,
                "stores": machine.memory.store_count,
                "regs": [_norm(v) for v in main.regs]}

    expected = fault_state(Machine(program), _run_steps)
    machine = Machine(program)
    actual = fault_state(machine, RUNNERS[path])
    assert actual == expected
    assert expected["fault"] == ("ExecutionFault", "integer division by zero")
    assert program.instructions[expected["pc"]].op == "idiv"
    assert expected["counters"][0] > 30  # faulted mid-loop, not at entry
    # the loop ran compiled, so the fault was handed back: in its own
    # loop block, or, when the entry's block compiles at its first reach,
    # as an inner loop of that block
    entry = program.labels["loop"] if path == "superblock" \
        else program.entry_pc
    assert machine._superblocks[entry].__name__ == f"{SB_PREFIX}{entry}"
    if path == "compiled":  # every instruction but the handed-back idiv
        assert machine.compiled_instructions == expected["counters"][0] - 1
