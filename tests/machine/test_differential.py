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
analysis ``run`` generates into its thunks as shadow transfers while
``step()`` calls their hooks: every analysis result and every piece of
shadow state must equal the ``step()`` loop's.  Directed cases add what
random single-context programs lack: the DTT engine, the limit's
single-stepped tail, an observer without a transfer, and detaching one.

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

from repro.core.engine import DttEngine
from repro.core.registry import ThreadRegistry
from repro.errors import (AlignmentFault, ExecutionFault,
                          ExecutionLimitExceeded, MemoryFault)
from repro.isa.builder import ProgramBuilder
from repro.isa.instructions import OPCODES
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
    """``run`` under both analyses must end where the ``step()`` loop
    does, on transfers: returns the ``run`` machine and the fault."""
    stepped, expected, fault = _analysed(program, step, **kwargs)
    machine, actual, run_fault = _analysed(program, run, **kwargs)
    assert (actual, run_fault) == (expected, fault)
    assert machine.instructions_executed == stepped.instructions_executed
    assert stepped.shadow_instructions == 0
    assert machine.shadow_instructions > 0
    return machine, fault


@given(plans())
@settings(max_examples=50, deadline=None)
def test_analyses_on_run_match_step(plan):
    assert_analyses_match_step(lower(plan))


def test_seeded_sweep_analyses_match_step():
    """200 seeded programs: every shadow kind, wild indexed addresses on
    the checked memory path, and faults mid-run."""
    rng = random.Random(0x5AD0)
    faults = set()
    for _ in range(200):
        _machine, fault = assert_analyses_match_step(
            lower(compose_plan(rng.choice)))
        faults.add(fault)
    assert {"MemoryFault", "ExecutionFault", None} <= faults


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
    machine, fault = assert_analyses_match_step(program, num_contexts=2,
                                                specs=specs)
    assert fault is None
    assert machine.support_instructions > 0
    assert machine.shadow_instructions < machine.instructions_executed


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
    machine, fault = assert_analyses_match_step(_spin_loads(),
                                                max_instructions=40_000)
    assert fault == ExecutionLimitExceeded.__name__
    assert machine.shadow_instructions < 40_000


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
