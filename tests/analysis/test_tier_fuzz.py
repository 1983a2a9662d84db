"""Property-based driver equivalence: step() / thunks / superblocks.

Random well-formed DTIR programs — nested bounded loops, if-diamonds,
forward jumps, integer/float ALU traffic, and wild computed addresses —
are executed by the ``step()`` loop, by ``Machine.run``, and by
``Machine.run`` on the closure thunks alone (an emptied block table).
Registers, memory, output, counters, final pc/state, and any fault (type
and message) must be identical; the superblock compiler's
if-conversion, tail duplication, side exits, and mid-block fault
reconciliation may not be observable.

The same plans also run *observed*: with a recording observer attached,
``Machine.run`` takes its observed thunks, and the observer must see the
identical hook stream (kind, context, pc, arguments) as under the
``step()`` loop, with the identical end state and fault.  The recorder
declares no shadow transfer, so that run stays on thunks; the corpus
also runs under the two redundancy analyses, whose transfers compiled
blocks run, on every ``Machine.run`` path against the ``step()`` loop
(``tests.machine.test_differential.assert_analyses_match_step``).

Counterexamples found by hypothesis are committed to
``tier_fuzz_corpus.json`` (one named plan per historical divergence,
plus hand-picked seeds for known-tricky shapes) and replayed here as
plain regression cases, so shrunk repros outlive the fuzz run that
found them.

A second differential family lives at the bottom of this file: random
*DTT* programs (feeder ``tst`` + support thread + optional ``tcheck``)
are judged twice — statically by ``repro.analysis.checks`` and
dynamically by running the engine under every schedule/poison corner —
and the two verdicts must agree.  See the "analyzer vs engine" section
for the construction that makes the analyzer exact on this family.

The same two generators also drive ``TimingSimulator`` under every named
machine configuration (the "solo run-ahead" section at the bottom): each
program is timed as shipped, with every hot block compiled on first
reach, and with both run-aheads patched out, and every result field,
core counter, rotation and ``busy_until`` must match.  A third generator
adds two or three support threads overlapping main, for the
multi-context run-ahead.  ``timing_fuzz_corpus.json`` holds one named
plan per exit a compiled block or the multi-context run-ahead can take,
replayed the same three ways.
"""

import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import analyze_program
from repro.analysis.findings import Severity
from repro.core.engine import DttEngine
from repro.core.registry import ThreadRegistry, TriggerSpec
from repro.core.trace import EngineTrace
from repro.isa.builder import ProgramBuilder
from repro.isa.instructions import OPCODES, OpClass
from repro.machine.context import ContextState
from repro.machine.machine import Machine, run_to_completion
from repro.timing.params import CoreParams
from repro.timing.system import TimingSimulator

from tests.conftest import RUN_PATHS, HookRecorder, build_dtt_sum
from tests.machine.test_differential import assert_analyses_match_step
from tests.timing.solo_diff import (CONFIGS, assert_solo_exact, make_config,
                                   record_exits, record_multi_exits)

CORPUS_PATH = Path(__file__).with_name("tier_fuzz_corpus.json")
CORPUS = json.loads(CORPUS_PATH.read_text())

#: register window the generated programs use
REGS = [4, 5, 6, 7, 8]
#: loop counters, one per nesting depth (kept clear of REGS)
LOOP_REGS = [9, 10, 11]
ARRAY = 16  # words of in-bounds scratch
BASE_REG = 12  # holds the scratch base address
#: the corpus-only ``restart`` item's count and its scratch
RESTARTS, RESTART_TMP = 13, 14
MAX_INSTRUCTIONS = 50_000

_MEMORY = (OpClass.LOAD, OpClass.STORE, OpClass.TSTORE)


def _ops(signature, op_class=None):
    """Non-memory opcodes with ``signature`` (and ``op_class``)."""
    return sorted(name for name, info in OPCODES.items()
                  if info.signature == signature
                  and info.op_class not in _MEMORY
                  and (op_class is None or info.op_class is op_class))


_ALU_OPS = _ops("RRR")  # integer and floating-point
_ALUI_OPS = _ops("RRI")
_FUNARY_OPS = _ops("RR")  # mov and the fp unary ops
_CMP_BRANCH_OPS = _ops("RRL", OpClass.BRANCH)


# -- plan lowering (shared by fuzz and corpus replay) --------------------------


def lower(plan):
    """Lower a JSON-serializable plan into a finalized program."""
    b = ProgramBuilder()
    b.zeros("scratch", ARRAY)
    with b.function("main"):
        b.program.add_symbol_patch(b.li(BASE_REG, 0), "b", "scratch")
        _lower_body(b, plan, 0)
        b.label("fuzzdone")
        b.halt()
    return b.build()


def _lower_body(b, body, depth, heads=()):
    """Lower ``body`` at loop ``depth``; ``heads`` are the labels of the
    enclosing loops' heads, outermost first."""
    for item in body:
        kind = item[0]
        if kind == "li":
            b.li(item[1], item[2])
        elif kind == "alu":
            b.emit(item[1], item[2], item[3], item[4])
        elif kind == "alui":
            b.emit(item[1], item[2], item[3], item[4])
        elif kind == "funary":
            b.emit(item[1], item[2], item[3])
        elif kind == "ld":
            b.ld(item[1], BASE_REG, item[2])
        elif kind == "st":
            b.st(item[1], BASE_REG, item[2])
        elif kind == "ldx":
            b.ldx(item[1], BASE_REG, item[2])
        elif kind == "stx":
            b.stx(item[1], BASE_REG, item[2])
        elif kind == "out":
            b.out(item[1])
        elif kind == "loop":
            counter = LOOP_REGS[depth]
            top = b.fresh_label("fuzzloop")
            b.li(counter, item[1])
            b.label(top)
            _lower_body(b, item[2], depth + 1, (*heads, top))
            b.subi(counter, counter, 1)
            b.bnez(counter, top)
        elif kind == "loopmid":
            # corpus only: a loop of ``item[1]`` passes that goes back to
            # its head mid-body when the register is nonzero, leaves by
            # a branch to its end, and closes with a backward ``jmp``
            counter = LOOP_REGS[depth]
            top = b.fresh_label("fuzzloop")
            out = b.fresh_label("fuzzout")
            b.li(counter, item[1])
            b.label(top)
            _lower_body(b, item[3], depth + 1, (*heads, top))
            b.subi(counter, counter, 1)
            b.beqz(counter, out)
            b.bnez(item[2], top)
            _lower_body(b, item[4], depth + 1, (*heads, top))
            b.jmp(top)
            b.label(out)
        elif kind == "restart":
            # corpus only: the first ``item[2]`` times, go back to the
            # head of the enclosing loop at depth ``item[1]``
            b.addi(RESTARTS, RESTARTS, 1)
            b.slti(RESTART_TMP, RESTARTS, item[2] + 1)
            b.bnez(RESTART_TMP, heads[item[1]])
        elif kind == "done":
            # corpus only: leave for the program's halt when nonzero
            b.bnez(item[1], "fuzzdone")
        elif kind == "if":
            skip = b.fresh_label("fuzzskip")
            b.beqz(item[1], skip)
            _lower_body(b, item[2], depth, heads)
            b.label(skip)
        elif kind == "ifcmp":
            # skip the body when a two-register branch is taken
            skip = b.fresh_label("fuzzskip")
            b.emit(item[1], item[2], item[3], label=skip)
            _lower_body(b, item[4], depth, heads)
            b.label(skip)
        elif kind == "jmpfwd":
            over = b.fresh_label("fuzzjmp")
            b.jmp(over)
            _lower_body(b, item[1], depth, heads)
            b.label(over)
        elif kind == "ifelse":
            # a diamond: the first body when the register is nonzero,
            # else the second; the first ends in a jmp past the second
            other = b.fresh_label("fuzzelse")
            join = b.fresh_label("fuzzjoin")
            b.beqz(item[1], other)
            _lower_body(b, item[2], depth, heads)
            b.jmp(join)
            b.label(other)
            _lower_body(b, item[3], depth, heads)
            b.label(join)
        else:  # pragma: no cover - malformed corpus entry
            raise AssertionError(f"unknown plan item {item!r}")


# -- three-driver differential check -------------------------------------------


def _norm(value):
    """NaN-safe comparison key (NaN != NaN would hide agreement)."""
    if isinstance(value, float) and value != value:
        return "NaN"
    return value


def _run_path(program, path, observed=False):
    machine = Machine(program, max_instructions=MAX_INSTRUCTIONS)
    recorder = HookRecorder()
    if observed:
        machine.add_observer(recorder)
    fault = None
    try:
        if path == "step":
            main = machine.main_context
            while main.state is ContextState.RUNNING:
                machine.step(main)
        else:
            run_to_completion(RUN_PATHS[path](machine))
    except Exception as exc:  # noqa: BLE001 - fault identity is the point
        fault = (type(exc).__name__, str(exc))
    main = machine.main_context
    # a recorder declares no shadow transfer, so no block may run
    compiled = {"compiled_instructions": machine.compiled_instructions
                } if observed else {}
    return {
        **compiled,
        "fault": fault,
        "regs": [_norm(v) for v in main.regs],
        "memory": {k: _norm(v)
                   for k, v in machine.memory.snapshot().items()},
        "output": [_norm(v) for v in machine.output],
        "instructions_executed": machine.instructions_executed,
        "load_count": machine.memory.load_count,
        "store_count": machine.memory.store_count,
        "pc": main.pc,
        "state": main.state.name,
        "instruction_count": main.instruction_count,
        "hooks": recorder.events,
    }


def assert_tiers_agree(plan):
    program = lower(plan)
    reference = _run_path(program, "step")
    for path in sorted(RUN_PATHS):
        result = _run_path(program, path)
        assert result == reference, f"run path {path} diverged on {plan!r}"
    return reference


def assert_observed_run_agrees(plan):
    """Observed ``run`` and an observed ``step()`` loop: same hooks, same
    end state, same fault."""
    program = lower(plan)
    reference = _run_path(program, "step", observed=True)
    result = _run_path(program, "superblock", observed=True)
    assert result == reference, f"observed run diverged on {plan!r}"
    return reference


# -- hypothesis generators -----------------------------------------------------


@st.composite
def plan_step(draw):
    rd = draw(st.sampled_from(REGS))
    rs = draw(st.sampled_from(REGS))
    rt = draw(st.sampled_from(REGS))
    kind = draw(st.sampled_from(
        ["li", "alu", "alui", "funary", "ld", "st", "ldx", "stx", "out"]))
    if kind == "li":
        imm = draw(st.one_of(
            st.integers(-100, 100),
            st.integers(-(10 ** 40), 10 ** 40),
            st.floats(allow_nan=False, allow_infinity=False,
                      min_value=-1e6, max_value=1e6),
        ))
        return ["li", rd, imm]
    if kind == "alu":
        return ["alu", draw(st.sampled_from(_ALU_OPS)), rd, rs, rt]
    if kind == "alui":
        return ["alui", draw(st.sampled_from(_ALUI_OPS)), rd, rs,
                draw(st.integers(-50, 50))]
    if kind == "funary":
        return ["funary", draw(st.sampled_from(_FUNARY_OPS)), rd, rs]
    if kind in ("ld", "st"):
        return [kind, rd, draw(st.integers(0, ARRAY - 1))]
    if kind in ("ldx", "stx"):
        return [kind, rd, rs]
    return ["out", rs]


def plan_body(depth):
    step = plan_step()
    if depth >= 2:
        return st.lists(step, min_size=1, max_size=6)
    nested = st.deferred(lambda: plan_body(depth + 1))
    compound = st.one_of(
        st.tuples(st.integers(1, 6), nested).map(
            lambda t: ["loop", t[0], t[1]]),
        st.tuples(st.sampled_from(REGS), nested).map(
            lambda t: ["if", t[0], t[1]]),
        st.tuples(st.sampled_from(_CMP_BRANCH_OPS), st.sampled_from(REGS),
                  st.sampled_from(REGS), nested).map(
            lambda t: ["ifcmp", *t]),
        nested.map(lambda body: ["jmpfwd", body]),
    )
    return st.lists(st.one_of(step, compound), min_size=1, max_size=8)


@given(plan_body(0))
@settings(max_examples=60, deadline=None)
def test_random_programs_agree_across_tiers(plan):
    assert_tiers_agree(plan)


# -- committed counterexample corpus -------------------------------------------


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_corpus_case_agrees_across_tiers(name):
    assert_tiers_agree(CORPUS[name])


@given(plan_body(0))
@settings(max_examples=40, deadline=None)
def test_random_programs_observed_run_matches_step(plan):
    assert_observed_run_agrees(plan)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_corpus_case_observed_run_matches_step(name):
    reference = assert_observed_run_agrees(CORPUS[name])
    assert reference["hooks"]  # the observer really was attached


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_corpus_case_analyses_match_step(name):
    assert_analyses_match_step(lower(CORPUS[name]),
                               max_instructions=MAX_INSTRUCTIONS)


def test_corpus_exercises_fault_and_loop_paths():
    # the corpus must keep covering the interesting regimes: at least
    # one faulting case and one clean loop-heavy case
    outcomes = {name: assert_tiers_agree(CORPUS[name])
                for name in CORPUS}
    assert any(r["fault"] for r in outcomes.values())
    assert any(r["fault"] is None and r["instructions_executed"] > 50
               for r in outcomes.values())


# -- engine traces under fuzz-shaped DTT programs ------------------------------


@pytest.mark.parametrize("path", sorted(RUN_PATHS))
def test_dtt_trace_streams_identical_across_tiers(path):
    program, spec = build_dtt_sum([3, 1, 4, 1, 5], [0, 2, 4], [9, 8, 7])

    def run(selected_path):
        from repro.core.engine import DttEngine
        from repro.core.registry import ThreadRegistry

        machine = Machine(program, num_contexts=2)
        engine = DttEngine(ThreadRegistry([spec]))
        machine.attach_engine(engine)
        trace = EngineTrace(engine)
        if selected_path == "step":
            main = machine.main_context
            while main.state is ContextState.RUNNING:
                machine.step(main)
        else:
            run_to_completion(RUN_PATHS[selected_path](machine))
        return machine, [repr(e) for e in trace.events]

    legacy_machine, legacy_events = run("step")
    run_machine, run_events = run(path)
    assert run_events == legacy_events
    assert list(run_machine.output) == list(legacy_machine.output)
    assert (run_machine.instructions_executed
            == legacy_machine.instructions_executed)


# -- analyzer vs engine differential fuzz (DTT programs) -----------------------
#
# Random DTT programs from a restricted family on which the static
# analyzer is *exact*, so its error verdict and the engine's dynamic
# verdict must coincide:
#
#   * one feeder ``tst`` into xs[trigger_cell] (constant addressing, a
#     fresh value, so the same-value filter never suppresses it);
#   * a straight-line support thread that derives one value (from the
#     trigger cell, the trigger value, constants, fixed xs/ys cells, or
#     a deliberately-uninitialized register) and stores it to ys;
#   * main-context loads/stores between the ``tst`` and an optional
#     ``tcheck``, then a final print of every ys cell.
#
# Dynamic verdict = four runs pooled: {late, early} schedule x {zero,
# poison} support-context registers.  "Late" is the synchronous engine
# (activations run at the tcheck; never, absent one).  "Early" is a
# deferred engine driven eagerly (activations dispatched and run to
# completion the moment they fire).  Any paper-contract violation the
# analyzer can flag on this family is observable as a difference
# between those runs because the construction guarantees:
#
#   * every fresh value is a distinct power of eight, and a thread
#     sums at most four reads, so sums can never carry one value into
#     another and two different read-sets never collide to the same
#     output word (a raced read's late value is always a fresh window
#     store, strictly larger than anything the early read can see);
#   * the thread always stores to ys[3] and main never stores to
#     ys[3], so whether/when/with-what the thread ran is always
#     witnessed by the final print;
#   * a thread register read either is seeded (r1/r2), is written
#     first (the scratch regs), or is the deliberate uninitialized
#     register — whose stale content differs across the poison pair.
#
# Single-trigger programs only: dedupe/cancel/overflow paths have their
# own unit tests; this harness targets the *race* checks.  Note the
# feeder address is a compile-time constant, so the feasible trigger
# set is a single address and every race is all-or-nothing — the
# ``parameterized-race`` SOME-instantiation verdict needs symbolic
# feeders and is exercised by tests/analysis/test_checks.py instead.
#
# Disagreements shrunk by hypothesis get committed to
# ``dtt_fuzz_corpus.json`` with a note (status: fixed or explained)
# and replayed as regression cases, mirroring the tier corpus above.

DTT_CORPUS_PATH = Path(__file__).with_name("dtt_fuzz_corpus.json")
DTT_CORPUS = json.loads(DTT_CORPUS_PATH.read_text())

_TV, _TT = 4, 5  # thread value / scratch registers (always written first)
_UNINIT_REG = 8  # never written anywhere; read only by "add_uninit"
_V, _T, _XB, _YB = 4, 5, 6, 7  # main-context registers
_POISON = 1 << 60  # stale-register sentinel, beyond any program value
YS_CELLS = 4


def lower_dtt(plan):
    """Lower a DTT plan into ``(program, trigger_spec)``.

    Every ``li`` immediate is a fresh power of eight (64, 512, ...):
    a thread sums at most four reads, so repeated reads of one value
    can never carry into a different value's digit, and distinct
    read-sets always sum to distinct outputs — no dynamic race can
    hide behind a value collision.
    """
    fresh = [64]

    def value():
        v = fresh[0]
        fresh[0] <<= 3
        return v

    b = ProgramBuilder()
    b.data("xs", [1, 2, 3, 4])
    b.zeros("ys", YS_CELLS)
    thread = plan["thread"]
    with b.thread("worker"):
        init = thread["init"]
        if init == "ld_trig":
            b.ld(_TV, 1, 0)  # the triggered cell, via r1
        elif init == "use_r2":
            b.mov(_TV, 2)  # the stored value, via r2
        else:  # "li"
            b.li(_TV, value())
        for op in thread["ops"]:
            kind = op[0]
            if kind == "add_const":
                b.addi(_TV, _TV, value())
            elif kind == "add_uninit":
                b.add(_TV, _TV, _UNINIT_REG)
            elif kind == "add_trig":
                b.ld(_TT, 1, 0)
                b.add(_TV, _TV, _TT)
            else:  # add_xs / add_ys: a fixed cell
                b.la(_TT, "xs" if kind == "add_xs" else "ys")
                b.ld(_TT, _TT, op[1])
                b.add(_TV, _TV, _TT)
        b.la(_TT, "ys")
        for cell in thread["stores"]:
            b.st(_TV, _TT, cell)
        _lower_pad(b, plan.get("thread_pad", ()))
        b.treturn()

    def main_ops(ops):
        for kind, cell in ops:
            if kind == "st_xs":
                b.li(_T, value())
                b.st(_T, _XB, cell)
            elif kind == "st_ys":
                b.li(_T, value())
                b.st(_T, _YB, cell)
            elif kind == "ld_xs":
                b.ld(_T, _XB, cell)
                b.out(_T)
            else:  # ld_ys
                b.ld(_T, _YB, cell)
                b.out(_T)

    with b.function("main"):
        b.la(_XB, "xs")
        b.la(_YB, "ys")
        b.li(_V, value())
        _lower_pad(b, plan.get("main_pad", ()))
        tst_pc = b.tst(_V, _XB, plan["trigger_cell"])
        main_ops(plan["window"])
        if plan["tcheck"]:
            b.tcheck_thread("worker")
        main_ops(plan["after"])
        for cell in range(YS_CELLS):
            b.ld(_V, _YB, cell)
            b.out(_V)
        b.halt()
    return b.build(), TriggerSpec("worker", store_pcs=[tst_pc])


#: timing-only filler a plan may carry as ``thread_pad`` / ``main_pad``:
#: stalls of several lengths and memory traffic on registers the
#: analyzer family never reads, so the DTT contract is unaffected
PAD_KINDS = ["alu", "mul", "div", "ld", "nop"]
_PAD, _PAD_AUX = 9, 10


def _lower_pad(b, pad):
    for kind in pad:
        if kind == "alu":
            b.addi(_PAD, _PAD, 1)
        elif kind == "mul":
            b.muli(_PAD, _PAD, 1)
        elif kind == "div":
            b.li(_PAD_AUX, 1)
            b.idiv(_PAD, _PAD, _PAD_AUX)
        elif kind == "ld":
            b.la(_PAD_AUX, "xs")
            b.ld(_PAD_AUX, _PAD_AUX, 0)
        else:
            b.nop()


def _run_dtt(program, spec, schedule, poison):
    machine = Machine(program, num_contexts=2,
                      max_instructions=MAX_INSTRUCTIONS)
    engine = DttEngine(ThreadRegistry([spec]),
                       deferred=(schedule == "early"))
    machine.attach_engine(engine)
    main = machine.main_context
    supports = [ctx for ctx in machine.contexts if ctx is not main]
    for ctx in supports:  # r0 stays 0; everything else goes stale
        ctx.regs[1:] = [poison] * (len(ctx.regs) - 1)
    fault = None
    try:
        if schedule == "late":
            # synchronous engine: activations run inside the tcheck hook
            while main.state is ContextState.RUNNING:
                machine.step(main)
        else:
            # eager deferred driver: drain the queue and run support
            # contexts to completion before main takes another step
            while True:
                engine.dispatch_pending()
                support = next(
                    (ctx for ctx in supports if ctx.runnable), None)
                if support is not None:
                    machine.step(support)
                    continue
                if main.state is ContextState.RUNNING:
                    machine.step(main)
                    continue
                assert main.state is not ContextState.BLOCKED, (
                    "main deadlocked at tcheck with a drained queue")
                break
    except Exception as exc:  # noqa: BLE001 - fault identity is the point
        fault = (type(exc).__name__, str(exc))
    return {"fault": fault, "output": [_norm(v) for v in machine.output]}


def dtt_verdicts(plan):
    """(analyzer error codes, dynamic-clean flag, the four run outcomes).

    The dynamic oracle compares *output and fault only* — not raw
    memory: DTT's contract governs what main observes, and lazily vs
    eagerly evaluated derived data may legitimately sit in memory at
    different times.  The unconditional final ys print makes every
    contract-relevant difference reach the output.
    """
    program, spec = lower_dtt(plan)
    errors = sorted({f.code for f in analyze_program(program, [spec])
                     if f.severity is Severity.ERROR})
    outcomes = [_run_dtt(program, spec, schedule, poison)
                for schedule in ("late", "early")
                for poison in (0, _POISON)]
    dynamic_clean = all(run == outcomes[0] for run in outcomes[1:])
    return errors, dynamic_clean, outcomes


def assert_analyzer_and_engine_agree(plan):
    errors, dynamic_clean, outcomes = dtt_verdicts(plan)
    if errors:
        assert not dynamic_clean, (
            f"analyzer flagged {errors} but every schedule/poison run "
            f"agreed on {plan!r} — spurious error or unobservable race")
    else:
        assert dynamic_clean, (
            f"analyzer saw no errors but runs diverged on {plan!r}: "
            f"{outcomes!r} — analyzer soundness gap")
    return errors, dynamic_clean


def _compose_dtt_plan(pick, coin):
    """One plan from two primitives, shared by hypothesis and the
    seeded sweep so both explore the identical family."""
    thread_ops = []
    for _ in range(pick([0, 1, 2, 3])):
        kind = pick(["add_const", "add_uninit", "add_trig",
                     "add_xs", "add_ys"])
        if kind in ("add_xs", "add_ys"):
            thread_ops.append([kind, pick([0, 1, 2, 3])])
        else:
            thread_ops.append([kind])
    # ys[3] is the thread's reserved witness cell: main never stores it
    stores = [3] + ([pick([0, 1, 2])] if coin() else [])

    def main_op(avoid_ys=()):
        # post-tcheck stores avoid the thread's cells: a post-barrier
        # overwrite would mask a real in-window ordering race from the
        # dynamic oracle while the analyzer (rightly) still flags it
        kind = pick(["st_xs", "st_ys", "ld_xs", "ld_ys"])
        if kind == "st_ys":
            return [kind, pick([c for c in (0, 1, 2) if c not in avoid_ys])]
        return [kind, pick([0, 1, 2, 3])]

    return {
        "trigger_cell": pick([0, 1, 2, 3]),
        "tcheck": coin() or coin(),  # ~75% consume via tcheck
        "thread": {"init": pick(["ld_trig", "use_r2", "li"]),
                   "ops": thread_ops,
                   "stores": stores},
        "window": [main_op() for _ in range(pick([0, 1, 2, 3]))],
        "after": [main_op(avoid_ys=stores)
                  for _ in range(pick([0, 1, 2]))],
    }


@st.composite
def dtt_plan(draw):
    return _compose_dtt_plan(
        lambda options: draw(st.sampled_from(options)),
        lambda: draw(st.booleans()),
    )


@given(dtt_plan())
@settings(max_examples=60, deadline=None)
def test_random_dtt_programs_agree_with_the_analyzer(plan):
    assert_analyzer_and_engine_agree(plan)


def test_dtt_differential_sweep_is_disagreement_free():
    """Bounded CI sweep: 500 seeded programs, zero unexplained
    analyzer/engine disagreements, both verdicts well represented."""
    rng = random.Random(0xD77)
    disagreements = []
    clean = dirty = 0
    for index in range(500):
        plan = _compose_dtt_plan(rng.choice, lambda: rng.random() < 0.5)
        try:
            errors, _ = assert_analyzer_and_engine_agree(plan)
        except AssertionError as exc:
            disagreements.append((index, plan, str(exc)))
            continue
        if errors:
            dirty += 1
        else:
            clean += 1
    assert not disagreements, disagreements[:3]
    # a sweep that lands on one verdict only proves nothing
    assert clean >= 50 and dirty >= 50, (clean, dirty)


@pytest.mark.parametrize("name", sorted(DTT_CORPUS))
def test_dtt_corpus_case_agrees(name):
    case = DTT_CORPUS[name]
    errors, dynamic_clean = assert_analyzer_and_engine_agree(case["plan"])
    if case["expect"] == "clean":
        assert not errors and dynamic_clean, (errors, dynamic_clean)
    else:
        assert errors and not dynamic_clean, (errors, dynamic_clean)
    assert set(case["codes"]) <= set(errors), (case["codes"], errors)


def test_dtt_corpus_covers_both_verdicts_and_every_race_code():
    expects = {case["expect"] for case in DTT_CORPUS.values()}
    assert expects == {"clean", "dirty"}
    codes = set()
    for case in DTT_CORPUS.values():
        codes.update(case["codes"])
    assert {"read-race", "write-race", "consume-before-complete",
            "uninitialized-register"} <= codes, sorted(codes)


# -- solo run-ahead vs the general issue loop (timing) -------------------------
#
# ``TimingSimulator.run`` drives iterations with one RUNNING context
# through its solo run-ahead and its compiled hot blocks.  Both
# generators above are timed under every named configuration (plus two
# 2-context cores) three ways — as shipped, with every block entry
# compiled on first reach, and with ``_run_ahead`` patched to never
# choose a run-ahead — and the snapshots (tests/timing/solo_diff.py) must be
# identical.  The tier plans are baseline programs (solo from start to
# halt, with faults); the DTT plans add a trigger, a support thread that
# may run alone while main blocks at its tcheck, and a treturn that
# wakes main mid-cycle.

TIMING_CORPUS_PATH = Path(__file__).with_name("timing_fuzz_corpus.json")
TIMING_CORPUS = json.loads(TIMING_CORPUS_PATH.read_text())


def assert_timing_solo_exact(program, specs=(), hook=None,
                             variant="shipped",
                             max_instructions=MAX_INSTRUCTIONS,
                             max_cycles=None, core_params=None):
    """Time ``program`` three ways under every configuration, with a
    deferred engine when ``specs`` (one trigger spec or a list) is
    given, and ``core_params`` in place of the default ones if given;
    returns the ``variant`` simulators in :data:`CONFIGS` order."""
    if isinstance(specs, TriggerSpec):
        specs = [specs]
    sims = []
    overrides = {} if max_cycles is None else {"max_cycles": max_cycles}
    if core_params is not None:
        overrides["core_params"] = core_params
    for config in CONFIGS:
        def make_sim(config=config):
            engine = (DttEngine(ThreadRegistry(specs), deferred=True)
                      if specs else None)
            return TimingSimulator(program, make_config(config, **overrides),
                                   engine=engine,
                                   max_instructions=max_instructions)

        sims.append(assert_solo_exact(make_sim, hook=hook,
                                      label=f"under {config}",
                                      variant=variant)[0])
    return sims


def replay_timing_case(case, hook=None, variant="shipped"):
    """Replay one ``timing_fuzz_corpus.json`` case three ways."""
    if "multi" in case:
        program, specs = lower_multi(case["multi"])
    elif "dtt" in case:
        program, specs = lower_dtt(case["dtt"])
    else:
        program, specs = lower(case["plan"]), ()
    return assert_timing_solo_exact(
        program, specs, hook=hook, variant=variant,
        max_instructions=case.get("max_instructions", MAX_INSTRUCTIONS),
        max_cycles=case.get("max_cycles"))


def _compose_timing_plan(pick, coin):
    plan = _compose_dtt_plan(pick, coin)
    for key in ("thread_pad", "main_pad"):
        plan[key] = [pick(PAD_KINDS) for _ in range(pick(range(7)))]
    return plan


@st.composite
def timing_dtt_plan(draw):
    return _compose_timing_plan(
        lambda options: draw(st.sampled_from(options)),
        lambda: draw(st.booleans()),
    )


@given(timing_dtt_plan())
@settings(max_examples=40, deadline=None)
def test_random_dtt_programs_time_identically_with_solo_run_ahead(plan):
    assert_timing_solo_exact(*lower_dtt(plan))


@given(plan_body(0))
@settings(max_examples=40, deadline=None)
def test_random_programs_time_identically_with_solo_run_ahead(plan):
    assert_timing_solo_exact(lower(plan))


def test_timing_solo_sweep_is_exact():
    """Seeded sweep: 150 padded DTT programs under five configurations."""
    rng = random.Random(0x5010)
    for _ in range(150):
        plan = _compose_timing_plan(rng.choice, lambda: rng.random() < 0.5)
        assert_timing_solo_exact(*lower_dtt(plan))


#: core parameters off the defaults: every L1 hit stalls (load hide
#: latency 0) and a mispredict costs nothing; or every L2 hit is hidden
#: (hide 20, above L1 + L2 latency) at issue width 1.  Compiled blocks
#: fold the issue template differently under each.
OFF_DEFAULT_CORE_PARAMS = {
    "hide0-penalty0": CoreParams(load_hide_latency=0, mispredict_penalty=0),
    "hide20-width1": CoreParams(load_hide_latency=20, issue_width=1),
}


@pytest.mark.parametrize("params", sorted(OFF_DEFAULT_CORE_PARAMS))
def test_timing_sweep_is_exact_at_off_default_core_parameters(params):
    """Seeded sweep: 8 padded DTT programs under five configurations
    with core parameters off the defaults, compiled blocks included."""
    rng = random.Random(0x5011)
    compiled = 0
    for _ in range(8):
        plan = _compose_timing_plan(rng.choice, lambda: rng.random() < 0.5)
        sims = assert_timing_solo_exact(
            *lower_dtt(plan), variant="compiled",
            core_params=OFF_DEFAULT_CORE_PARAMS[params])
        compiled += sum(sim.compiled_instructions for sim in sims)
    assert compiled


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_corpus_case_times_identically_with_solo_run_ahead(name):
    assert_timing_solo_exact(lower(CORPUS[name]))


@pytest.mark.parametrize("name", sorted(TIMING_CORPUS))
def test_timing_corpus_case_is_exact_with_every_block_compiled(name):
    replay_timing_case(TIMING_CORPUS[name])


#: the block exits the corpus takes from inside an inner loop: every
#: kind but the fall-through, which only the block's end takes, and a
#: cycle-limit exit at another context's wake-up
INNER_EXITS = {f"{kind}@inner" for kind in (
    "taken", "headroom", "engine", "guard", "fault", "cycle-limit", "wake")}


def test_timing_corpus_covers_every_block_exit():
    """Each case takes the block exit it is named for (``block_exit``,
    else ``exit`` unless a multi case) in a compiled block, and together
    the cases take every exit kind (a looping call counts as a
    ``back-edge``), each of :data:`INNER_EXITS` included."""
    from repro.machine.superblock import EXIT_KINDS

    seen = set()
    for name, case in sorted(TIMING_CORPUS.items()):
        named = case.get("block_exit",
                         None if "multi" in case else case["exit"])
        if named is None:
            continue
        exits = set()
        for sim in replay_timing_case(case, hook=record_exits,
                                      variant="compiled"):
            exits.update(kind for kind, count in sim.exits.items() if count)
        assert named in exits, (name, sorted(exits))
        seen |= exits
    assert seen == set(EXIT_KINDS) | {"back-edge", "wake"} | INNER_EXITS


# -- multi-context run-ahead vs the general issue loop (timing) ----------------
#
# Plans with two or three support threads whose activations overlap a
# main thread that keeps running past each ``tst``: up to four RUNNING
# contexts share issue width on ``smt4`` and ``cmp2x2``, two on ``smt2``
# and ``cmp2``, with dispatches, ``tcheck`` waits and ``treturn``s
# landing mid-cycle.  Timed the same three ways; the "stepped" variant
# runs every iteration on ``SmtCore.cycle``.  Pads add long stalls
# (``miss`` walks a buffer larger than the L2) and stores to one shared
# word (``st``), which invalidate the other core's L1 line.

MULTI_PAD_KINDS = PAD_KINDS + ["miss", "st"]
_MISS = 11  # the ``miss`` pad's running offset
_TRIPS, _ROUND, _VALUE = 12, 13, 4
BIG = 1 << 14  # words the ``miss`` pad walks


def _lower_multi_pad(b, pad):
    for kind in pad:
        if kind == "miss":
            b.addi(_MISS, _MISS, 67)
            b.andi(_MISS, _MISS, BIG - 1)
            b.la(_PAD_AUX, "big")
            b.ldx(_PAD_AUX, _PAD_AUX, _MISS)
        elif kind == "st":
            b.la(_PAD_AUX, "shared")
            b.st(_PAD, _PAD_AUX, 0)
        elif kind == "zdiv":  # corpus only: faults, r0 is always 0
            b.idiv(_PAD, _PAD, 0)
        else:
            _lower_pad(b, [kind])


def lower_multi(plan):
    """Lower a multi-thread timing plan into ``(program, trigger specs)``.

    Thread ``w<i>`` loops ``trips`` times over its pad, stores its pad
    register to ``ys[i]`` and returns.  Main runs ``rounds`` rounds; in
    each it stores a fresh value to ``xs[t]`` for every ``t`` of
    ``triggers`` (each store fires ``w<t>``) and runs ``window`` after
    it.  Then it consumes the threads in ``tcheck``, runs ``tail``, and
    prints every ``ys`` cell.
    """
    b = ProgramBuilder()
    threads = plan["threads"]
    b.zeros("xs", len(threads))
    b.zeros("ys", len(threads))
    b.zeros("shared", 1)
    b.zeros("big", BIG)
    for index, thread in enumerate(threads):
        with b.thread(f"w{index}"):
            b.li(_TRIPS, thread["trips"])
            top = b.fresh_label("w")
            b.label(top)
            _lower_multi_pad(b, thread["pad"])
            b.subi(_TRIPS, _TRIPS, 1)
            b.bnez(_TRIPS, top)
            b.la(_PAD_AUX, "ys")
            b.st(_PAD, _PAD_AUX, index)
            b.treturn()
    store_pcs = [[] for _ in threads]
    with b.function("main"):
        b.la(_XB, "xs")
        b.li(_ROUND, plan["rounds"])
        top = b.fresh_label("round")
        b.label(top)
        for index in plan["triggers"]:
            b.addi(_VALUE, _ROUND, 8 * (index + 1))
            store_pcs[index].append(b.tst(_VALUE, _XB, index))
            _lower_multi_pad(b, plan["window"])
        b.subi(_ROUND, _ROUND, 1)
        b.bnez(_ROUND, top)
        for index in plan["tcheck"]:
            b.tcheck_thread(f"w{index}")
        _lower_multi_pad(b, plan["tail"])
        b.la(_YB, "ys")
        for index in range(len(threads)):
            b.ld(_VALUE, _YB, index)
            b.out(_VALUE)
        b.halt()
    return b.build(), [TriggerSpec(f"w{index}", store_pcs=pcs)
                       for index, pcs in enumerate(store_pcs)]


def _compose_multi_plan(pick, coin):
    """One multi-thread plan from two primitives, shared by hypothesis
    and the seeded sweep.  Every thread is triggered at least once."""
    count = pick([2, 3])

    def pad(most):
        return [pick(MULTI_PAD_KINDS) for _ in range(pick(range(most + 1)))]

    left = list(range(count))
    triggers = []
    while left:
        triggers.append(pick(left))
        left.remove(triggers[-1])
    if coin():
        triggers.append(pick(range(count)))
    return {
        "threads": [{"pad": pad(5) or ["alu"], "trips": pick([1, 2, 4, 8])}
                    for _ in range(count)],
        "rounds": pick([1, 2, 3]),
        "triggers": triggers,
        "window": pad(5),
        "tcheck": [index for index in range(count) if coin()],
        "tail": pad(5),
    }


@st.composite
def timing_multi_plan(draw):
    return _compose_multi_plan(
        lambda options: draw(st.sampled_from(options)),
        lambda: draw(st.booleans()),
    )


@given(timing_multi_plan())
@settings(max_examples=30, deadline=None)
def test_random_multi_thread_programs_time_identically(plan):
    assert_timing_solo_exact(*lower_multi(plan))


def test_timing_multi_sweep_is_exact_and_runs_ahead():
    """Seeded sweep: 60 multi-thread programs under five configurations;
    the multi-context run-ahead drives part of them on every
    configuration with a spare context, compiled blocks included."""
    rng = random.Random(0x3017)
    multi = dict.fromkeys(CONFIGS, 0)
    for _ in range(60):
        plan = _compose_multi_plan(rng.choice, lambda: rng.random() < 0.5)
        for config, sim in zip(CONFIGS, assert_timing_solo_exact(
                *lower_multi(plan))):
            multi[config] += sim.multi_instructions
    assert multi.pop("serial") == 0
    assert all(multi.values()), multi


#: every exit and path the multi-context run-ahead can take (see
#: ``tests.timing.solo_diff.record_multi_exits``)
MULTI_EXITS = {"side-exit@position0", "side-exit@position1",
               "side-exit@core1", "engine-start", "fault@second",
               "cycle-limit", "headroom", "stall", "wake"}


def test_timing_corpus_covers_every_multi_context_exit():
    """Each multi case takes the exit it is named for in the multi-context
    run-ahead, and together they take every one of :data:`MULTI_EXITS`."""
    seen = set()
    for name, case in sorted(TIMING_CORPUS.items()):
        if "multi" not in case:
            continue
        exits = set()
        for sim in replay_timing_case(case, hook=record_multi_exits):
            exits.update(sim.multi_exits)
        assert case["exit"] in exits, (name, sorted(exits))
        seen |= exits
    assert MULTI_EXITS <= seen, sorted(MULTI_EXITS - seen)
