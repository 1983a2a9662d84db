"""SmtCore issue logic in isolation: width sharing, rotation, stalls."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.hierarchy import CacheHierarchy, HierarchyParams
from repro.isa.builder import ProgramBuilder
from repro.machine.context import ContextState
from repro.machine.machine import Machine
from repro.timing.branch import BranchPredictor
from repro.timing.core import SmtCore
from repro.timing.params import CoreParams


def make_core(program, num_contexts=2, **core_kwargs):
    machine = Machine(program, num_contexts=num_contexts)
    hierarchy = CacheHierarchy(1, HierarchyParams())
    core = SmtCore(0, machine.contexts, CoreParams(**core_kwargs),
                   hierarchy, BranchPredictor(), machine)
    return machine, core


def alu_spin(n):
    b = ProgramBuilder()
    with b.function("main"):
        with b.scratch(1) as (r,):
            b.li(r, 0)
            for _ in range(n):
                b.addi(r, r, 1)
        b.halt()
    return b.build()


def test_single_context_issues_up_to_width():
    machine, core = make_core(alu_spin(40), issue_width=4)
    issued = core.cycle(0)
    assert issued == 4


def test_width_one_issues_one():
    machine, core = make_core(alu_spin(40), issue_width=1)
    assert core.cycle(0) == 1


def test_two_contexts_share_width():
    program = alu_spin(40)
    machine, core = make_core(program, num_contexts=2, issue_width=4)
    # put the support context to work on the same code
    machine.contexts[1].start_support(0, "w", 0, 0, 0)
    issued = core.cycle(0)
    assert issued == 4
    # both contexts made progress
    assert machine.contexts[0].instruction_count > 0
    assert machine.contexts[1].instruction_count > 0


def test_idle_context_does_not_issue():
    machine, core = make_core(alu_spin(10), num_contexts=2)
    core.cycle(0)
    assert machine.contexts[1].instruction_count == 0


def test_long_latency_marks_context_busy():
    b = ProgramBuilder()
    with b.function("main"):
        with b.scratch(2) as (x, y):
            b.li(x, 9)
            b.idiv(y, x, x)
            b.addi(y, y, 1)
        b.halt()
    machine, core = make_core(b.build(), issue_width=4)
    core.cycle(0)  # li + idiv issue; idiv latency stalls the context
    ctx = machine.contexts[0]
    assert ctx.busy_until > 1
    # context cannot issue while busy
    assert core.cycle(1) == 0
    assert core.cycle(ctx.busy_until) > 0


def test_halted_context_stops_issuing():
    machine, core = make_core(alu_spin(2), issue_width=16)
    core.cycle(0)
    assert machine.main_context.state is ContextState.HALTED
    assert core.cycle(1) == 0


def test_class_counts_accumulate():
    from repro.isa.instructions import OpClass

    machine, core = make_core(alu_spin(7), issue_width=16)
    core.cycle(0)
    assert core.class_counts[OpClass.IALU] == 8  # li + 7 addi
    assert core.class_counts[OpClass.SYS] == 1  # halt


def test_min_ready_time():
    machine, core = make_core(alu_spin(40))
    assert core.min_ready_time(5) == 5  # ready now
    machine.main_context.busy_until = 30
    assert core.min_ready_time(5) == 30
    machine.main_context.state = ContextState.HALTED
    assert core.min_ready_time(5) == -1  # nothing running


def test_busy_cycles_counted():
    machine, core = make_core(alu_spin(10), issue_width=2)
    cycles = 0
    while machine.main_context.state is ContextState.RUNNING:
        core.cycle(cycles)
        cycles += 1
    assert core.busy_cycles == cycles  # pure ALU: never a dead cycle


def test_requires_contexts():
    with pytest.raises(ValueError):
        SmtCore(0, [], CoreParams(), CacheHierarchy(1),
                BranchPredictor(), None)


# -- the cyclic scan issues exactly what the pass/offset loop issued ------------


def pass_loop(core, now, issue):
    """The round-robin loop the cyclic scan replaced, kept as a reference:
    whole passes from the rotation offset until a pass issues nothing."""
    issued, count = 0, len(core.contexts)
    while issued < core.params.issue_width:
        progressed = False
        for offset in range(count):
            if issued >= core.params.issue_width:
                break
            ctx = core.contexts[(core._rotation + offset) % count]
            if ctx.state is ContextState.RUNNING and ctx.busy_until <= now:
                issue(ctx, now)
                issued += 1
                progressed = True
        if not progressed:
            break
    return issued


@given(st.integers(1, 4), st.integers(1, 6), st.integers(0, 3),
       st.lists(st.booleans(), min_size=4, max_size=4),
       st.lists(st.tuples(st.sampled_from(["stay", "stall", "wake"]),
                          st.integers(0, 3)), max_size=40))
@settings(max_examples=300, deadline=None)
def test_cyclic_scan_matches_the_pass_loop(count, width, rotation, ready,
                                           script):
    """Issue effects are scripted — the issuer stays ready, stalls, or
    wakes another context — and both loops must issue the same contexts
    in the same order."""

    def run(loop):
        machine, core = make_core(alu_spin(1), num_contexts=count,
                                  issue_width=width)
        for ctx, flag in zip(core.contexts, ready):
            ctx.state = ContextState.RUNNING if flag else ContextState.IDLE
        core._rotation = rotation % count
        order, effects = [], iter(script)

        def issue(ctx, now):
            order.append(ctx.context_id)
            effect, other = next(effects, ("stall", 0))
            if effect == "stall":
                ctx.busy_until = now + 2
            elif effect == "wake":
                core.contexts[other % count].state = ContextState.RUNNING

        core._issue = issue
        issued = loop(core, 0, issue)
        return issued, order

    scanned = run(lambda core, now, issue: core.scan(now, core._rotation, 0))
    assert scanned == run(pass_loop)
