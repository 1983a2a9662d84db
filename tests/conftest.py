"""Shared fixtures for the test suite."""

from __future__ import annotations

import math

import pytest

from repro.core.engine import DttEngine
from repro.core.registry import ThreadRegistry, TriggerSpec
from repro.isa.builder import ProgramBuilder
from repro.machine import superblock
from repro.machine.events import MachineObserver
from repro.machine.machine import Machine


@pytest.fixture
def tiny_program():
    """A minimal finalized program: out(7); halt."""
    b = ProgramBuilder()
    with b.function("main"):
        with b.scratch(1) as (r,):
            b.li(r, 7)
            b.out(r)
        b.halt()
    return b.build()


@pytest.fixture
def sum_program():
    """Sums a 5-element array into the output."""
    b = ProgramBuilder()
    b.data("xs", [3, 1, 4, 1, 5])
    with b.function("main"):
        with b.scratch(3) as (i, base, acc):
            b.la(base, "xs")
            b.li(acc, 0)
            with b.for_range(i, 0, 5):
                with b.scratch(1) as (v,):
                    b.ldx(v, base, i)
                    b.add(acc, acc, v)
            b.out(acc)
            b.halt()
    return b.build()


def build_dtt_sum(values, upd_idx, upd_val, per_address=False):
    """A small DTT program: writes + tcheck + read derived sum.

    Used across engine/timing tests.  Returns (program, trigger_spec).
    """
    n = len(values)
    b = ProgramBuilder()
    b.data("xs", values)
    b.data("upd_idx", upd_idx)
    b.data("upd_val", upd_val)
    # the derived sum starts valid (programming-model rule R2: derived
    # data must be initialized before the first consume, since an
    # all-silent schedule never runs the support thread)
    b.data("sum", [sum(values)])
    with b.thread("sumthr"):
        with b.scratch(4) as (i, base, acc, v):
            b.la(base, "xs")
            b.li(acc, 0)
            with b.for_range(i, 0, n):
                b.ldx(v, base, i)
                b.add(acc, acc, v)
            with b.scratch(1) as (sp,):
                b.la(sp, "sum")
                b.st(acc, sp, 0)
        b.treturn()
    tst_pc = None
    with b.function("main"):
        xs = b.global_reg("xs")
        ui = b.global_reg("ui")
        uv = b.global_reg("uv")
        sp = b.global_reg("sp")
        t = b.global_reg("t")
        b.la(xs, "xs")
        b.la(ui, "upd_idx")
        b.la(uv, "upd_val")
        b.la(sp, "sum")
        with b.for_range(t, 0, len(upd_idx)):
            with b.scratch(2) as (idx, val):
                b.ldx(idx, ui, t)
                b.ldx(val, uv, t)
                pc = b.emit("tstx", val, xs, idx)
                if tst_pc is None:
                    tst_pc = pc
            b.tcheck_thread("sumthr")
            with b.scratch(1) as (s,):
                b.ld(s, sp, 0)
                b.out(s)
        b.halt()
    program = b.build()
    spec = TriggerSpec("sumthr", store_pcs=[tst_pc],
                       per_address_dedupe=per_address)
    return program, spec


def expected_dtt_sum(values, upd_idx, upd_val):
    """Oracle for :func:`build_dtt_sum`'s output stream."""
    xs = list(values)
    out = []
    for i, v in zip(upd_idx, upd_val):
        xs[i] = v
        out.append(sum(xs))
    return out


@pytest.fixture
def dtt_sum_machine():
    """Factory: a machine + synchronous engine over the DTT sum program."""

    def factory(values=(1, 2, 3, 4), upd_idx=(0, 1, 1, 2), upd_val=(5, 2, 9, 3),
                num_contexts=2, config=None):
        program, spec = build_dtt_sum(list(values), list(upd_idx),
                                      list(upd_val))
        machine = Machine(program, num_contexts=num_contexts)
        engine = DttEngine(ThreadRegistry([spec]), config=config)
        machine.attach_engine(engine)
        return machine, engine

    return factory


def compile_at(patch: pytest.MonkeyPatch, reach) -> None:
    """Test fake: make every block, of both tiers, compile at its
    ``reach``-th reach (``math.inf``: never), through ``patch``.  This is
    the one patch point of the lazy compile
    (:func:`repro.machine.superblock.compile_reach`)."""
    patch.setattr(superblock, "compile_reach", lambda timed, is_loop: reach)


def _rebuilt(machine: Machine, reach) -> Machine:
    """Reinstall ``machine``'s block table with :func:`compile_at`
    ``reach``."""
    with pytest.MonkeyPatch.context() as patch:
        compile_at(patch, reach)
        machine._build_superblocks()
    return machine


def never_compiled(machine: Machine) -> Machine:
    """Test fake: install ``machine``'s block table with blocks that
    never compile.

    ``Machine.run`` then runs every instruction on its cold path, the
    step handlers, so that path is checked on its own rather than only
    where a compiled block hands an instruction back.  Apply it after
    ``attach_engine``, which discards the table.
    """
    return _rebuilt(machine, math.inf)


def every_block_compiled(machine: Machine) -> Machine:
    """Test fake: install ``machine``'s block table with every block
    compiling at its first reach, so compiled code runs even where no
    block gets hot as shipped.  Apply it after ``attach_engine``, which
    discards the table."""
    return _rebuilt(machine, 1)


#: the three ``Machine.run`` paths the equivalence tests compare against
#: the ``step()`` loop: "superblock" is ``run`` as shipped, "compiled" is
#: ``run`` with every block compiled at its first reach (see
#: :func:`every_block_compiled`), "closure" is ``run`` with blocks that
#: never compile (see :func:`never_compiled`)
RUN_PATHS = {
    "closure": never_compiled,
    "compiled": every_block_compiled,
    "superblock": lambda machine: machine,
}


class HookRecorder(MachineObserver):
    """Test fake: records every hook call, in order, as
    ``(hook, context id, pc, *arguments)``.

    Values are recorded by ``repr`` so ``1`` and ``1.0`` differ and a NaN
    equals itself.
    """

    def __init__(self):
        self.events = []

    def on_instruction(self, ctx, pc, instruction):
        self.events.append(("instruction", ctx.context_id, pc,
                            instruction.op))

    def on_load(self, ctx, pc, address, value):
        self.events.append(("load", ctx.context_id, pc, address,
                            repr(value)))

    def on_store(self, ctx, pc, address, old, new, triggering):
        self.events.append(("store", ctx.context_id, pc, address, repr(old),
                            repr(new), triggering))

    def on_branch(self, ctx, pc, taken, target):
        self.events.append(("branch", ctx.context_id, pc, taken, target))

    def on_halt(self, ctx):
        self.events.append(("halt", ctx.context_id))
