"""Observer hooks for machine execution.

Profilers (:mod:`repro.profiling`) and statistics collectors watch
execution through :class:`MachineObserver`.  The machine invokes hooks only
when at least one observer is attached, so unobserved runs pay nothing.

Hook order per instruction: memory hooks (``on_load`` / ``on_store``) fire
from inside the instruction's execution, then ``on_instruction`` fires once
the instruction has fully executed.  An instruction that faults fires no
hook.  With a spare context, a synchronous DTT engine runs support
threads nested inside the ``tcheck`` that consumes them, so their hooks
come before that ``tcheck``'s ``on_instruction``.

Hooks must take the instruction's PC from their ``pc`` argument and must
not read ``ctx.pc`` or the instruction counters (``ctx.instruction_count``,
``Machine.instructions_executed`` and the main/support split): observed
runs go through ``Machine.run``'s batch loop, which reconciles those only
once per chunk of instructions.  Hooks are bound when the machine
compiles its thunk table, so attach observers with
``Machine.add_observer`` rather than patching hook methods during a run.
"""

from __future__ import annotations

from typing import List, Union

Number = Union[int, float]


class MachineObserver:
    """Base observer; every hook is a no-op.  Subclass what you need."""

    def on_instruction(self, ctx, pc: int, instruction) -> None:
        """An instruction at ``pc`` finished executing on ``ctx``."""

    def on_load(self, ctx, pc: int, address: int, value: Number) -> None:
        """A load at ``pc`` read ``value`` from ``address``."""

    def on_store(
        self,
        ctx,
        pc: int,
        address: int,
        old_value: Number,
        new_value: Number,
        triggering: bool,
    ) -> None:
        """A store at ``pc`` overwrote ``old_value`` with ``new_value``.

        ``triggering`` is True for the DTT triggering-store opcodes
        (whether or not a trigger actually fired — value filtering is the
        engine's business, reported separately via engine stats).
        """

    def on_branch(self, ctx, pc: int, taken: bool, target: int) -> None:
        """A conditional branch at ``pc`` resolved."""

    def on_halt(self, ctx) -> None:
        """A main context executed ``halt``."""


class TraceObserver(MachineObserver):
    """Records a bounded textual trace — a debugging aid, not a profiler."""

    def __init__(self, max_entries: int = 10_000):
        self.max_entries = max_entries
        self.entries: List[str] = []
        self.truncated = False

    def on_instruction(self, ctx, pc: int, instruction) -> None:
        if len(self.entries) >= self.max_entries:
            self.truncated = True
            return
        self.entries.append(
            f"ctx{ctx.context_id} pc={pc:5d} {instruction.op:8s} "
            f"a={instruction.a} b={instruction.b} c={instruction.c}"
        )

    def text(self) -> str:
        """The recorded trace as one string."""
        suffix = "\n... (truncated)" if self.truncated else ""
        return "\n".join(self.entries) + suffix
