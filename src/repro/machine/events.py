"""Observer hooks for machine execution.

Profilers (:mod:`repro.profiling`) and statistics collectors watch
execution through :class:`MachineObserver`.  The machine invokes hooks only
when at least one observer is attached, so unobserved runs pay nothing.

Hook order per instruction: memory hooks (``on_load`` / ``on_store``) fire
from inside the instruction's execution, then ``on_instruction`` fires once
the instruction has fully executed.  An instruction that faults fires no
hook.  With a spare context, a synchronous DTT engine runs support
threads nested inside the ``tcheck`` that consumes them, so their hooks
come before that ``tcheck``'s ``on_instruction``.  Inside a
``Machine.run`` those support threads run on its batch loop too, with
``ctx.pc`` and the counters reconciled per chunk as below; a bare
``step()`` loop single-steps them.

Hooks must take the instruction's PC from their ``pc`` argument and must
not read ``ctx.pc`` or the instruction counters (``ctx.instruction_count``,
``Machine.instructions_executed`` and the main/support split): observed
runs go through ``Machine.run``'s batch loop, which reconciles those only
once per chunk of instructions.  Hooks are bound when the machine
compiles its thunk table, so attach observers with
``Machine.add_observer`` rather than patching hook methods during a run.

**Declared shadow transfers.**  An observer whose analysis is a small
shadow machine (per-register and per-word state updated at each
instruction) can declare it as a :class:`Shadow`: per instruction kind,
the source of the update its hooks make.  ``Machine.run`` then generates
that update inline into each thunk (:mod:`repro.machine.semantics`), so
the instruction and its shadow update are one call and the observer's
hooks are not called there.  The hooks still fire everywhere ``step()``
executes: the engine opcodes (``tst``/``tstx``/``tcheck``/``treturn``/
``halt``, which ``run`` hands to ``step()``), the single-stepped tail of
a ``run`` near the dynamic-instruction limit, the timing model's issue
loop and the debugger.  A declared observer's hooks and transfers must
therefore update the same state identically; the transfers are tested
against the hooks.  An observer that declares nothing gets its hooks
called from the thunks, in ``step()``'s order.

**Instruction totals.**  An observer with ``counts_instructions`` set
keeps a ``total_instructions`` counter that the machine maintains: ``run``
adds each chunk's retired count (an instruction that faults is not
added), and ``step()`` adds one per completed instruction.  Such an
observer needs no ``on_instruction`` hook just to count.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Tuple, Union

Number = Union[int, float]


class Shadow(NamedTuple):
    """An observer's shadow transfer, declared per instruction kind.

    Each kind's entry is Python source (``""``: nothing to do for that
    kind), run right after the instruction's effect.  The kinds are
    ``load``, ``store``, ``alu`` (an ALU op with register sources),
    ``const`` (an ALU op without, such as ``li``) and ``branch`` (a
    conditional branch); control flow, ``out`` and ``nop`` have none.
    The source is a :meth:`str.format` template over these operand
    slots:

    * ``{address}`` the word address (load, store);
    * ``{value}`` the loaded or stored value (load, store);
    * ``{old}`` the value a store overwrote;
    * ``{dest}`` the destination register index (load, alu, const);
    * ``{src}`` the stored register's index (store);
    * ``{first}`` / ``{second}`` the first and last register source's
      index (alu, branch; a single source is both);
    * ``{op_class}`` the opcode's :class:`~repro.isa.instructions.OpClass`
      value, as a string literal.

    Every other ``{name}`` is the observer's own: one of ``state`` (bound
    from :meth:`MachineObserver.shadow_state` when the table is built),
    one of ``cells`` (a per-instruction closure variable, ``None`` until
    that instruction first runs, assignable from the template), or a
    local.  Each name is renamed per observer, so two observers' sources
    never collide.  ``pc`` and ``ctx`` are in scope as well.
    """

    state: Tuple[str, ...] = ()
    cells: Tuple[str, ...] = ()
    load: str = ""
    store: str = ""
    alu: str = ""
    const: str = ""
    branch: str = ""


class MachineObserver:
    """Base observer; every hook is a no-op.  Subclass what you need."""

    #: the observer's shadow transfer, generated into ``Machine.run``'s
    #: thunks in place of its hooks; ``None`` to get hook calls there
    shadow: Optional[Shadow] = None

    #: set when the machine maintains ``total_instructions`` for it
    counts_instructions = False

    def shadow_state(self) -> dict:
        """``{name: object}`` for each name in ``shadow.state``."""
        return {}

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
