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
``ctx.pc`` and the counters reconciled as below; a bare ``step()``
loop single-steps them.

Hooks must take the instruction's PC from their ``pc`` argument and must
not read ``ctx.pc`` or the instruction counters (``ctx.instruction_count``,
``Machine.instructions_executed`` and the main/support split): observed
runs go through ``Machine.run``'s batch loop, which reconciles those only
where it stops (an engine opcode, the limit, a fault, the end of the
run).  Compiled blocks bind the observers' shadow state when the machine
builds its block table, so attach observers with
``Machine.add_observer`` rather than swapping state during a run.

**Declared shadow transfers.**  An observer whose analysis is a small
shadow machine (per-register and per-word state updated at each
instruction) can declare it as a :class:`Shadow`: per instruction kind,
the source of the update its hooks make.  When every attached observer
declares one, ``Machine.run`` generates those updates inline into each
compiled block (:mod:`repro.machine.semantics`,
:mod:`repro.machine.superblock`), so the instruction and its shadow
update run in one call and the observers' hooks are not called there.
The hooks still fire wherever a step handler executes: the instructions
no compiled block retires (uncompiled PCs and hand-backs, on
``Machine.run``'s cold path), the engine opcodes
(``tst``/``tstx``/``tcheck``/``treturn``/``halt``, which ``run`` hands
to ``step()``), the timing model and the debugger.  A declared
observer's hooks and transfers must therefore update the same state
identically; the hooks are the reference the transfers are tested
against.  An observer that declares nothing keeps the whole run on the
step handlers, which call its hooks in ``step()``'s order.  Whether a
load is redundant is decided once per load, whichever observers are
attached and in whatever order, from the machine's one
:class:`LoadHistory` (see :class:`Shadow`).

**Instruction totals.**  An observer with ``counts_instructions`` set
keeps a ``total_instructions`` counter that the machine maintains: ``run``
adds the count retired up to each stop (an instruction that faults is
not added), and ``step()`` adds one per completed instruction.  Such an
observer needs no ``on_instruction`` hook just to count.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple, Union

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
    * ``{redundant}`` whether a load read the value last loaded from its
      address (never true for the first load of an address), from the
      machine's one :class:`LoadHistory`;
    * ``{dest}`` the destination register index (load, alu, const);
    * ``{src}`` the stored register's index (store);
    * ``{first}`` / ``{second}`` the first and last register source's
      index (alu, branch; a single source is both);
    * ``{op_class}`` the opcode's :class:`~repro.isa.instructions.OpClass`
      value, as a string literal;
    * ``{pc}`` the instruction's PC.

    A register slot formatted with the name of one of ``registers`` is
    that register's entry in the register file: ``{dest:taint} = True``.
    The ``{op_class}`` slot formatted with the name of one of
    ``counters`` is that class's count in the counter:
    ``{op_class:counts} += 1``.
    Every other ``{name}`` is the observer's own: one of ``state`` (bound
    from :meth:`MachineObserver.shadow_state` when the table is built),
    one of ``cells`` (a per-instruction variable, ``None`` until that
    instruction first runs, assignable from the template), or a local.
    Each name is renamed per observer, so two observers' sources never
    collide.  ``ctx`` is in scope as well.

    ``registers`` names per-context register files: ``shadow_state()``
    maps each to a mapping from context id to a list indexed by
    register, created on first use.  A compiled block keeps the entries
    it touches in locals, as it keeps registers, and writes back the
    ones it wrote through ``{dest:<file>}`` when it ends, so a template
    writes a register file only through ``dest``.  ``counters`` names
    dicts that ``shadow_state()`` maps, from op class value to a count;
    a compiled block counts each class a template names in a local,
    zeroed in its prologue and added to the dict in its epilogue.  A
    block hands an instruction back (a faulting memory address, a fault)
    before its transfer, through the epilogue, so what the block ran
    before it is written back and counted; an exception raised by a
    transfer itself propagates out of the block without its write-back,
    as an interrupt does.

    A load's ``{redundant}`` is a fact of the load event, as a store's
    ``{old}`` is: the machine keeps one :class:`LoadHistory` for every
    attached observer whose load template uses it, and each load probes
    and writes it once, before any observer's transfer or hook.  Those
    observers' hooks read the verdict as ``load_history.redundant``.
    """

    state: Tuple[str, ...] = ()
    cells: Tuple[str, ...] = ()
    registers: Tuple[str, ...] = ()
    counters: Tuple[str, ...] = ()
    load: str = ""
    store: str = ""
    alu: str = ""
    const: str = ""
    branch: str = ""

    @property
    def reads_history(self) -> bool:
        """Whether the load template uses ``{redundant}``."""
        return "{redundant}" in self.load


class LoadHistory:
    """The value last loaded from each word address (``last``), and
    whether the latest load the hooks see read that same value
    (``redundant``).

    :class:`~repro.machine.machine.Machine` keeps one while an attached
    observer's shadow reads ``{redundant}``, and hands it to each such
    observer as ``load_history``.  Every load updates it once: a step
    handler before the ``on_load`` hooks, a compiled block before the
    transfers.  A word never loaded reads ``None`` from ``last``, which
    equals no value, so a first load is never redundant.
    """

    __slots__ = ("last", "redundant")

    def __init__(self) -> None:
        self.last: Dict[int, Number] = {}
        self.redundant = False


class MachineObserver:
    """Base observer; every hook is a no-op.  Subclass what you need."""

    #: the observer's shadow transfer, generated into ``Machine.run``'s
    #: compiled blocks in place of its hooks; ``None`` to keep the run
    #: on the step handlers, which call the hooks
    shadow: Optional[Shadow] = None

    #: set when the machine maintains ``total_instructions`` for it
    counts_instructions = False

    #: the machine's load history, set while attached when ``shadow``
    #: reads ``{redundant}``
    load_history: Optional[LoadHistory] = None

    def shadow_state(self) -> dict:
        """``{name: object}`` for each name in ``shadow.state``,
        ``shadow.registers`` and ``shadow.counters``."""
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
