"""The functional DTIR machine.

:class:`Machine` executes one instruction per :meth:`Machine.step` call on
a chosen context.  It performs *complete, immediate* architectural effects
— the timing model in :mod:`repro.timing` decides *when* steps happen and
what they cost, and the DTT engine in :mod:`repro.core` decides what the
triggering-store and tcheck extensions do.

``step`` returns ``(instruction, address, taken)``:

* ``address`` — the data-memory word touched (loads/stores), else ``None``
* ``taken`` — branch outcome for conditional branches, else ``None``

which is everything the timing model and profilers need without
re-decoding.

Execution has two drivers:

* :meth:`Machine.step` — exact single-step mode.  The program is
  pre-decoded once into a dense ``(handler, instruction)`` table, so a
  step is a list index plus one call; there are no per-step dict lookups
  or isinstance re-checks.  The debugger and the timing model's general
  issue loop drive it; the timing model's solo run-ahead calls the same
  pre-decoded handlers directly.
* :meth:`Machine.run` — batch mode for functional runs.  Hot
  straight-line runs are compiled into single Python functions
  (:mod:`repro.machine.superblock`) that keep registers in locals and
  batch memory counters per block.  Whenever a guard fails, and at
  boundary opcodes and uncompiled PCs, the driver falls back to per-PC
  closures ("thunks", :mod:`repro.machine.fastpath`) with operands,
  memory, and the output buffer bound in.  Accounting (instruction
  counters, the dynamic-instruction limit, the step budget) is
  reconciled once per chunk of thousands of instructions.

Both produce identical results — architectural state, counters, faults,
and limits are byte-for-byte the same.  The step handlers, the thunks
and the superblock bodies are all generated from one per-opcode template
table (:mod:`repro.machine.semantics`); only the engine opcodes
(:data:`ENGINE_OPCODES`) have hand-written handlers, here.  Observed
runs (profilers and other machine observers attached) use the same batch
loop without compiled blocks, on thunks composed for the observers: an
observer that declares a shadow transfer has it generated inline, and
every other observer gets the hooks ``step()`` would call, with the same
arguments and in the same order (see :mod:`repro.machine.events`).

A synchronous DTT engine runs support threads nested inside the
``tcheck`` that consumes them.  When ``run`` handed that ``tcheck`` to
``step()``, the nested support threads are batch-run too, on the same
loop; under a bare ``step()`` loop they are single-stepped.
"""

from __future__ import annotations

from typing import List, Optional, Tuple, Union

from repro.errors import (
    ContextError,
    ExecutionFault,
    ExecutionLimitExceeded,
    ProgramValidationError,
)
from repro.isa.instructions import Instruction
from repro.isa.program import Program
from repro.machine.context import Context, ContextRole, ContextState
from repro.machine.fastpath import build_thunks
from repro.machine.loader import load_program
from repro.machine.memory import Memory
from repro.machine.semantics import ENGINE_OPCODES, STEP_HANDLERS
from repro.machine.superblock import install

Number = Union[int, float]
StepResult = Tuple[Instruction, Optional[int], Optional[bool]]

#: batch size of the fast loop: accounting (instruction counters, the
#: dynamic-instruction limit, the step budget) is reconciled once per chunk
_CHUNK = 16384


class Machine:
    """A multi-context DTIR machine over one program and one memory."""

    def __init__(
        self,
        program: Program,
        memory: Optional[Memory] = None,
        num_contexts: int = 4,
        contexts_per_core: Optional[int] = None,
        max_instructions: int = 20_000_000,
    ):
        if not program.finalized:
            raise ProgramValidationError("machine requires a finalized program")
        if num_contexts < 1:
            raise ContextError("machine needs at least one context")
        self.program = program
        self.memory = memory if memory is not None else Memory()
        per_core = contexts_per_core or num_contexts
        self.contexts: List[Context] = [
            Context(i, core_id=i // per_core) for i in range(num_contexts)
        ]
        self.contexts_per_core = per_core
        self.num_cores = (num_contexts + per_core - 1) // per_core
        self.output: List[Number] = []
        self.max_instructions = max_instructions
        self.instructions_executed = 0
        self.main_instructions = 0
        self.support_instructions = 0
        #: installed DTT engine, or None for the baseline machine
        self.dtt_engine = None
        self._observers: List = []
        # the observers whose ``total_instructions`` the machine keeps
        self._counting: List = []
        # does some observer declare a shadow transfer?
        self._shadowed = False
        #: instructions ``run`` retired on a table with shadow transfers
        #: inline (those observers' hooks were not called for them)
        self.shadow_instructions = 0
        self._instructions = program.instructions  # hot-path alias
        # pre-decode: one (handler, instruction) pair per PC, so step() is
        # a list index + one call with no per-step dict lookup on the op
        dispatch = _DISPATCH
        self._decoded = [
            (dispatch[ins.op], ins) for ins in program.instructions
        ]
        # per-PC closures for the batch loop; compiled lazily by run()
        self._thunks = None
        # compiled-block state: (block table, report cell, budget cell),
        # installed lazily by the first run()
        self._superblocks = None
        #: True while step() executes a boundary opcode the batch loop
        #: handed it; a synchronous engine then batch-runs the support
        #: threads that opcode starts (see DttEngine._run_synchronous)
        self._batching = False
        load_program(program, self.memory)
        self.main_context.start_main(program.entry_pc)

    # -- wiring ------------------------------------------------------------------

    @property
    def main_context(self) -> Context:
        return self.contexts[0]

    def attach_engine(self, engine) -> None:
        """Install a DTT engine; the engine is told about the machine."""
        self.dtt_engine = engine
        engine.bind(self)
        self._drop_compiled()

    def add_observer(self, observer) -> None:
        """Attach a :class:`~repro.machine.events.MachineObserver`."""
        self._observers.append(observer)
        self._rewire_observers()

    def remove_observer(self, observer) -> None:
        """Detach a previously attached observer."""
        self._observers.remove(observer)
        self._rewire_observers()

    def _rewire_observers(self) -> None:
        observers = self._observers
        self._counting = [o for o in observers if o.counts_instructions]
        self._shadowed = any(o.shadow is not None for o in observers)
        self._drop_compiled()

    def _drop_compiled(self) -> None:
        # thunks and superblocks bind the engine and the observers' hooks
        # at compile time; recompile after any rewiring so the batch loop
        # can never run against stale state
        self._thunks = None
        self._superblocks = None

    def idle_contexts(self) -> List[Context]:
        """Contexts available for support-thread dispatch."""
        return [c for c in self.contexts if c.state is ContextState.IDLE]

    # -- execution ------------------------------------------------------------------

    def step(self, ctx: Context) -> StepResult:
        """Execute one instruction on ``ctx``; it must be RUNNING."""
        if ctx.state is not ContextState.RUNNING:
            raise ContextError(
                f"context {ctx.context_id} is {ctx.state.value}, cannot step"
            )
        self.instructions_executed += 1
        if self.instructions_executed > self.max_instructions:
            raise ExecutionLimitExceeded(
                f"exceeded {self.max_instructions} dynamic instructions"
            )
        ctx.instruction_count += 1
        if ctx.role is ContextRole.MAIN:
            self.main_instructions += 1
        else:
            self.support_instructions += 1
        pc = ctx.pc
        try:
            handler, instruction = self._decoded[pc]
        except IndexError:
            raise ExecutionFault(
                f"context {ctx.context_id} ran off the end of the program "
                f"(pc={pc})"
            ) from None
        address, taken = handler(self, ctx, instruction, pc)
        if self._observers:
            for observer in self._observers:
                observer.on_instruction(ctx, pc, instruction)
            for observer in self._counting:
                observer.total_instructions += 1
        return (instruction, address, taken)

    def run(self, ctx: Optional[Context] = None,
            max_steps: Optional[int] = None) -> int:
        """Batch-execute ``ctx`` (default: the main context).

        Runs until the context leaves RUNNING (halt, block, treturn), the
        optional ``max_steps`` budget is spent, or a fault/limit raises.
        Returns the number of instructions retired *on this context* (a
        synchronous engine may retire further instructions on support
        contexts; those are counted in the machine totals as usual).

        Compiled superblocks run at their entries; everything else (block
        interiors after a side exit, boundary opcodes, uncompiled PCs)
        runs on the closure thunks.  Compiled blocks report their retired
        count through the shared cell, never exceed the chunk budget
        passed in, and reconcile memory counters themselves on every exit
        path.  Architectural results, counters, faults, and the dynamic
        instruction limit behave exactly as an equivalent ``step()``
        loop.

        With machine observers attached there are no compiled blocks:
        every PC runs on a thunk composed for them, which runs the
        declared shadow transfers inline and calls the other observers'
        hooks with the same arguments as ``step()``.  Each chunk's
        retired count goes to the observers that count instructions.
        Inside this loop ``ctx.pc`` and the instruction counters are
        reconciled per chunk, so hooks must rely on their ``pc``
        argument (see :mod:`repro.machine.events`).

        A synchronous DTT engine runs each support thread nested inside
        the ``tcheck`` that consumes it.  When this loop handed that
        ``tcheck`` to ``step()``, the support thread runs on the same
        batch loop (:meth:`_drive`), not one ``step()`` at a time; a bare
        ``step()`` loop still single-steps it.  Either way the nested
        instructions count in the machine totals, not in the return
        value.
        """
        if ctx is None:
            ctx = self.main_context
        if ctx.state is not ContextState.RUNNING:
            raise ContextError(
                f"context {ctx.context_id} is {ctx.state.value}, cannot step"
            )
        return self._drive(ctx, max_steps)

    def _drive(self, ctx: Context, max_steps: Optional[int] = None) -> int:
        """The batch loop of :meth:`run` on a RUNNING ``ctx``.

        Also the entry of nested synchronous support threads, so those
        do not re-enter the public :meth:`run`: each ``run`` call is one
        driver's run of one context.
        """
        table = self._thunks
        if table is None:
            table = self._thunks = build_thunks(self)
        superblocks = self._superblocks
        if superblocks is None:
            superblocks = self._build_superblocks()
        sb_table, cell, budget_cell = superblocks
        size = len(table)
        running_main = ctx.role is ContextRole.MAIN
        budget = -1 if max_steps is None else max_steps
        total = 0
        pc = ctx.pc
        while True:
            if budget >= 0 and total >= budget:
                break
            headroom = self.max_instructions - self.instructions_executed
            if headroom <= _CHUNK:
                # near the dynamic-instruction limit: single-step the rest
                # so ExecutionLimitExceeded fires on exactly the same
                # instruction as the legacy loop
                ctx.pc = pc
                remaining = None if budget < 0 else budget - total
                return total + self._run_slow(ctx, remaining)
            chunk = _CHUNK
            if budget >= 0 and budget - total < chunk:
                chunk = budget - total
            n = 0
            try:
                while n < chunk:
                    fn = sb_table[pc]  # IndexError: ran off the end
                    if fn is not None:
                        budget_cell[0] = chunk - n
                        ret = fn(ctx)
                        n += cell[0]
                        if ret >= 0:
                            pc = ret
                            continue
                        # side exit: rerun the guard-failing pc (which
                        # may be the block entry itself) on its thunk
                        pc = -2 - ret
                    n += 1
                    pc = table[pc](ctx)
                    if pc < 0:
                        n -= 1  # a boundary: stepped below, not run here
                        break
            except BaseException as exc:
                off_end = False
                if cell[1]:
                    # fault inside a compiled block: it already wrote
                    # registers back, reconciled the memory counters,
                    # counted the faulting instruction, and set ctx.pc
                    cell[1] = 0
                    n += cell[0]
                elif exc.__class__ is IndexError and pc >= size:
                    n += 1  # the off-end attempt is counted, as in step()
                    off_end = True
                    ctx.pc = pc
                else:
                    # thunk fault: thunks never touch ctx.pc; resync it
                    # to the faulting instruction (its attempt was
                    # already counted before dispatch)
                    ctx.pc = pc
                self.instructions_executed += n
                ctx.instruction_count += n
                if running_main:
                    self.main_instructions += n
                else:
                    self.support_instructions += n
                # the last instruction counted did not complete
                self._observe_retired(n - 1)
                if off_end:
                    raise ExecutionFault(
                        f"context {ctx.context_id} ran off the end of the "
                        f"program (pc={pc})"
                    ) from None
                raise
            self.instructions_executed += n
            ctx.instruction_count += n
            if running_main:
                self.main_instructions += n
            else:
                self.support_instructions += n
            self._observe_retired(n)
            total += n
            if pc >= 0:
                continue  # chunk budget spent; reconcile and keep going
            # a boundary opcode (engine hook, halt): step it with the
            # counters reconciled, so nested synchronous execution and
            # the dynamic-instruction limit see exactly what a step()
            # loop shows them, then re-budget.  The flag is saved and
            # restored because nested support threads come back here.
            pc = ctx.pc = -2 - pc
            batching = self._batching
            self._batching = True
            try:
                self.step(ctx)
            finally:
                self._batching = batching
            total += 1
            if ctx.state is not ContextState.RUNNING:
                return total  # its handler set ctx.pc
            pc = ctx.pc
        ctx.pc = pc
        return total

    def _observe_retired(self, n: int) -> None:
        """Account ``n`` instructions a :meth:`run` chunk completed to the
        observers that count instructions."""
        for observer in self._counting:
            observer.total_instructions += n
        if self._shadowed:
            self.shadow_instructions += n

    def _run_slow(self, ctx: Context, max_steps: Optional[int]) -> int:
        """Single-step the tail of a :meth:`run` near the dynamic
        instruction limit, so the limit fires on the exact instruction."""
        executed = 0
        step = self.step
        while ctx.state is ContextState.RUNNING and (
            max_steps is None or executed < max_steps
        ):
            step(ctx)
            executed += 1
        return executed

    def _build_superblocks(self):
        if self._observers:
            # observed runs stay on the thunks, which call the hooks;
            # an empty block table sends every PC there
            superblocks = ([None] * len(self._decoded), [0, 0], [0])
        else:
            superblocks = install(self)
        self._superblocks = superblocks
        return superblocks

    # -- checkpointing -----------------------------------------------------------

    def snapshot(self) -> dict:
        """Capture the complete architectural state.

        Covers memory, every context's registers/PC/call stack/state, the
        output buffer, and the instruction counters.  Does *not* cover an
        attached DTT engine's state (pending queue, in-flight threads) —
        snapshot at quiescent points (e.g. from a debugger stop with no
        support thread running), which is also the only state a hardware
        checkpoint would take.
        """
        return {
            "memory": self.memory.snapshot(),
            "contexts": [
                {
                    "regs": list(ctx.regs),
                    "pc": ctx.pc,
                    "call_stack": list(ctx.call_stack),
                    "state": ctx.state,
                    "role": ctx.role,
                    "thread_name": ctx.thread_name,
                    "waiting_on": ctx.waiting_on,
                    "instruction_count": ctx.instruction_count,
                    "busy_until": ctx.busy_until,
                }
                for ctx in self.contexts
            ],
            "output": list(self.output),
            "instructions_executed": self.instructions_executed,
            "main_instructions": self.main_instructions,
            "support_instructions": self.support_instructions,
        }

    def restore(self, snapshot: dict) -> None:
        """Rewind to a state captured by :meth:`snapshot`."""
        self.memory.restore(snapshot["memory"])
        for ctx, saved in zip(self.contexts, snapshot["contexts"]):
            ctx.regs[:] = saved["regs"]
            ctx.pc = saved["pc"]
            ctx.call_stack = list(saved["call_stack"])
            ctx.state = saved["state"]
            ctx.role = saved["role"]
            ctx.thread_name = saved["thread_name"]
            ctx.waiting_on = saved["waiting_on"]
            ctx.instruction_count = saved["instruction_count"]
            ctx.busy_until = saved["busy_until"]
        self.output[:] = snapshot["output"]
        self.instructions_executed = snapshot["instructions_executed"]
        self.main_instructions = snapshot["main_instructions"]
        self.support_instructions = snapshot["support_instructions"]

    def __repr__(self) -> str:
        return (
            f"Machine({len(self.contexts)} contexts, "
            f"{self.instructions_executed} instructions executed, "
            f"main={self.main_context.state.value})"
        )


# Step handlers of the engine opcodes, the only hand-written ones; see
# repro.machine.semantics.STEP_HANDLERS for the contract.


def _h_tstore(m, ctx, i, pc, address):
    new_value = ctx.regs[i.a]
    old_value = m.memory.peek(address)
    m.memory.store(address, new_value)
    ctx.pc = pc + 1
    if m.dtt_engine is not None:
        m.dtt_engine.on_triggering_store(ctx, pc, address, old_value, new_value)
    for observer in m._observers:
        observer.on_store(ctx, pc, address, old_value, new_value, True)
    return (address, None)


def _h_tst(m, ctx, i, pc):
    return _h_tstore(m, ctx, i, pc, ctx.regs[i.b] + i.c)


def _h_tstx(m, ctx, i, pc):
    return _h_tstore(m, ctx, i, pc, ctx.regs[i.b] + ctx.regs[i.c])


def _h_tcheck(m, ctx, i, pc):
    ctx.pc = pc + 1
    if m.dtt_engine is not None:
        m.dtt_engine.on_tcheck(ctx, int(i.a))
    return (None, None)


def _h_treturn(m, ctx, i, pc):
    ctx.pc = pc + 1
    if m.dtt_engine is None:
        raise ExecutionFault(f"treturn without a DTT engine at pc {pc}")
    m.dtt_engine.on_treturn(ctx)
    return (None, None)


def _h_halt(m, ctx, i, pc):
    if ctx.role is not ContextRole.MAIN:
        raise ExecutionFault(
            f"support thread executed halt at pc {pc}; use treturn"
        )
    ctx.state = ContextState.HALTED
    ctx.pc = pc + 1
    for observer in m._observers:
        observer.on_halt(ctx)
    return (None, None)


_DISPATCH = dict(
    STEP_HANDLERS,
    tst=_h_tst,
    tstx=_h_tstx,
    tcheck=_h_tcheck,
    treturn=_h_treturn,
    halt=_h_halt,
)


def run_to_completion(machine: Machine) -> List[Number]:
    """Run the main context until it halts; returns the output buffer.

    This is the *functional* driver: support threads are executed
    synchronously by the engine (at trigger or tcheck time per its policy),
    so the main context is never left blocked.  Use
    :class:`repro.timing.system.TimingSimulator` for timed runs.
    """
    main = machine.main_context
    while main.state is not ContextState.HALTED:
        if main.state is ContextState.RUNNING:
            machine.run(main)
        elif main.state is ContextState.BLOCKED:
            raise ContextError(
                "main context blocked during a functional run; the DTT "
                "engine must run in synchronous mode (deferred=False)"
            )
        else:
            raise ContextError(
                f"main context in unexpected state {main.state.value}"
            )
    return machine.output
