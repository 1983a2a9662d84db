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
* :meth:`Machine.run` — batch mode for functional runs.  Hot blocks
  are compiled into single Python functions
  (:mod:`repro.machine.superblock`) that keep registers in locals and
  batch memory counters per block.  An instruction a block hands back
  (a faulting address or a fault) and an uncompiled PC run on the same
  pre-decoded step handlers as ``step()``, the one cold path it shares
  with the timing model's run-aheads; engine opcodes go to ``step()``
  itself.  Blocks take the run's real budget, and accounting
  (instruction counters, the dynamic-instruction limit, the step
  budget) is reconciled only where the loop stops anyway: at an engine
  opcode, the limit, a fault, or the end of the run.

Both produce identical results — architectural state, counters, faults,
and limits are byte-for-byte the same.  The step handlers and the
compiled blocks are both generated from one per-opcode template table
(:mod:`repro.machine.semantics`); only the engine opcodes
(:data:`ENGINE_OPCODES`) have hand-written handlers, here.  Observed
runs (profilers and other machine observers attached) use the same batch
loop.  When every attached observer declares a shadow transfer, as the
redundancy analyses do, the compiled blocks run the transfers inline;
otherwise there are no compiled blocks.  Cold instructions call the
observers' hooks, as ``step()`` does, with the same arguments and in
the same order (see :mod:`repro.machine.events`).  The machine keeps
one load history (:attr:`Machine.load_history`) for the observers that
read a load's redundancy, updated once per load on every path.

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
from repro.machine.events import LoadHistory
from repro.machine.loader import load_program
from repro.machine.memory import Memory
from repro.machine.semantics import ENGINE_OPCODES, STEP_HANDLERS
from repro.machine.superblock import install

Number = Union[int, float]
StepResult = Tuple[Instruction, Optional[int], Optional[bool]]


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
        #: the one load history of the attached observers whose shadow
        #: reads ``{redundant}``, None while no such observer is attached
        self.load_history: Optional[LoadHistory] = None
        #: instructions ``run`` retired inside compiled blocks
        self.compiled_instructions = 0
        # pre-decode: one (handler, instruction) pair per PC, so step() is
        # a list index + one call with no per-step dict lookup on the op
        dispatch = _DISPATCH
        self._decoded = [
            (dispatch[ins.op], ins) for ins in program.instructions
        ]
        # the compiled-block table, installed lazily by the first run()
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
        # one history for every observer that reads it, kept while one
        # is attached
        readers = [o for o in observers
                   if o.shadow is not None and o.shadow.reads_history]
        if not readers:
            self.load_history = None
        elif self.load_history is None:
            self.load_history = LoadHistory()
        for observer in readers:
            observer.load_history = self.load_history
        self._drop_compiled()

    def _drop_compiled(self) -> None:
        # blocks bind the observers' shadow state at compile time;
        # recompile after any rewiring so the batch loop can never run
        # against stale state
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

        Compiled blocks run at their entries; uncompiled PCs and the
        instructions a block hands back (a faulting address or a fault)
        run on their step handlers, and engine opcodes under ``step()``.  A
        block takes the run's budget left as an argument (the limit's
        headroom, capped by ``max_steps``), never exceeds it, reconciles
        the memory counters itself, and returns its retired count with
        the next PC (see :mod:`repro.machine.superblock`), so a loop
        nest stays in its block.  Architectural results, counters,
        faults, and the limit behave exactly as a ``step()`` loop.

        With machine observers attached, compiled blocks run their
        declared shadow transfers, but only when every observer declares
        one; one that declares none leaves no compiled blocks.  A step
        handler calls the observers' hooks, and the loop then calls each
        ``on_instruction``, as ``step()`` does.  ``ctx.pc`` and the
        counters (the observers' that count instructions, and
        ``compiled_instructions`` for what blocks retired) are
        reconciled only at an engine opcode, the limit, a fault or the
        end of the run, so hooks must rely on their ``pc`` argument
        (see :mod:`repro.machine.events`).

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
        """The batch loop of :meth:`run` on a RUNNING ``ctx``: it runs
        blocks on the run's real budget and stops only where it must.

        Also the entry of nested synchronous support threads, so those
        do not re-enter the public :meth:`run`: each ``run`` call is one
        driver's run of one context.
        """
        sb_table = self._superblocks
        if sb_table is None:
            sb_table = self._build_superblocks()
        decoded = self._decoded
        observers = self._observers
        size = len(decoded)
        budget = -1 if max_steps is None else max_steps
        total = 0
        pc = ctx.pc
        while True:
            # the run's real budget: the limit's headroom, capped by
            # what is left of max_steps (-1, no max_steps, caps nothing)
            room = self.max_instructions - self.instructions_executed
            if 0 <= budget - total < room:
                room = budget - total
            n = compiled = 0  # compiled: retired inside blocks
            try:
                while n < room:
                    fn = sb_table[pc]  # IndexError: ran off the end
                    if fn is not None:
                        ret = fn(ctx, room - n)
                        if ret is not None:
                            retired, pc = ret
                            n += retired
                            compiled += retired
                            if pc >= 0:
                                continue
                            # handed back: rerun that instruction on its
                            # step handler, which faults if the block did
                            pc = -2 - pc
                    handler, ins = decoded[pc]
                    if ins.op in ENGINE_OPCODES:
                        break  # stepped below, not run here
                    n += 1
                    handler(self, ctx, ins, pc)
                    for observer in observers:
                        observer.on_instruction(ctx, pc, ins)
                    pc = ctx.pc
            except BaseException as exc:
                off_end = exc.__class__ is IndexError and pc >= size
                if off_end:
                    n += 1  # the off-end attempt is counted, as in step()
                # blocks leave ctx.pc behind and a handler sets it last;
                # resync it to the faulting instruction (its attempt was
                # counted before dispatch)
                ctx.pc = pc
                # the last instruction counted did not complete
                self._retire(ctx, n, n - 1, compiled)
                if off_end:
                    raise ExecutionFault(
                        f"context {ctx.context_id} ran off the end of the "
                        f"program (pc={pc})"
                    ) from None
                raise
            self._retire(ctx, n, n, compiled)
            total += n
            if total == budget:
                break
            # an engine opcode, or the limit, where step() raises on
            # exactly the next instruction: step it with the counters
            # reconciled, so nested synchronous execution and the limit
            # see exactly what a step() loop shows them, then re-budget.
            # The flag is saved and restored because nested support
            # threads come back here.
            ctx.pc = pc
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

    def _retire(self, ctx: Context, n: int, completed: int,
                compiled: int = 0) -> None:
        """Count ``n`` instructions a batch ran on ``ctx``: in the machine
        totals and ``ctx``'s count all of them, the ``completed`` ones
        for the observers that count instructions, and the ``compiled``
        ones that blocks retired."""
        self.instructions_executed += n
        self.compiled_instructions += compiled
        ctx.instruction_count += n
        if ctx.role is ContextRole.MAIN:
            self.main_instructions += n
        else:
            self.support_instructions += n
        for observer in self._counting:
            observer.total_instructions += completed

    def _build_superblocks(self) -> list:
        if any(o.shadow is None for o in self._observers):
            # an observer without a shadow transfer needs its hooks
            # called, which only the step handlers do; an empty block
            # table sends every PC there
            table = [None] * len(self._decoded)
        else:
            table = install(self)
        self._superblocks = table
        return table

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
