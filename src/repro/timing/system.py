"""The timing simulator: drives cores cycle-by-cycle until the program halts.

Orchestration per cycle:

1. the DTT engine (if any) dispatches queued support threads onto idle
   contexts — newly dispatched contexts pay the spawn latency;
2. every core issues up to its width from its ready contexts;
3. when *nothing* issued, the clock fast-forwards to the earliest cycle at
   which any running context becomes ready (skipping DRAM-stall dead time
   in one step), with a deadlock check when no context can ever run again.

While exactly one context is RUNNING machine-wide, whole iterations of
that loop are a pure function of the context's instruction latencies, and
the *solo run-ahead* (:meth:`TimingSimulator._run_solo`) drives them
without the per-core scan or :meth:`Machine.step`, then reconciles every
counter the loop would have changed.  Code it reaches often runs as
compiled hot blocks (:mod:`repro.timing.blocks`).  It hands the cycle
back to the general loop on the opcodes that touch the DTT engine
(:data:`~repro.machine.machine.ENGINE_OPCODES`); results are identical
either way.
"""

from __future__ import annotations

from typing import Optional

from repro.cache.hierarchy import CacheHierarchy
from repro.core.engine import DttEngine
from repro.errors import ExecutionFault, ExecutionLimitExceeded, MachineError
from repro.isa.program import Program
from repro.machine.context import ContextRole, ContextState
from repro.machine.machine import Machine
from repro.timing import blocks
from repro.timing.branch import BranchPredictor
from repro.timing.core import BRANCH, ENTRY, EXIT, LOAD, SmtCore
from repro.timing.params import SystemConfig
from repro.timing.stats import EnergyModel, TimingResult


#: why the solo run-ahead stopped (see TimingSimulator._solo_body)
_HEADROOM = "headroom"
_SIDE_EXIT = "side-exit"
_CYCLE_LIMIT = "cycle-limit"
_OFF_END = "off-end"
_FAULT = "fault"


class TimingSimulator:
    """One timed run of one program on one machine configuration."""

    def __init__(
        self,
        program: Program,
        config: Optional[SystemConfig] = None,
        engine: Optional[DttEngine] = None,
        max_instructions: int = 50_000_000,
        metrics=None,
    ):
        self.config = config or SystemConfig()
        #: optional MetricsRegistry; cycle-breakdown gauges are published
        #: into it when the run finishes (and live engine metrics during)
        self.metrics = metrics
        self.machine = Machine(
            program,
            num_contexts=self.config.total_contexts,
            contexts_per_core=self.config.contexts_per_core,
            max_instructions=max_instructions,
        )
        self.engine = engine
        if engine is not None:
            if not engine.deferred:
                raise MachineError(
                    "the timing simulator needs a deferred-mode engine "
                    "(DttEngine(..., deferred=True))"
                )
            self.machine.attach_engine(engine)
            engine.cycle_source = lambda: self.now
            if metrics is not None:
                engine.attach_metrics(metrics)
        self.hierarchy = CacheHierarchy(
            self.config.num_cores, self.config.hierarchy_params
        )
        self.predictor = BranchPredictor()
        per_core = self.config.contexts_per_core
        self.cores = [
            SmtCore(
                core_id,
                self.machine.contexts[core_id * per_core: (core_id + 1) * per_core],
                self.config.core_params,
                self.hierarchy,
                self.predictor,
                self.machine,
            )
            for core_id in range(self.config.num_cores)
        ]
        self.now = 0
        #: simulated cycles and instructions of the iterations the solo
        #: run-ahead drove (see _run_solo)
        self.solo_cycles = 0
        self.solo_instructions = 0
        #: hot-block state per core id, for this run only (see _solo_body)
        self._hot_blocks = {}
        #: blocks bound to compiled code, seconds spent binding (and on a
        #: cache miss compiling) them, and instructions retired inside them
        self.compiled_blocks = 0
        self.compile_seconds = 0.0
        self.compiled_instructions = 0

    # -- driving --------------------------------------------------------------------

    def run(self) -> TimingResult:
        """Simulate until the main context halts; returns the result."""
        machine = self.machine
        engine = self.engine
        main = machine.main_context
        cores = self.cores
        spawn_latency = self.config.core_params.spawn_latency

        def charge_spawn(ctx):  # hoisted: one closure per run, not per cycle
            self._charge_spawn(ctx, spawn_latency)

        try:
            while main.state is not ContextState.HALTED:
                if engine is not None:
                    engine.dispatch_pending(on_dispatch=charge_spawn)
                solo = self._solo_context()
                if solo is not None:
                    self._run_solo(solo)
                    continue
                issued = 0
                for core in cores:
                    issued += core.cycle(self.now)
                self._advance(issued)
        finally:
            self._release_hot_blocks()
        return self._result()

    def _release_hot_blocks(self) -> None:
        """Tally and drop the run's compiled blocks and namespaces."""
        for hot in self._hot_blocks.values():
            self.compiled_blocks += hot.compiled
            self.compile_seconds += hot.seconds
            hot.release()
        self._hot_blocks.clear()

    def _advance(self, issued: int) -> None:
        """Close one iteration: tick the clock, skip dead time, and
        enforce the cycle limit."""
        self.now += 1
        if not issued:
            self._fast_forward()
        if self.now > self.config.max_cycles:
            raise ExecutionLimitExceeded(
                f"exceeded {self.config.max_cycles} simulated cycles"
            )

    def _charge_spawn(self, ctx, spawn_latency: int) -> None:
        ctx.busy_until = self.now + spawn_latency

    # -- solo run-ahead ---------------------------------------------------------------

    def _solo_context(self):
        """The context the solo run-ahead may drive from this iteration on.

        That is the one RUNNING context when it is the only one
        machine-wide, no machine observer wants per-instruction callbacks,
        and at least one full issue width of instructions is left before
        the dynamic limit.  Returns None otherwise.

        The engine needs no condition of its own: ``dispatch_pending``
        has just run, so its queue is empty or no context is idle, and
        only an engine opcode — a side exit — can change either.  Every
        iteration the run-ahead drives would have dispatched nothing.
        """
        machine = self.machine
        if machine._observers:
            return None
        solo = None
        for ctx in machine.contexts:
            if ctx.state is ContextState.RUNNING:
                if solo is not None:
                    return None
                solo = ctx
        if solo is None:
            return None
        headroom = machine.max_instructions - machine.instructions_executed
        if headroom < self.config.core_params.issue_width:
            return None
        return solo

    def _run_solo(self, ctx) -> None:
        """Drive whole iterations of :meth:`run` while ``ctx`` runs alone.

        With one RUNNING context and nothing to dispatch, an iteration is
        a pure function of per-instruction latencies: ``ctx`` issues up
        to the width, a latency above 1 ends the cycle, and a stalled
        iteration plus its fast-forward is ``now = max(now + 1, busy)``.
        :meth:`_solo_body` runs that loop; this method reconciles every
        counter the general loop would have changed, then finishes the
        iteration a side exit interrupted, or re-raises what stopped it.
        """
        machine = self.machine
        core = self.cores[ctx.core_id]
        start_now = self.now
        start_instructions = machine.instructions_executed
        (reason, now, iterations, issuing, retired, partial,
         busy_until, error) = self._solo_body(ctx, core)

        # -- reconcile ---------------------------------------------------
        counted = retired + (reason is _FAULT or reason is _OFF_END)
        machine.instructions_executed += counted
        ctx.instruction_count += counted
        if ctx.role is ContextRole.MAIN:
            machine.main_instructions += counted
        else:
            machine.support_instructions += counted
        core.instructions_issued += retired
        core.busy_cycles += issuing
        ctx.busy_until = busy_until
        self.now = now
        # an unfinished iteration has already rotated the solo core and
        # every core before it; later cores rotate when it completes
        for other in self.cores:
            steps = iterations
            if partial is not None and other.core_id <= core.core_id:
                steps += 1
            other._rotation = (other._rotation + steps) % len(other.contexts)

        try:
            if reason is _SIDE_EXIT:
                issued = core.scan(now, core.contexts.index(ctx), partial)
                core.busy_cycles += 1  # the ready solo context issued
                for later in self.cores[core.core_id + 1:]:
                    issued += later.cycle(now)
                self._advance(issued)
            elif reason is _CYCLE_LIMIT:
                raise ExecutionLimitExceeded(
                    f"exceeded {self.config.max_cycles} simulated cycles"
                )
            elif reason is _OFF_END:
                raise ExecutionFault(
                    f"context {ctx.context_id} ran off the end of the "
                    f"program (pc={ctx.pc})"
                )
            elif reason is _FAULT:
                raise error
        finally:
            self.solo_cycles += self.now - start_now
            self.solo_instructions += (machine.instructions_executed
                                       - start_instructions)

    def _solo_body(self, ctx, core):
        """The per-instruction loop of the solo run-ahead.

        Runs whole iterations until an engine opcode (``_SIDE_EXIT``,
        leaving the cycle unfinished), the cycle limit, a fault, or too
        little instruction headroom for another full-width cycle.  At a
        block entry it has reached ``blocks.HOT_THRESHOLD`` times, it
        binds the block's code and from then on calls it, which advances
        this loop's own state (see :mod:`repro.timing.blocks`).  It
        touches architectural state, the cache hierarchy, the predictor
        and the core's class tally; everything else it returns for
        :meth:`_run_solo` to reconcile::

            (reason, now, iterations, issuing cycles, instructions retired,
             instructions of the unfinished cycle or None, busy_until,
             the exception of a fault or None)
        """
        machine = self.machine
        hot_blocks = self._hot_blocks.get(core.core_id)
        if hot_blocks is None:
            hot_blocks = self._hot_blocks[core.core_id] = \
                blocks.HotBlocks(self, core)
        table = hot_blocks.table
        hot = hot_blocks.hot
        compile_block = hot_blocks.compile
        cold = core.table
        tally = core.class_tally
        access = self.hierarchy.access
        predict = self.predictor.predict_and_update
        core_id = core.core_id
        params = core.params
        width = params.issue_width
        hide = params.load_hide_latency
        penalty = params.mispredict_penalty
        max_cycles = self.config.max_cycles
        # largest retired count after which a full-width cycle still fits
        # under the dynamic-instruction limit
        budget = machine.max_instructions - machine.instructions_executed - width
        now = self.now
        busy = ctx.busy_until
        iterations = issuing = retired = k = compiled = 0
        reason = _HEADROOM
        error = None
        try:
            while True:
                if busy > now:
                    # stalled: one iteration issues nothing, then the
                    # fast-forward jumps to the cycle the context is ready
                    iterations += 1
                    now += 1
                    if busy > now:
                        now = busy
                    if now > max_cycles:
                        reason = _CYCLE_LIMIT
                        break
                    continue
                if retired > budget:
                    break
                while k < width:
                    pc = ctx.pc
                    try:
                        kind, latency, class_index, handler, ins = table[pc]
                    except IndexError:
                        reason = _OFF_END
                        break
                    if kind >= EXIT:
                        if kind != ENTRY:
                            reason = _SIDE_EXIT
                            break
                        block = hot[pc]
                        if block.__class__ is int:
                            if block > 1:
                                hot[pc] = block - 1
                                block = None
                            else:
                                block = hot[pc] = compile_block(pc)
                        if block is not None:
                            state = block(ctx, now, busy, k, retired,
                                          iterations, issuing, budget)
                            if state is not None:
                                before = retired + k
                                (now, busy, k, retired, iterations, issuing,
                                 exit_kind) = state
                                compiled += retired + k - before
                                if exit_kind < blocks.GUARD:
                                    continue
                                if exit_kind == blocks.CYCLE_LIMIT:
                                    reason = _CYCLE_LIMIT
                                    break
                                # a failed guard or a fault: the block
                                # hands the instruction back to its handler
                                pc = ctx.pc
                        kind, latency, class_index, handler, ins = cold[pc]
                    address, taken = handler(machine, ctx, ins, pc)
                    tally[class_index] += 1
                    k += 1
                    if kind:  # not PLAIN
                        if kind == LOAD:
                            latency = access(core_id, address, False)
                            if latency <= hide:
                                continue
                        elif kind == BRANCH:
                            if not predict(pc, taken):
                                latency += penalty
                        else:  # STORE
                            access(core_id, address, True)
                    if latency > 1:
                        busy = now + latency
                        break
                if reason is not _HEADROOM:
                    break
                retired += k
                k = 0
                iterations += 1
                issuing += 1
                now += 1
                if now > max_cycles:
                    reason = _CYCLE_LIMIT
                    break
        except Exception as exc:  # the faulting instruction is not retired
            reason = _FAULT
            error = exc
        self.compiled_instructions += compiled
        partial = k if reason in (_SIDE_EXIT, _OFF_END, _FAULT) else None
        return (reason, now, iterations, issuing, retired + k, partial,
                busy, error)

    def _fast_forward(self) -> None:
        """Skip ahead to the next cycle where some context is ready."""
        earliest = None
        for core in self.cores:
            ready_at = core.min_ready_time(self.now)
            if ready_at >= 0 and (earliest is None or ready_at < earliest):
                earliest = ready_at
        if earliest is not None:
            if earliest > self.now:
                self.now = earliest
            return
        # No running context anywhere.  Legitimate only if the engine has
        # work it can still dispatch (queued entries + an idle context).
        if self.engine is not None and self.engine.queue:
            if self.machine.idle_contexts():
                return  # dispatch happens at the top of the next iteration
        blocked = [
            ctx.context_id
            for ctx in self.machine.contexts
            if ctx.state is ContextState.BLOCKED
        ]
        raise MachineError(
            f"timing deadlock at cycle {self.now}: no runnable context, "
            f"blocked contexts: {blocked}, "
            f"queued activations: {len(self.engine.queue) if self.engine else 0}"
        )

    # -- results ------------------------------------------------------------------------

    def _publish_metrics(self, energy: float) -> None:
        """Cycle-breakdown gauges for the finished run (last run wins)."""
        registry = self.metrics
        machine = self.machine
        registry.counter("timing.runs", "timed runs completed").inc()
        gauges = {
            "timing.cycles": (self.now, "simulated cycles of the last run"),
            "timing.instructions":
                (machine.instructions_executed, "committed instructions"),
            "timing.main_instructions":
                (machine.main_instructions, "main-context instructions"),
            "timing.support_instructions":
                (machine.support_instructions, "support-thread instructions"),
            "timing.ipc": (
                machine.instructions_executed / self.now if self.now else 0.0,
                "instructions per cycle"),
            "timing.branch_lookups":
                (self.predictor.lookups, "branch-predictor lookups"),
            "timing.branch_mispredicts":
                (self.predictor.mispredicts, "branch mispredictions"),
            "timing.dram_accesses":
                (self.hierarchy.dram_accesses, "DRAM accesses"),
            "timing.energy": (energy, "event-weighted energy proxy"),
            "timing.solo_cycles": (
                self.solo_cycles,
                "simulated cycles the solo run-ahead drove"),
            "timing.solo_instructions": (
                self.solo_instructions,
                "instructions retired in solo run-ahead iterations"),
            "timing.compiled_blocks": (
                self.compiled_blocks,
                "hot blocks the solo run-ahead bound to compiled code"),
            "timing.compile_seconds": (
                self.compile_seconds,
                "host seconds spent binding and compiling hot blocks"),
            "timing.compiled_instructions": (
                self.compiled_instructions,
                "solo instructions retired inside compiled blocks"),
        }
        for name, (value, help_text) in gauges.items():
            registry.gauge(name, help_text).set(value)
        for level, stats in self.hierarchy.level_stats().items():
            for field, value in stats.items():
                registry.gauge(
                    f"timing.cache.{level}.{field}",
                    f"{level} {field} of the last run",
                ).set(value)

    def _result(self) -> TimingResult:
        machine = self.machine
        energy = EnergyModel().energy(
            machine.instructions_executed, self.hierarchy
        )
        if self.metrics is not None:
            self._publish_metrics(energy)
        return TimingResult(
            cycles=self.now,
            instructions=machine.instructions_executed,
            main_instructions=machine.main_instructions,
            support_instructions=machine.support_instructions,
            branch_lookups=self.predictor.lookups,
            branch_mispredicts=self.predictor.mispredicts,
            cache_stats=self.hierarchy.level_stats(),
            dram_accesses=self.hierarchy.dram_accesses,
            coherence_invalidations=self.hierarchy.coherence_invalidations,
            energy=energy,
            engine_summary=self.engine.summary() if self.engine else None,
            output=list(machine.output),
            config_name=self.config.name,
        )
