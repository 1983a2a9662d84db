"""The timing simulator: drives cores cycle-by-cycle until the program halts.

Orchestration per cycle:

1. the DTT engine (if any) dispatches queued support threads onto idle
   contexts — newly dispatched contexts pay the spawn latency;
2. every core issues up to its width from its ready contexts;
3. when *nothing* issued, the clock fast-forwards to the earliest cycle at
   which any running context becomes ready (skipping DRAM-stall dead time
   in one step), with a deadlock check when no context can ever run again.

Until an engine opcode, nothing is dispatchable and the set of RUNNING
contexts is fixed, so two run-aheads drive whole iterations of that loop
without :meth:`SmtCore.cycle` or :meth:`Machine.step`, then reconcile
every counter the loop would have changed (:meth:`TimingSimulator.
_drive_ahead`).  While exactly one context is RUNNING, an iteration is a
pure function of its instruction latencies, and the *solo run-ahead*
(:meth:`TimingSimulator._solo_loop`) runs it, with compiled hot blocks
(:mod:`repro.timing.blocks`) for code it reaches often.  With two or
more RUNNING contexts, the *multi-context run-ahead*
(:meth:`TimingSimulator._multi_body`) runs each core's round-robin scan
inline, and hands a lone ready context to the solo loop until the
others wake.  Both hand the cycle back to the general loop on the
opcodes that touch the DTT engine
(:data:`~repro.machine.machine.ENGINE_OPCODES`);
:meth:`TimingSimulator._run_ahead` is the one place that chooses
between them and the general loop.  Results are identical either way.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.cache.hierarchy import CacheHierarchy
from repro.core.engine import DttEngine
from repro.errors import ExecutionFault, ExecutionLimitExceeded, MachineError
from repro.isa.program import Program
from repro.machine.context import ContextState
from repro.machine.machine import ENGINE_OPCODES, Machine
from repro.timing import blocks
from repro.timing.branch import BranchPredictor
from repro.timing.core import BRANCH, ENTRY, EXIT, LOAD, SmtCore
from repro.timing.params import SystemConfig
from repro.timing.stats import EnergyModel, TimingResult


#: why a run-ahead stopped (see TimingSimulator._drive_ahead)
_HEADROOM = "headroom"
_SIDE_EXIT = "side-exit"
_CYCLE_LIMIT = "cycle-limit"
_OFF_END = "off-end"
_FAULT = "fault"
_WAKE = "wake"
_ENGINE_START = "engine-start"

#: the engine summary fields published as ``engine.<field>`` counters
_ENGINE_COUNTERS = {
    "triggering_stores":
        "dynamic triggering stores that matched a registered spec",
    "same_value_suppressed":
        "triggering stores filtered because the value did not change",
    "triggers_fired": "triggers that survived the same-value filter",
    "duplicates_suppressed":
        "fired triggers suppressed by a pending same-key activation",
    "cancels": "executing activations canceled by a re-trigger",
    "executions_started": "support-thread executions started",
    "executions_completed": "support-thread executions run to completion",
    "overflow_inline_runs":
        "triggers run immediately as a call on queue overflow",
    "clean_consumes": "consume points that skipped the computation entirely",
    "wait_consumes": "consume points that waited for pending executions",
    "unmatched_tstores":
        "dynamic triggering stores matching no registered spec",
}


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
        #: optional MetricsRegistry; the cycle breakdown and the engine's
        #: counts are published into it when the run finishes
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
        #: run-ahead drove (see _solo_body)
        self.solo_cycles = 0
        self.solo_instructions = 0
        #: simulated cycles and instructions of the iterations the
        #: multi-context run-ahead drove (see _multi_body)
        self.multi_cycles = 0
        self.multi_instructions = 0
        #: instructions one iteration can issue machine-wide
        self._total_width = sum(core.params.issue_width
                                for core in self.cores)
        #: PCs of engine opcodes, where no run-ahead starts an iteration
        self._engine_pcs = frozenset(
            pc for pc, ins in enumerate(program.instructions)
            if ins.op in ENGINE_OPCODES)
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
                running = self._run_ahead()
                if running is not None:
                    self._drive_ahead(running)
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

    # -- run-aheads ------------------------------------------------------------------

    def _run_ahead(self):
        """The RUNNING contexts a run-ahead may drive from this iteration
        on, or None to run the iteration on :meth:`SmtCore.cycle`.

        A run-ahead needs at least one RUNNING context, no machine
        observer wanting per-instruction callbacks, and instruction
        headroom for one more full iteration before the dynamic limit:
        the solo context's issue width, or with several RUNNING
        contexts the sum of every core's width.  With several, an
        iteration in which a ready context is about to issue an engine
        opcode stays on :meth:`SmtCore.cycle`, the reference path.

        The engine needs no condition of its own: ``dispatch_pending``
        has just run, so its queue is empty or no context is idle, and
        only an engine opcode — a side exit — can change either, or
        change which contexts are RUNNING.  Every iteration a run-ahead
        drives would have dispatched nothing.

        This is the one place that chooses a run-ahead; patching it to
        return None runs every iteration on :meth:`SmtCore.cycle`.
        """
        machine = self.machine
        if machine._observers:
            return None
        running = [ctx for ctx in machine.contexts
                   if ctx.state is ContextState.RUNNING]
        if not running:
            return None
        headroom = machine.max_instructions - machine.instructions_executed
        if len(running) == 1:
            width = self.cores[running[0].core_id].params.issue_width
            return running if headroom >= width else None
        if headroom < self._total_width:
            return None
        now = self.now
        engine_pcs = self._engine_pcs
        for ctx in running:
            if ctx.busy_until <= now and ctx.pc in engine_pcs:
                return None
        return running

    def _drive_ahead(self, running) -> None:
        """Drive whole iterations of :meth:`run` with the run-ahead for
        ``running``, then reconcile and finish.

        :meth:`_solo_body` drives one RUNNING context and
        :meth:`_multi_body` several.  Both touch architectural state,
        the cache hierarchy, the predictor, the cores' class tallies and
        the contexts' ``busy_until``, and return the rest for this method
        to reconcile::

            (reason, now, iterations, [(context, instructions retired)],
             issuing cycles per core, stop, the exception of a fault or
             None)

        ``stop`` is None after whole iterations, else ``(core, scan
        position, slots used)`` where a side exit or a fault left the
        last iteration unfinished.  After reconciling, a side exit
        finishes that iteration as the general loop would: the core
        resumes its issue scan at the stopping context with the slots
        already used, and later cores run their whole cycle.  A fault or
        a limit re-raises.
        """
        machine = self.machine
        start_now = self.now
        start_instructions = machine.instructions_executed
        solo = len(running) == 1
        body = self._solo_body if solo else self._multi_body
        reason, now, iterations, retired, issuing, stop, error = body(running)

        # -- reconcile ---------------------------------------------------
        cores = self.cores
        for ctx, count in retired:
            machine._retire(ctx, count, count)  # no observers run ahead
            cores[ctx.core_id].instructions_issued += count
        for core, count in zip(cores, issuing):
            core.busy_cycles += count
        self.now = now
        # an unfinished iteration has already rotated the stopping core
        # and every core before it; later cores rotate when it completes
        last = -1 if stop is None else stop[0].core_id
        for core in cores:
            steps = iterations + (core.core_id <= last)
            core._rotation = (core._rotation + steps) % len(core.contexts)

        try:
            if reason is _SIDE_EXIT:
                core, index, used = stop
                issued = core.scan(now, index, used)
                core.busy_cycles += 1  # the stopping context issued
                for later in cores[core.core_id + 1:]:
                    issued += later.cycle(now)
                self._advance(issued)
            elif reason is _CYCLE_LIMIT:
                raise ExecutionLimitExceeded(
                    f"exceeded {self.config.max_cycles} simulated cycles"
                )
            elif reason is _OFF_END or reason is _FAULT:
                # the machine counts a faulting instruction; its core does not
                core, index, _ = stop
                ctx = core.contexts[index]
                machine._retire(ctx, 1, 1)
                if reason is _FAULT:
                    raise error
                raise ExecutionFault(
                    f"context {ctx.context_id} ran off the end of the "
                    f"program (pc={ctx.pc})"
                )
        finally:
            cycles = self.now - start_now
            instructions = machine.instructions_executed - start_instructions
            if solo:
                self.solo_cycles += cycles
                self.solo_instructions += instructions
            else:
                self.multi_cycles += cycles
                self.multi_instructions += instructions

    def _solo_body(self, running):
        """The solo run-ahead: :meth:`_solo_loop` on the one RUNNING
        context until it stops; returns what :meth:`_drive_ahead`
        reconciles."""
        ctx, = running
        core = self.cores[ctx.core_id]
        machine = self.machine
        # largest retired count after which a full-width cycle still fits
        # under the dynamic-instruction limit
        budget = (machine.max_instructions - machine.instructions_executed
                  - core.params.issue_width)
        reason, now, iterations, issuing, retired, k, error = \
            self._solo_loop(ctx, core, self.now, budget, math.inf)
        stop = None
        if reason is _SIDE_EXIT or reason is _OFF_END or reason is _FAULT:
            stop = (core, core.contexts.index(ctx), k)
        counts = [0] * len(self.cores)
        counts[core.core_id] = issuing
        return (reason, now, iterations, [(ctx, retired)], counts, stop,
                error)

    def _solo_loop(self, ctx, core, now, budget, wake):
        """The per-instruction loop of one context running alone.

        With one context ready and nothing to dispatch, an iteration is
        a pure function of per-instruction latencies: the context issues
        up to the width, a latency above 1 ends the cycle, and a stalled
        iteration plus its fast-forward is ``now = max(now + 1, busy)``.
        Other RUNNING contexts may exist only if none is ready before
        cycle ``wake``: each then misses in the scan, and a fast-forward
        stops at ``wake``.

        Runs whole iterations from cycle ``now`` until an engine opcode
        (``_SIDE_EXIT``, leaving the cycle unfinished), the cycle limit,
        cycle ``wake`` (``_WAKE``), a fault, or a retired count above
        ``budget`` at the start of an iteration (``_HEADROOM``).  At a
        block entry it calls the entry's lazily compiled block, which
        advances this loop's own state, or returns None to run the
        instructions here (see :mod:`repro.timing.blocks`).  It updates
        architectural state, the cache hierarchy, the predictor, the
        core's class tally and ``ctx.busy_until``, and returns::

            (reason, now, iterations, issuing cycles, instructions
             retired, instructions of the unfinished cycle, the
             exception of a fault or None)
        """
        machine = self.machine
        hot_blocks = self._hot_blocks.get(core.core_id)
        if hot_blocks is None:
            hot_blocks = self._hot_blocks[core.core_id] = \
                blocks.HotBlocks(self, core)
        table = hot_blocks.table
        hot = hot_blocks.hot
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
        # the last cycle this loop may start: one before ``wake`` or the
        # cycle limit, whichever comes first
        limit = max_cycles if wake > max_cycles else wake - 1
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
                    if now > limit:
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
                        state = hot[pc](ctx, now, busy, k, retired,
                                        iterations, issuing, budget, limit)
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
                            # a failed guard or a fault: the block hands
                            # the instruction back to its handler
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
                if now > limit:
                    reason = _CYCLE_LIMIT
                    break
        except Exception as exc:  # the faulting instruction is not retired
            reason = _FAULT
            error = exc
        if reason is _CYCLE_LIMIT:
            # a stall past ``wake`` ends there: another context is ready
            if now > wake:
                now = wake
            if now <= max_cycles:
                reason = _WAKE
        self.compiled_instructions += compiled
        ctx.busy_until = busy
        return reason, now, iterations, issuing, retired + k, k, error

    def _multi_body(self, running):
        """The inline issue loop of the multi-context run-ahead.

        Runs whole iterations of :meth:`run` with the RUNNING contexts of
        ``running``, as ``SmtCore.cycle`` runs them core by core: each
        core advances its rotation and scans its contexts cyclically from
        there, issuing from every ready one until the width is used or
        ``count`` contexts in a row were not ready, core 0 before core 1,
        so cache and predictor calls keep their order.  An iteration in
        which no context is ready issues nothing and fast-forwards to the
        earliest ``busy_until``.  While exactly one context is ready and
        every other stays busy past the next cycle, the others only miss
        in the scan, so :meth:`_solo_loop` runs that context, compiled
        blocks included, until the earliest wake-up.

        Stops on an engine opcode: mid-cycle (``_SIDE_EXIT``, with the
        cycle unfinished), or before an iteration in which a ready context
        is about to issue one (``_ENGINE_START``: that iteration stays on
        :meth:`SmtCore.cycle`, as :meth:`_run_ahead` decides).  Also stops
        on the cycle limit, a fault, or too little headroom for another
        iteration of every core's width.  Returns what :meth:`_drive_ahead`
        reconciles.
        """
        machine = self.machine
        cores = self.cores
        access = self.hierarchy.access
        predict = self.predictor.predict_and_update
        max_cycles = self.config.max_cycles
        running_state = ContextState.RUNNING
        # per core: its contexts (None where not RUNNING, which stays so
        # until an engine opcode) and its constants
        scans = []
        for core in cores:
            params = core.params
            slots = [ctx if ctx.state is running_state else None
                     for ctx in core.contexts]
            scans.append((core.core_id, slots, len(slots), core._rotation,
                          params.issue_width, params.load_hide_latency,
                          params.mispredict_penalty, core.table,
                          core.class_tally))
        done = dict.fromkeys(running, 0)  # instructions retired per context
        issuing = [0] * len(cores)
        budget = (machine.max_instructions - machine.instructions_executed
                  - self._total_width)
        engine_pcs = self._engine_pcs
        now = self.now
        iterations = retired = 0
        reason = _HEADROOM
        stop = error = None
        scan = index = issued = None
        try:
            while retired <= budget:
                # the ready contexts, and the earliest wake-up of the rest
                ready = None
                ready_count = 0
                wake = math.inf
                for ctx in running:
                    busy = ctx.busy_until
                    if busy <= now:
                        ready = ctx
                        ready_count += 1
                        if ctx.pc in engine_pcs:
                            reason = _ENGINE_START
                    elif busy < wake:
                        wake = busy
                if reason is _ENGINE_START:
                    break  # this iteration stays on SmtCore.cycle
                if not ready_count:
                    # nothing issues: the fast-forward jumps to the wake-up
                    iterations += 1
                    now = wake if wake > now + 1 else now + 1
                    if now > max_cycles:
                        reason = _CYCLE_LIMIT
                        break
                    continue
                if ready_count == 1 and wake > now + 1:
                    core = cores[ready.core_id]
                    (reason, now, steps, cycles, solo, used,
                     error) = self._solo_loop(ready, core, now,
                                              budget - retired, wake)
                    iterations += steps
                    issuing[core.core_id] += cycles
                    retired += solo
                    done[ready] += solo
                    if reason is _WAKE:
                        reason = _HEADROOM
                        continue
                    if reason is _HEADROOM or reason is _CYCLE_LIMIT:
                        break
                    stop = (core, core.contexts.index(ready), used)
                    return (reason, now, iterations, list(done.items()),
                            issuing, stop, error)
                cycle_issued = 0
                for scan in scans:
                    (core_id, slots, count, rotation, width, hide, penalty,
                     table, tally) = scan
                    index = (rotation + iterations + 1) % count
                    issued = misses = 0
                    while issued < width and misses < count:
                        ctx = slots[index]
                        if ctx is not None and ctx.busy_until <= now:
                            pc = ctx.pc
                            try:
                                kind, latency, class_index, handler, ins = \
                                    table[pc]
                            except IndexError:
                                reason = _OFF_END
                                break
                            if kind >= EXIT:
                                reason = _SIDE_EXIT
                                break
                            address, taken = handler(machine, ctx, ins, pc)
                            tally[class_index] += 1
                            done[ctx] += 1
                            issued += 1
                            misses = 0
                            if kind:  # not PLAIN
                                if kind == LOAD:
                                    latency = access(core_id, address, False)
                                    if latency <= hide:
                                        latency = 1
                                elif kind == BRANCH:
                                    if not predict(pc, taken):
                                        latency += penalty
                                else:  # STORE
                                    access(core_id, address, True)
                            if latency > 1:
                                ctx.busy_until = now + latency
                        else:
                            misses += 1
                        index += 1
                        if index == count:
                            index = 0
                    if reason is not _HEADROOM:
                        break
                    if issued:
                        issuing[core_id] += 1
                        cycle_issued += issued
                if reason is not _HEADROOM:
                    break
                retired += cycle_issued
                iterations += 1
                now += 1
                if now > max_cycles:
                    reason = _CYCLE_LIMIT
                    break
        except Exception as exc:  # the faulting instruction is not retired
            reason = _FAULT
            error = exc
        if reason is _SIDE_EXIT or reason is _OFF_END or reason is _FAULT:
            stop = (cores[scan[0]], index, issued)
        return (reason, now, iterations, list(done.items()), issuing, stop,
                error)

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
        """Cycle-breakdown gauges for the finished run (last run wins),
        plus its engine's counts, added to those of earlier runs."""
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
            "timing.multi_cycles": (
                self.multi_cycles,
                "simulated cycles the multi-context run-ahead drove"),
            "timing.multi_instructions": (
                self.multi_instructions,
                "instructions retired in multi-context run-ahead iterations"),
            "timing.compiled_blocks": (
                self.compiled_blocks,
                "hot blocks the run-aheads bound to compiled code"),
            "timing.compile_seconds": (
                self.compile_seconds,
                "host seconds spent binding and compiling hot blocks"),
            "timing.compiled_instructions": (
                self.compiled_instructions,
                "run-ahead instructions retired inside compiled blocks"),
        }
        for name, (value, help_text) in gauges.items():
            registry.gauge(name, help_text).set(value)
        for level, stats in self.hierarchy.level_stats().items():
            for field, value in stats.items():
                registry.gauge(
                    f"timing.cache.{level}.{field}",
                    f"{level} {field} of the last run",
                ).set(value)
        engine = self.engine
        if engine is None:
            return
        summary = engine.summary()
        for field, help_text in _ENGINE_COUNTERS.items():
            registry.counter(f"engine.{field}", help_text).inc(summary[field])
        registry.gauge("queue.depth",
                       "thread-queue entries pending at the end of the last "
                       "run").set(len(engine.queue))
        registry.gauge("queue.depth_high_water",
                       "peak thread-queue depth of any run").set_max(
                           summary["queue_depth_high_water"])
        latency = registry.histogram(
            "engine.dispatch_latency_cycles",
            "cycles between trigger enqueue and dispatch onto a context",
            buckets=(1, 2, 4, 8, 16, 32, 64, 128, 256, 1024, 4096))
        for cycles in engine.dispatch_latencies:
            latency.observe(cycles)

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
