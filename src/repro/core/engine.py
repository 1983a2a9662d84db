"""The DTT engine: gives ``tst``/``tcheck``/``treturn`` their semantics.

The engine attaches to a :class:`~repro.machine.machine.Machine` and
implements the paper's execution model:

**Triggering store** (``on_triggering_store``).  The store's PC/address is
matched against the :class:`~repro.core.registry.ThreadRegistry`.  For each
matching spec: if the store did not change the value and the same-value
filter is on, nothing happens (*this is the redundancy elimination*).
Otherwise the trigger fires: a pending same-key activation suppresses it
as a duplicate; a same-key activation currently *executing* is canceled
and restarted (it may have read data that just changed); otherwise the
activation enters the thread queue — or, if the queue is full, runs
immediately as an ordinary call on the triggering context.

**Consume point** (``on_tcheck``).  If the thread is quiescent — nothing
pending, nothing executing — the main thread falls straight through: the
entire computation was skipped.  Otherwise the main thread waits.

**Two driving modes.**  In *synchronous* mode (``deferred=False``, used by
functional runs and profiling) pending activations execute to completion
at the consume point.  In *deferred* mode (``deferred=True``, used by the
timing simulator) triggered activations are dispatched onto idle hardware
contexts by :meth:`dispatch_pending` (called once per simulated cycle) and
``tcheck`` blocks the main context until quiescence — which is where the
concurrency benefit comes from.

**Serialized fallback.**  On a machine with a single context (experiment
E5c) there is no spare context; pending activations run *inline* on the
main context via a call-like PC redirection, with the register file saved
and restored around the body.  The skip benefit survives; the concurrency
benefit does not.

Support threads must be idempotent (cancel-and-restart re-runs them) and,
unless cascading is enabled, their triggering stores behave as plain
stores.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Tuple

from repro.core import trace as T
from repro.core.config import DttConfig
from repro.core.queue import EnqueueResult, QueueEntry, ThreadQueue
from repro.core.registry import ThreadRegistry
from repro.core.status import ThreadStatusTable
from repro.errors import CascadeError, DttError, RegistryError
from repro.isa.registers import (
    TRIGGER_ADDR_REG,
    TRIGGER_OLD_VALUE_REG,
    TRIGGER_VALUE_REG,
)
from repro.machine.context import Context, ContextRole, ContextState


class _EngineInstruments:
    """The engine's registered metric instruments (one bundle per engine).

    Held behind one attribute so every hot-path metrics update costs a
    single ``is not None`` check when metrics are not attached.
    """

    __slots__ = (
        "tstores", "same_value", "fired", "duplicates", "cancels",
        "started", "completed", "overflow_runs", "clean_consumes",
        "wait_consumes", "unmatched", "queue_depth", "queue_high_water",
        "dispatch_latency",
    )

    def __init__(self, registry):
        counter = registry.counter
        self.tstores = counter(
            "engine.triggering_stores",
            "dynamic triggering stores that matched a registered spec")
        self.same_value = counter(
            "engine.same_value_suppressed",
            "triggering stores filtered because the value did not change")
        self.fired = counter(
            "engine.triggers_fired",
            "triggers that survived the same-value filter")
        self.duplicates = counter(
            "engine.duplicates_suppressed",
            "fired triggers suppressed by a pending same-key activation")
        self.cancels = counter(
            "engine.cancels", "executing activations canceled by a re-trigger")
        self.started = counter(
            "engine.executions_started", "support-thread executions started")
        self.completed = counter(
            "engine.executions_completed",
            "support-thread executions run to completion")
        self.overflow_runs = counter(
            "engine.overflow_inline_runs",
            "triggers run immediately as a call on queue overflow")
        self.clean_consumes = counter(
            "engine.clean_consumes",
            "consume points that skipped the computation entirely")
        self.wait_consumes = counter(
            "engine.wait_consumes",
            "consume points that waited for pending executions")
        self.unmatched = counter(
            "engine.unmatched_tstores",
            "dynamic triggering stores matching no registered spec")
        self.queue_depth = registry.gauge(
            "queue.depth", "thread-queue entries currently pending")
        self.queue_high_water = registry.gauge(
            "queue.depth_high_water", "peak thread-queue depth this run")
        self.dispatch_latency = registry.histogram(
            "engine.dispatch_latency_cycles",
            "cycles between trigger enqueue and dispatch onto a context",
            buckets=(1, 2, 4, 8, 16, 32, 64, 128, 256, 1024, 4096))


class _InlineFrame:
    """Bookkeeping for one inline (call-like) support-thread execution."""

    __slots__ = ("key", "thread", "resume_pc", "retcheck", "saved_regs",
                 "activation_id")

    def __init__(self, key, thread, resume_pc, retcheck, saved_regs,
                 activation_id=0):
        self.key = key
        self.thread = thread
        self.resume_pc = resume_pc
        self.retcheck = retcheck
        self.saved_regs = saved_regs
        self.activation_id = activation_id


class DttEngine:
    """One engine drives one machine for one run."""

    def __init__(
        self,
        registry: ThreadRegistry,
        config: Optional[DttConfig] = None,
        deferred: bool = False,
    ):
        self.registry = registry
        self.config = config or DttConfig()
        self.deferred = deferred
        self.machine = None
        self.queue = ThreadQueue(self.config.queue_capacity)
        self.status = ThreadStatusTable(registry.thread_names)
        #: dynamic triggering stores that matched no registered spec
        self.unmatched_tstores = 0
        self._entry_pcs: Dict[str, int] = {}
        self._tids: List[str] = []
        # key -> ("ctx" | "inline", Context) for in-flight activations
        self._executing: Dict[Hashable, Tuple[str, Context]] = {}
        # context_id -> key, for support-role executions
        self._ctx_exec: Dict[int, Hashable] = {}
        # context_id -> stack of inline frames
        self._inline: Dict[int, List[_InlineFrame]] = {}
        # contexts whose next tcheck is a re-entry after an inline run
        self._resumed_tcheck: set = set()
        self._sequence = 0
        #: monotone activation-id counter; ids are minted per *fired*
        #: trigger (post same-value filter), so duplicate-suppressed
        #: triggers have ids too — the lineage can name what they were
        #: absorbed into.  Ids start at 1; 0 means "never assigned".
        self._next_activation = 0
        # context_id -> activation id, for support-role executions
        self._ctx_activation: Dict[int, int] = {}
        #: attached metrics registry (None = unmetered; see attach_metrics)
        self.metrics = None
        self._m: Optional[_EngineInstruments] = None
        #: attached trace sink (None = untraced; see attach_trace)
        self._trace = None
        #: cached may-trigger index over the registry (rebuilt whenever the
        #: registry version or the configured granularity moves)
        self._prefilter = None
        #: callable returning the current simulated cycle; set by the
        #: timing simulator so dispatch latency can be metered in cycles
        self.cycle_source = None

    # -- wiring ------------------------------------------------------------------

    def bind(self, machine) -> None:
        """Attach to a machine; validates specs against the program."""
        if self.machine is not None:
            raise DttError("engine is already bound; use one engine per run")
        program = machine.program
        for spec in self.registry.specs:
            if spec.thread not in program.threads:
                raise RegistryError(
                    f"trigger spec names thread {spec.thread!r}, which the "
                    f"program does not declare (has: {list(program.threads)})"
                )
        self._tids = list(program.threads)
        self._entry_pcs = {
            name: program.thread_entry_pc(name) for name in program.threads
        }
        self.machine = machine

    def attach_metrics(self, registry) -> None:
        """Meter this engine on a :class:`~repro.obs.metrics.MetricsRegistry`.

        Idempotent for the same registry; attaching a second, different
        registry replaces the first.  Unattached engines skip every
        metrics update (one ``is None`` test per hook).
        """
        if registry is self.metrics:
            return
        self.metrics = registry
        self._m = _EngineInstruments(registry)

    def attach_trace(self, trace) -> None:
        """Attach an :class:`~repro.core.trace.EngineTrace` sink.

        One sink per engine (a second attach replaces the first);
        untraced engines skip every emission with one ``is None`` test.
        """
        self._trace = trace

    @property
    def activations_minted(self) -> int:
        """How many activation ids this engine has assigned so far."""
        return self._next_activation

    def _mint_activation(self) -> int:
        self._next_activation += 1
        return self._next_activation

    def _now(self) -> Optional[int]:
        """The current simulated cycle, when a cycle source is wired."""
        return self.cycle_source() if self.cycle_source is not None else None

    def _thread_name(self, tid: int) -> str:
        if not 0 <= tid < len(self._tids):
            raise DttError(
                f"tcheck references thread id {tid}; program declares "
                f"{len(self._tids)} thread(s)"
            )
        return self._tids[tid]

    def _dedupe_key(self, spec, address: int) -> Hashable:
        per_address = spec.per_address_dedupe
        if per_address is None:
            per_address = self.config.per_address_dedupe_default
        return (spec.thread, address) if per_address else spec.thread

    def is_quiescent(self, thread: str) -> bool:
        """True when a thread has nothing pending and nothing executing."""
        return self.status[thread].executing == 0 and not self.queue.has_pending(
            thread
        )

    # -- triggering stores -----------------------------------------------------------

    def on_triggering_store(self, ctx, pc, address, old_value, new_value) -> None:
        """Hook called by the machine for every executed ``tst``/``tstx``."""
        if self._is_support_execution(ctx):
            if not self.config.allow_cascading:
                if self.config.strict_cascading:
                    raise CascadeError(
                        f"support thread issued a triggering store at pc {pc} "
                        "with cascading disabled (strict mode)"
                    )
                return  # behaves as a plain store
        m = self._m
        t = self._trace
        if t is not None and not t.enabled:
            t = None  # disabled sink: skip building event details entirely
        # Prefilter: one set-membership test (plus range probes only when
        # address watches exist) decides the common can-never-match case
        # without walking the registry.  Staleness is two int compares.
        granularity = self.config.granularity
        prefilter = self._prefilter
        if (prefilter is None
                or prefilter.version != self.registry.version
                or prefilter.granularity != granularity):
            prefilter = self.registry.build_prefilter(granularity)
            self._prefilter = prefilter
        if pc not in prefilter.store_pcs:
            hit = False
            for lo, hi in prefilter.ranges:
                if lo <= address < hi:
                    hit = True
                    break
            if not hit:
                self.unmatched_tstores += 1
                if m is not None:
                    m.unmatched.inc()
                return
        specs = self.registry.matches(pc, address, granularity)
        if not specs:
            self.unmatched_tstores += 1
            if m is not None:
                m.unmatched.inc()
            return
        for spec in specs:
            row = self.status[spec.thread]
            row.triggering_stores += 1
            if m is not None:
                m.tstores.inc()
            if t is not None:
                t.record(T.TSTORE, spec.thread, address,
                         f"{old_value!r}->{new_value!r}", pc=pc,
                         cycle=self._now())
            if self.config.same_value_filter and old_value == new_value:
                row.same_value_suppressed += 1
                if m is not None:
                    m.same_value.inc()
                if t is not None:
                    t.record(T.SUPPRESSED, spec.thread, address, pc=pc,
                             cycle=self._now())
                continue
            row.triggers_fired += 1
            if m is not None:
                m.fired.inc()
            activation_id = self._mint_activation()
            if t is not None:
                t.record(T.FIRED, spec.thread, address,
                         f"{old_value!r}->{new_value!r}", pc=pc,
                         activation_id=activation_id, cycle=self._now())
            key = self._dedupe_key(spec, address)
            in_flight = self._executing.get(key)
            if in_flight is not None:
                kind, victim = in_flight
                if kind == "ctx":
                    self._cancel(key, victim, cause_id=activation_id)
                else:
                    # the activation is running inline on some context; it
                    # cannot be canceled mid-call — suppress as a duplicate
                    # (it reads current memory, which already holds new_value)
                    row.duplicates_suppressed += 1
                    if m is not None:
                        m.duplicates.inc()
                    if t is not None:
                        t.record(T.DUPLICATE, spec.thread, address,
                                 "absorbed by executing inline activation",
                                 pc=pc, activation_id=activation_id,
                                 cause_id=self._inline_activation(victim, key),
                                 cycle=self._now())
                    continue
            self._sequence += 1
            entry = QueueEntry(spec.thread, address, new_value, old_value,
                               self._sequence, activation_id)
            if self.cycle_source is not None:
                entry.enqueue_cycle = self.cycle_source()
            result = self.queue.try_enqueue(key, entry)
            if result is EnqueueResult.DUPLICATE:
                row.duplicates_suppressed += 1
                if m is not None:
                    m.duplicates.inc()
                if t is not None:
                    pending = self.queue.entry_for(key)
                    t.record(T.DUPLICATE, spec.thread, address,
                             "absorbed by pending activation", pc=pc,
                             activation_id=activation_id,
                             cause_id=pending.activation_id
                             if pending is not None else None,
                             cycle=self._now())
            elif result is EnqueueResult.OVERFLOW:
                row.overflow_inline_runs += 1
                if m is not None:
                    m.overflow_runs.inc()
                # ctx.pc already points at the instruction after the store
                self._start_inline(ctx, key, entry, resume_pc=ctx.pc,
                                   retcheck=False)
            else:
                if t is not None:
                    t.record(T.ENQUEUED, spec.thread, address,
                             f"pos={len(self.queue)}",
                             activation_id=activation_id,
                             cycle=self._now())
                if m is not None:
                    depth = len(self.queue)
                    m.queue_depth.set(depth)
                    m.queue_high_water.set_max(depth)

    def _inline_activation(self, ctx, key) -> Optional[int]:
        """The activation id of the inline frame executing ``key``."""
        for frame in self._inline.get(ctx.context_id, ()):
            if frame.key == key:
                return frame.activation_id
        return None

    def _cancel(self, key: Hashable, victim: Context,
                cause_id: Optional[int] = None) -> None:
        """Cancel-and-restart: abort an executing activation.

        ``cause_id`` names the fresh activation whose trigger forced the
        cancel; the trace records it so lineage can answer "what killed
        this execution".
        """
        row = self.status[victim.thread_name]
        row.cancels += 1
        row.executing -= 1
        if self._m is not None:
            self._m.cancels.inc()
        victim_activation = self._ctx_activation.pop(victim.context_id, None)
        if self._trace is not None:
            self._trace.record(T.CANCELED, victim.thread_name,
                               detail=f"context {victim.context_id}",
                               activation_id=victim_activation,
                               cause_id=cause_id, cycle=self._now())
        self._executing.pop(key, None)
        self._ctx_exec.pop(victim.context_id, None)
        victim.finish_support()

    def _is_support_execution(self, ctx) -> bool:
        if ctx.role is ContextRole.SUPPORT:
            return True
        frames = self._inline.get(ctx.context_id)
        return bool(frames)

    # -- consume points -------------------------------------------------------------------

    def on_tcheck(self, ctx, tid: int) -> None:
        """Hook called by the machine for every executed ``tcheck``."""
        name = self._thread_name(tid)
        row = self.status[name]
        resumed = ctx.context_id in self._resumed_tcheck
        self._resumed_tcheck.discard(ctx.context_id)
        if self.is_quiescent(name):
            if not resumed:
                row.consumes += 1
                row.clean_consumes += 1
                if self._m is not None:
                    self._m.clean_consumes.inc()
                if self._trace is not None:
                    self._trace.record(T.CONSUME_CLEAN, name,
                                       cycle=self._now())
            return
        if not resumed:
            row.consumes += 1
            row.wait_consumes += 1
            if self._m is not None:
                self._m.wait_consumes.inc()
            if self._trace is not None:
                self._trace.record(T.CONSUME_WAIT, name, cycle=self._now())
        if self.deferred:
            self._tcheck_deferred(ctx, tid, name)
        else:
            self._tcheck_synchronous(ctx, name)

    def _tcheck_deferred(self, ctx, tid: int, name: str) -> None:
        if len(self.machine.contexts) > 1:
            ctx.block_on(tid)
            return
        # serialized fallback: no spare context exists; run one pending
        # activation inline and re-execute the tcheck afterwards
        popped = self.queue.pop_for_thread(name)
        if popped is None:
            raise DttError(
                f"thread {name!r} reported executing on a single-context "
                "machine outside an inline frame (engine state corrupted)"
            )
        key, entry = popped
        self._start_inline(ctx, key, entry, resume_pc=ctx.pc - 1, retcheck=True)

    def _tcheck_synchronous(self, ctx, name: str) -> None:
        while True:
            popped = self.queue.pop_for_thread(name)
            if popped is None:
                break
            key, entry = popped
            idle = self.machine.idle_contexts()
            if idle:
                self._run_synchronous(idle[0], key, entry)
            else:
                # single-context machine: inline-call, tcheck re-executes
                self._start_inline(ctx, key, entry, resume_pc=ctx.pc - 1,
                                   retcheck=True)
                return
        if self.status[name].executing:
            raise DttError(
                f"thread {name!r} still executing after a synchronous "
                "consume point (engine state corrupted)"
            )

    # -- execution mechanics ------------------------------------------------------------

    def _run_synchronous(self, support_ctx: Context, key, entry: QueueEntry) -> None:
        """Run one activation to completion on an idle support context.

        When ``Machine.run``'s batch loop handed the consuming ``tcheck``
        to ``step()``, the support thread runs on that batch loop too;
        under a bare ``step()`` loop (the debugger, the differential
        oracles) it is single-stepped, so that loop stays a pure step
        reference.  Both retire the same instructions with the same
        effects, counters, faults and engine events.
        """
        row = self.status[entry.thread]
        row.executions_started += 1
        row.executing += 1
        if self._m is not None:
            self._m.started.inc()
        self._executing[key] = ("ctx", support_ctx)
        self._ctx_exec[support_ctx.context_id] = key
        self._ctx_activation[support_ctx.context_id] = entry.activation_id
        if self._trace is not None:
            self._trace.record(T.DISPATCHED, entry.thread, entry.address,
                               f"context {support_ctx.context_id} (sync)",
                               activation_id=entry.activation_id,
                               cycle=self._now())
        support_ctx.start_support(
            self._entry_pcs[entry.thread],
            entry.thread,
            entry.address,
            entry.new_value,
            entry.old_value,
        )
        machine = self.machine
        if machine._batching:
            machine._drive(support_ctx)
        else:
            while support_ctx.state is ContextState.RUNNING:
                machine.step(support_ctx)

    def _start_inline(self, ctx, key, entry: QueueEntry, resume_pc: int,
                      retcheck: bool) -> None:
        """Redirect ``ctx`` into the thread body, call-style."""
        row = self.status[entry.thread]
        row.executions_started += 1
        row.executing += 1
        if self._m is not None:
            self._m.started.inc()
        self._executing[key] = ("inline", ctx)
        frame = _InlineFrame(key, entry.thread, resume_pc, retcheck,
                             list(ctx.regs), entry.activation_id)
        self._inline.setdefault(ctx.context_id, []).append(frame)
        if self._trace is not None:
            self._trace.record(T.DISPATCHED, entry.thread, entry.address,
                               f"inline on context {ctx.context_id}",
                               activation_id=entry.activation_id,
                               cycle=self._now())
        ctx.regs[TRIGGER_ADDR_REG] = entry.address
        ctx.regs[TRIGGER_VALUE_REG] = entry.new_value
        ctx.regs[TRIGGER_OLD_VALUE_REG] = entry.old_value
        ctx.pc = self._entry_pcs[entry.thread]

    def dispatch_pending(self, on_dispatch=None) -> int:
        """Deferred mode: start queued activations on idle contexts.

        Called by the timing driver once per cycle.  ``on_dispatch`` (if
        given) is invoked with each newly started context so the driver can
        charge spawn latency.  Returns the number of activations dispatched.
        """
        if not self.queue:
            return 0  # fast exit: skip the idle-context scan every cycle
        dispatched = 0
        m = self._m
        idle = self.machine.idle_contexts()
        while idle and self.queue:
            key, entry = self.queue.pop()
            support_ctx = idle.pop()
            row = self.status[entry.thread]
            row.executions_started += 1
            row.executing += 1
            if m is not None:
                m.started.inc()
                m.queue_depth.set(len(self.queue))
                if self.cycle_source is not None:
                    m.dispatch_latency.observe(
                        max(self.cycle_source() - entry.enqueue_cycle, 0))
            if self._trace is not None:
                self._trace.record(T.DISPATCHED, entry.thread, entry.address,
                                   f"context {support_ctx.context_id}",
                                   activation_id=entry.activation_id,
                                   cycle=self._now())
            self._executing[key] = ("ctx", support_ctx)
            self._ctx_exec[support_ctx.context_id] = key
            self._ctx_activation[support_ctx.context_id] = entry.activation_id
            support_ctx.start_support(
                self._entry_pcs[entry.thread],
                entry.thread,
                entry.address,
                entry.new_value,
                entry.old_value,
            )
            if on_dispatch is not None:
                on_dispatch(support_ctx)
            dispatched += 1
        return dispatched

    # -- thread completion ---------------------------------------------------------------

    def on_treturn(self, ctx) -> None:
        """Hook called by the machine for every executed ``treturn``."""
        frames = self._inline.get(ctx.context_id)
        if frames:
            frame = frames.pop()
            if not frames:
                del self._inline[ctx.context_id]
            row = self.status[frame.thread]
            row.executions_completed += 1
            row.executing -= 1
            if self._m is not None:
                self._m.completed.inc()
            if self._trace is not None:
                self._trace.record(T.COMPLETED, frame.thread,
                                   activation_id=frame.activation_id,
                                   cycle=self._now())
            self._executing.pop(frame.key, None)
            ctx.regs[:] = frame.saved_regs
            ctx.pc = frame.resume_pc
            if frame.retcheck:
                self._resumed_tcheck.add(ctx.context_id)
            return
        if ctx.role is not ContextRole.SUPPORT:
            raise DttError(
                f"treturn on context {ctx.context_id} with no support thread "
                "and no inline frame"
            )
        key = self._ctx_exec.pop(ctx.context_id)
        self._executing.pop(key, None)
        row = self.status[ctx.thread_name]
        row.executions_completed += 1
        row.executing -= 1
        if self._m is not None:
            self._m.completed.inc()
        activation_id = self._ctx_activation.pop(ctx.context_id, None)
        if self._trace is not None:
            self._trace.record(T.COMPLETED, ctx.thread_name,
                               activation_id=activation_id,
                               cycle=self._now())
        ctx.finish_support()
        self._unblock_waiters()

    def _unblock_waiters(self) -> None:
        for waiter in self.machine.contexts:
            if waiter.state is ContextState.BLOCKED:
                name = self._thread_name(waiter.waiting_on)
                if self.is_quiescent(name):
                    waiter.unblock()

    # -- reporting ------------------------------------------------------------------------

    def summary(self) -> Dict[str, int]:
        """Suite-level counters plus queue stats."""
        summary = self.status.summary()
        summary["unmatched_tstores"] = self.unmatched_tstores
        summary["queue_enqueued"] = self.queue.enqueued
        summary["queue_duplicates"] = self.queue.duplicates_suppressed
        summary["queue_overflows"] = self.queue.overflows
        summary["queue_depth_high_water"] = self.queue.depth_high_water
        return summary

    def __repr__(self) -> str:
        mode = "deferred" if self.deferred else "synchronous"
        return (
            f"DttEngine({len(self.registry)} specs, {mode}, "
            f"{self.queue.pending_count()} pending)"
        )
