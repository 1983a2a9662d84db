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

**State.**  The paper's three structures hold every fact once: the
:class:`~repro.core.registry.ThreadRegistry`, the
:class:`~repro.core.queue.ThreadQueue` (with its enqueue, duplicate and
overflow counters) and the :class:`~repro.core.status.ThreadStatusTable`,
whose rows are the engine's only live counts (plus
``unmatched_tstores``).  Each in-flight activation is one record, found
by its dedupe key and by the context it runs on; ``_start`` and ``_stop``
are the only places that count, record and forget one.  Metrics are
published from :meth:`DttEngine.summary` once a timed run finishes
(``TimingSimulator._publish_metrics``); the engine itself meters nothing
but the dispatch latencies that summary cannot hold.

Support threads must be idempotent (cancel-and-restart re-runs them) and,
unless cascading is enabled, their triggering stores behave as plain
stores.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional

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


class _Activation:
    """One in-flight support-thread execution.

    A dispatched activation runs on a support context of its own; an
    inline one runs call-style on the context that started it and also
    holds where that context resumes (``resume_pc``), whether the resume
    re-executes a ``tcheck`` (``retcheck``) and the registers it restores
    (``saved_regs``, None for a dispatched activation).
    """

    __slots__ = ("key", "thread", "activation_id", "ctx", "resume_pc",
                 "retcheck", "saved_regs")

    def __init__(self, key, thread, activation_id, ctx, resume_pc=None,
                 retcheck=False, saved_regs=None):
        self.key = key
        self.thread = thread
        self.activation_id = activation_id
        self.ctx = ctx
        self.resume_pc = resume_pc
        self.retcheck = retcheck
        self.saved_regs = saved_regs


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
        # in-flight activations by dedupe key, and per context id the
        # stack of those running on it (inline runs push onto it)
        self._running: Dict[Hashable, _Activation] = {}
        self._on_ctx: Dict[int, List[_Activation]] = {}
        # contexts whose next tcheck is a re-entry after an inline run
        self._resumed_tcheck: set = set()
        self._sequence = 0
        #: monotone activation-id counter; ids are minted per *fired*
        #: trigger (post same-value filter), so duplicate-suppressed
        #: triggers have ids too — the lineage can name what they were
        #: absorbed into.  Ids start at 1; 0 means "never assigned".
        self._next_activation = 0
        #: attached trace sink (None = untraced; see attach_trace)
        self._trace = None
        #: cached may-trigger index over the registry (rebuilt whenever the
        #: registry version or the configured granularity moves)
        self._prefilter = None
        #: callable returning the current simulated cycle; set by the
        #: timing simulator so events and dispatch latency are in cycles
        self.cycle_source = None
        #: cycles each queued activation waited between enqueue and
        #: dispatch onto a context (kept only when a cycle source is wired)
        self.dispatch_latencies: List[int] = []

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
        t = self._trace
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
        if not prefilter.may_match(pc, address):
            self.unmatched_tstores += 1
            return
        specs = self.registry.matches(pc, address, granularity)
        if not specs:
            self.unmatched_tstores += 1
            return
        for spec in specs:
            row = self.status[spec.thread]
            row.triggering_stores += 1
            if t is not None:
                t.record(T.TSTORE, spec.thread, address,
                         f"{old_value!r}->{new_value!r}", pc=pc,
                         cycle=self._now())
            if self.config.same_value_filter and old_value == new_value:
                row.same_value_suppressed += 1
                if t is not None:
                    t.record(T.SUPPRESSED, spec.thread, address, pc=pc,
                             cycle=self._now())
                continue
            row.triggers_fired += 1
            self._next_activation += 1
            activation_id = self._next_activation
            if t is not None:
                t.record(T.FIRED, spec.thread, address,
                         f"{old_value!r}->{new_value!r}", pc=pc,
                         activation_id=activation_id, cycle=self._now())
            key = self._dedupe_key(spec, address)
            victim = self._running.get(key)
            if victim is not None:
                if victim.saved_regs is None:
                    # cancel-and-restart: the execution may have read data
                    # that just changed
                    self._stop(victim, T.CANCELED, cause_id=activation_id)
                    victim.ctx.finish_support()
                else:
                    # the activation is running inline on some context; it
                    # cannot be canceled mid-call — suppress as a duplicate
                    # (it reads current memory, which already holds new_value)
                    row.duplicates_suppressed += 1
                    if t is not None:
                        t.record(T.DUPLICATE, spec.thread, address,
                                 "absorbed by executing inline activation",
                                 pc=pc, activation_id=activation_id,
                                 cause_id=victim.activation_id,
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
                # ctx.pc already points at the instruction after the store
                self._start(ctx, key, entry, resume_pc=ctx.pc)
            elif t is not None:
                t.record(T.ENQUEUED, spec.thread, address,
                         f"pos={len(self.queue)}",
                         activation_id=activation_id, cycle=self._now())

    def _is_support_execution(self, ctx) -> bool:
        return (ctx.role is ContextRole.SUPPORT
                or bool(self._on_ctx.get(ctx.context_id)))

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
                if self._trace is not None:
                    self._trace.record(T.CONSUME_CLEAN, name,
                                       cycle=self._now())
            return
        if not resumed:
            row.consumes += 1
            row.wait_consumes += 1
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
        self._start(ctx, key, entry, resume_pc=ctx.pc - 1, retcheck=True)

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
                self._start(ctx, key, entry, resume_pc=ctx.pc - 1,
                            retcheck=True)
                return
        if self.status[name].executing:
            raise DttError(
                f"thread {name!r} still executing after a synchronous "
                "consume point (engine state corrupted)"
            )

    # -- execution mechanics ------------------------------------------------------------

    def _start(self, ctx: Context, key, entry: QueueEntry,
               resume_pc: Optional[int] = None, retcheck: bool = False) -> None:
        """Start one activation on ``ctx``: counts it, records it by key
        and by context, and emits its DISPATCHED event.

        Without ``resume_pc`` the idle support context ``ctx`` takes the
        activation.  With it the activation runs inline: ``ctx`` saves its
        registers and jumps into the thread body call-style; its
        ``treturn`` restores them and resumes at ``resume_pc``
        (re-executing a ``tcheck`` there when ``retcheck``).
        """
        row = self.status[entry.thread]
        row.executions_started += 1
        row.executing += 1
        cid = ctx.context_id
        inline = resume_pc is not None
        activation = _Activation(key, entry.thread, entry.activation_id, ctx,
                                 resume_pc, retcheck,
                                 list(ctx.regs) if inline else None)
        self._running[key] = activation
        self._on_ctx.setdefault(cid, []).append(activation)
        if self._trace is not None:
            self._trace.record(T.DISPATCHED, entry.thread, entry.address,
                               f"inline on context {cid}" if inline
                               else f"context {cid}" if self.deferred
                               else f"context {cid} (sync)",
                               activation_id=entry.activation_id,
                               cycle=self._now())
        entry_pc = self._entry_pcs[entry.thread]
        if not inline:
            ctx.start_support(entry_pc, entry.thread, entry.address,
                              entry.new_value, entry.old_value)
            return
        ctx.regs[TRIGGER_ADDR_REG] = entry.address
        ctx.regs[TRIGGER_VALUE_REG] = entry.new_value
        ctx.regs[TRIGGER_OLD_VALUE_REG] = entry.old_value
        ctx.pc = entry_pc

    def _stop(self, activation: _Activation, kind: str,
              cause_id: Optional[int] = None) -> None:
        """End one in-flight activation as ``kind`` (COMPLETED or
        CANCELED): counts it, forgets it and emits the event.

        ``cause_id`` names the fresh activation whose trigger forced a
        cancel; the trace records it so lineage can answer "what killed
        this execution".
        """
        row = self.status[activation.thread]
        if kind == T.CANCELED:
            row.cancels += 1
        else:
            row.executions_completed += 1
        row.executing -= 1
        cid = activation.ctx.context_id
        self._running.pop(activation.key, None)
        stack = self._on_ctx[cid]
        stack.remove(activation)
        if not stack:
            del self._on_ctx[cid]
        if self._trace is not None:
            self._trace.record(kind, activation.thread,
                               detail=f"context {cid}"
                               if kind == T.CANCELED else "",
                               activation_id=activation.activation_id,
                               cause_id=cause_id, cycle=self._now())

    def _run_synchronous(self, support_ctx: Context, key, entry: QueueEntry) -> None:
        """Run one activation to completion on an idle support context.

        When ``Machine.run``'s batch loop handed the consuming ``tcheck``
        to ``step()``, the support thread runs on that batch loop too;
        under a bare ``step()`` loop (the debugger, the differential
        oracles) it is single-stepped, so that loop stays a pure step
        reference.  Both retire the same instructions with the same
        effects, counters, faults and engine events.
        """
        self._start(support_ctx, key, entry)
        machine = self.machine
        if machine._batching:
            machine._drive(support_ctx)
        else:
            while support_ctx.state is ContextState.RUNNING:
                machine.step(support_ctx)

    def dispatch_pending(self, on_dispatch=None) -> int:
        """Deferred mode: start queued activations on idle contexts.

        Called by the timing driver once per cycle.  ``on_dispatch`` (if
        given) is invoked with each newly started context so the driver can
        charge spawn latency.  Returns the number of activations dispatched.
        """
        if not self.queue:
            return 0  # fast exit: skip the idle-context scan every cycle
        dispatched = 0
        idle = self.machine.idle_contexts()
        while idle and self.queue:
            key, entry = self.queue.pop()
            support_ctx = idle.pop()
            if self.cycle_source is not None:
                self.dispatch_latencies.append(
                    max(self.cycle_source() - entry.enqueue_cycle, 0))
            self._start(support_ctx, key, entry)
            if on_dispatch is not None:
                on_dispatch(support_ctx)
            dispatched += 1
        return dispatched

    # -- thread completion ---------------------------------------------------------------

    def on_treturn(self, ctx) -> None:
        """Hook called by the machine for every executed ``treturn``."""
        stack = self._on_ctx.get(ctx.context_id)
        if not stack:
            raise DttError(
                f"treturn on context {ctx.context_id} with no support thread "
                "and no inline frame"
            )
        activation = stack[-1]
        self._stop(activation, T.COMPLETED)
        if activation.saved_regs is not None:
            ctx.regs[:] = activation.saved_regs
            ctx.pc = activation.resume_pc
            if activation.retcheck:
                self._resumed_tcheck.add(ctx.context_id)
            return
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
