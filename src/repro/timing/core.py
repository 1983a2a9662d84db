"""Per-core SMT issue model.

Each simulated cycle, a core issues up to ``issue_width`` instructions,
round-robin across its ready contexts (RUNNING and not busy).  Issuing an
instruction executes it functionally via the machine and charges:

* its functional-unit latency (long ops make the context busy);
* for loads, the cache-hierarchy latency — L1 hits are treated as fully
  pipelined (no stall), misses stall the context for the full latency;
* for stores, cache state is updated (fills, coherence invalidations) but
  the context does not stall — an idealized store buffer;
* for conditional branches, the misprediction penalty when the gshare
  predictor disagrees with the architectural outcome.

Instruction fetch is ideal: no instruction pays a fetch latency.

The round-robin pointer advances every cycle so no context is permanently
favored — the ICOUNT-lite fairness that an SMT fetch policy provides.

Per-instruction costs come from a per-PC issue table built once per core
(:func:`issue_table`): the issue kind, static latency, and op class of
every instruction, plus its pre-decoded handler, so neither the general
issue path nor the run-aheads in :mod:`repro.timing.system` look up an
opcode at run time.

What issuing costs is written once, as the per-kind template
:data:`ISSUE`, and every run-ahead copy is generated from it (by
:func:`issue_lines`, or folded by :func:`folded_latency` in compiled
blocks).  :meth:`SmtCore.scan` and :meth:`SmtCore._issue` stay
hand-written: the timing oracle checks every run-ahead against them.
"""

from __future__ import annotations

import functools
from typing import Dict, List

from repro.cache.hierarchy import CacheHierarchy
from repro.isa.instructions import OpClass
from repro.machine.context import Context, ContextState
from repro.machine.machine import ENGINE_OPCODES
from repro.timing.branch import BranchPredictor
from repro.timing.params import CoreParams

#: issue kinds of the per-PC table (:attr:`SmtCore.table`): what an
#: instruction costs beyond its static latency.  Kinds at or above
#: ``EXIT`` are the :data:`~repro.machine.machine.ENGINE_OPCODES`, on
#: which the run-aheads hand the cycle back to the general scan.
#: ``ENTRY`` marks a hot-block entry; it appears only in the solo
#: run-ahead's copy of the table (:class:`repro.timing.blocks.HotBlocks`).
PLAIN, LOAD, BRANCH, STORE, EXIT, EXIT_STORE, ENTRY = range(7)

#: The timing effect of issuing one instruction, after its handler ran:
#: per issue kind, ``(access, rule)`` — the access to the hierarchy or
#: the predictor, then the rule that turns the row's static ``latency``
#: into the instruction's.  A latency for which :data:`ENDS_CYCLE` holds
#: ends the cycle and keeps the context busy until ``now + latency``.
#: The source reads the run-ahead's locals ``access``, ``predict``,
#: ``core_id``, ``address``, ``pc``, ``taken``, ``hide`` and ``penalty``.
ISSUE = {
    PLAIN: ("", ""),
    LOAD: ("latency = access(core_id, address, False)",
           "if latency <= hide: latency = 1"),
    BRANCH: ("correct = predict(pc, taken)",
             "if not correct: latency += penalty"),
    STORE: ("access(core_id, address, True)", ""),
}
ENDS_CYCLE = "latency > 1"


def issue_lines(stall: str) -> List[str]:
    """:data:`ISSUE` as the statements an interpreted run-ahead runs after
    the handler of a non-engine row of ``kind``: the class tally, the
    kind's access and rule, then ``stall`` if the latency ends the cycle."""
    lines = ["tally[class_index] += 1", "if kind:"]
    test = "if"
    for kind in (LOAD, BRANCH, STORE):
        lines.append(f"    {test} kind == {kind}:" if kind != STORE
                     else "    else:")
        lines += [f"        {line}" for line in ISSUE[kind] if line]
        test = "elif"
    return lines + [f"if {ENDS_CYCLE}: {stall}"]


@functools.lru_cache(maxsize=None)
def folded_latency(kind: int, latency: int, hide: int, penalty: int,
                   correct: bool = True) -> int:
    """What :data:`ISSUE`'s rule makes of ``kind``'s ``latency`` when
    every input is known at emit time: the latency if it ends the cycle,
    else 0.  ``correct`` is a branch's prediction outcome."""
    names = dict(latency=latency, hide=hide, penalty=penalty,
                 correct=correct)
    exec(f"{ISSUE[kind][1]}\nends = {ENDS_CYCLE}", names)
    return names["latency"] if names["ends"] else 0


#: op classes in ``class_counts`` order
OP_CLASSES = tuple(OpClass)
_CLASS_INDEX = {cls: index for index, cls in enumerate(OP_CLASSES)}


def issue_table(decoded, params: CoreParams) -> List[tuple]:
    """One ``(kind, static latency, class index, handler, instruction)``
    row per PC of a machine's pre-decoded program."""
    latency = params.latency
    table = []
    for handler, instruction in decoded:
        op_class = instruction.op_class
        if op_class is OpClass.LOAD:
            kind = LOAD
        elif op_class is OpClass.BRANCH:
            kind = BRANCH
        elif op_class is OpClass.STORE or op_class is OpClass.TSTORE:
            kind = STORE
        else:
            kind = PLAIN
        if instruction.op in ENGINE_OPCODES:
            kind = EXIT_STORE if kind == STORE else EXIT
        table.append((kind, latency[op_class], _CLASS_INDEX[op_class],
                      handler, instruction))
    return table


class SmtCore:
    """Issue logic for one core's SMT contexts."""

    def __init__(
        self,
        core_id: int,
        contexts: List[Context],
        params: CoreParams,
        hierarchy: CacheHierarchy,
        predictor: BranchPredictor,
        machine,
    ):
        if not contexts:
            raise ValueError("a core needs at least one context")
        self.core_id = core_id
        self.contexts = contexts
        self.params = params
        self.hierarchy = hierarchy
        self.predictor = predictor
        self.machine = machine
        self._rotation = 0
        #: per-PC issue table, built once from the machine's decode
        self.table = issue_table(machine._decoded, params)
        # accounting
        self.instructions_issued = 0
        self.busy_cycles = 0
        #: per-class issue counts, indexed like :data:`OP_CLASSES`
        self.class_tally = [0] * len(OP_CLASSES)

    @property
    def class_counts(self) -> Dict[OpClass, int]:
        """Instructions issued per functional-unit class."""
        return dict(zip(OP_CLASSES, self.class_tally))

    def cycle(self, now: int) -> int:
        """Simulate one cycle; returns instructions issued.

        Issue slots are handed out one at a time, round-robin across the
        ready contexts (starting from a rotating offset), so concurrent
        contexts genuinely *share* the width within a cycle instead of the
        first context hogging all slots.
        """
        self._rotation = (self._rotation + 1) % len(self.contexts)
        issued = self.scan(now, self._rotation, 0)
        if issued:
            self.busy_cycles += 1
        return issued

    def scan(self, now: int, index: int, issued: int) -> int:
        """The round-robin issue order: a cyclic scan over the contexts.

        Starting at context ``index`` with ``issued`` slots already used,
        issue from every ready context in turn, and stop when the width is
        used or ``count`` consecutive contexts were not ready.  Readiness
        changes only when something issues, so ``count`` misses in a row
        mean no context can issue again this cycle.  Returns the slots
        used, ``issued`` included.  A run-ahead resumes this same scan at
        the stopping context when it meets an engine opcode mid-cycle; the
        multi-context run-ahead runs it inline.
        """
        contexts = self.contexts
        count = len(contexts)
        width = self.params.issue_width
        running = ContextState.RUNNING
        misses = 0
        while issued < width and misses < count:
            ctx = contexts[index]
            if ctx.state is running and ctx.busy_until <= now:
                self._issue(ctx, now)
                issued += 1
                misses = 0
            else:
                misses += 1
            index += 1
            if index == count:
                index = 0
        return issued

    def _issue(self, ctx: Context, now: int) -> None:
        pc = ctx.pc
        _, address, taken = self.machine.step(ctx)
        kind, latency, class_index, _, _ = self.table[pc]
        self.class_tally[class_index] += 1
        self.instructions_issued += 1
        if kind == LOAD:
            cycles = self.hierarchy.access(self.core_id, address, False)
            latency = cycles if cycles > self.params.load_hide_latency else 1
        elif kind == STORE or kind == EXIT_STORE:
            self.hierarchy.access(self.core_id, address, True)
        elif kind == BRANCH:
            if not self.predictor.predict_and_update(pc, taken):
                latency += self.params.mispredict_penalty
        if latency > 1:
            ctx.busy_until = now + latency

    def min_ready_time(self, now: int) -> int:
        """Earliest future cycle at which a running context becomes ready.

        Used by the driver to fast-forward over long stalls.  Returns
        ``now`` if something is ready now, and ``-1`` if nothing on this
        core is running.
        """
        best = None
        for ctx in self.contexts:
            if ctx.state is ContextState.RUNNING:
                ready_at = ctx.busy_until if ctx.busy_until > now else now
                if best is None or ready_at < best:
                    best = ready_at
        return best if best is not None else -1

    def __repr__(self) -> str:
        return (
            f"SmtCore(id={self.core_id}, contexts={len(self.contexts)}, "
            f"issued={self.instructions_issued})"
        )
