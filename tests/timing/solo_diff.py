"""Differential oracle for the timing simulator's run-aheads.

:func:`run_variants` runs one simulation three ways: as shipped; with
every block compiling at its first reach (``tests.conftest.compile_at``)
("compiled"); and with ``TimingSimulator._run_ahead`` patched to never
choose a run-ahead, so every iteration takes ``SmtCore.cycle``
("stepped").  The solo and multi-context run-aheads and the compiled
blocks are cycle-exact only if the three snapshots are equal: every
``TimingResult`` field, the machine's counters and architectural state,
each core's issue counters and rotation, and each context's
``busy_until`` — after a clean halt or after a fault or limit.  Every
snapshot also asserts the run's conservation laws
(:func:`assert_conserved`).
"""

import collections
import math

import pytest

from repro.machine.superblock import (EXIT_KINDS, GUARD, HEADROOM,
                                      lazy_table, loop_nest)
from repro.timing import blocks
from repro.timing.params import SystemConfig, named_config
from repro.timing.stats import TimingResult
from repro.timing.system import TimingSimulator

from tests.conftest import compile_at

#: every named configuration, plus two SMT cores, so that a core after
#: the solo context's core also has a rotation to keep
CONFIGS = ("smt2", "cmp2", "serial", "smt4", "cmp2x2")


def make_config(name, **overrides):
    """A configuration of :data:`CONFIGS` by name."""
    if name == "cmp2x2":
        return SystemConfig(name, num_cores=2, contexts_per_core=2,
                            **overrides)
    return named_config(name, **overrides)


def _norm(value):
    """NaN-safe comparison key (NaN != NaN would hide agreement)."""
    if isinstance(value, float) and value != value:
        return "NaN"
    return value


def assert_conserved(sim, error=None):
    """The counting laws every timed run keeps, whichever path drove it.

    - after a clean halt, the cores' ``instructions_issued`` and the
      main plus support instructions each sum to
      ``instructions_executed``; a fault counts the failing instruction
      in ``instructions_executed`` and the context's role but not in its
      core, and the instruction limit in ``instructions_executed`` only;
    - per core, ``busy_cycles`` (cycles that issued) is at most the
      cycles simulated, and at least the issued instructions over the
      issue width, the cycle a fault or limit left unfinished included;
    - the machine retires at most every core's width per cycle, that
      unfinished cycle included;
    - the run-aheads drove at most every cycle;
    - a DTT run's engine keeps :func:`assert_engine_conserved`.
    """
    machine = sim.machine
    cycles = sim.now
    executed = machine.instructions_executed
    issued = sum(core.instructions_issued for core in sim.cores)
    roles = machine.main_instructions + machine.support_instructions
    if error is None:
        assert issued == executed == roles, (issued, executed, roles)
    else:
        assert issued <= roles <= executed <= issued + 1, (
            issued, roles, executed, error)
    # a fault or limit leaves one cycle unfinished: its issues count,
    # but not yet as a busy cycle or a simulated one
    unfinished = error is not None
    for core in sim.cores:
        width = core.params.issue_width
        assert core.busy_cycles <= cycles, (core, core.busy_cycles, cycles)
        assert (core.instructions_issued
                <= (core.busy_cycles + unfinished) * width), (
            core, core.busy_cycles)
    widths = sum(core.params.issue_width for core in sim.cores)
    assert executed <= (cycles + unfinished) * widths, (executed, cycles)
    assert sim.solo_cycles + sim.multi_cycles <= cycles, (
        sim.solo_cycles, sim.multi_cycles, cycles)
    if sim.engine is not None:
        assert_engine_conserved(sim.engine)


def assert_engine_conserved(engine, synchronous=False):
    """The counting laws of a DTT engine's status rows and summary.

    Per status row:

    - ``triggering_stores = same_value_suppressed + triggers_fired``: a
      store that matched the thread's spec either left the value
      unchanged under the same-value filter or fired;
    - ``consumes = clean_consumes + wait_consumes``: a counted consume
      point found the thread quiescent or waited (the ``tcheck`` an
      inline run re-executes counts as neither);
    - ``executions_started = executions_completed + cancels +
      executing``: starting an activation adds one to ``executing``, and
      only its ``treturn`` or its cancel takes that one away again.

    Per summary:

    - ``triggers_fired = duplicates_suppressed + queue_enqueued +
      queue_overflows``: a fired trigger is absorbed by a pending or an
      inline-running activation of its key, enters the queue, or finds
      the queue full (a cancel only clears the way for the enqueue);
    - ``overflow_inline_runs = queue_overflows``: every overflow runs
      inline on the triggering context at once;
    - with ``synchronous`` (a synchronous run that halted cleanly),
      ``executions_started = executions_completed + cancels``: every
      consume point runs its thread's activations to their ``treturn``
      before the main thread goes on, so none is left executing.
    """
    for row in engine.status:
        assert row.executing >= 0, row
        assert (row.triggering_stores
                == row.same_value_suppressed + row.triggers_fired), row
        assert row.consumes == row.clean_consumes + row.wait_consumes, row
        assert (row.executions_started == row.executions_completed
                + row.cancels + row.executing), row
    summary = engine.summary()
    assert summary["triggers_fired"] == (
        summary["duplicates_suppressed"] + summary["queue_enqueued"]
        + summary["queue_overflows"]), summary
    assert summary["overflow_inline_runs"] == summary["queue_overflows"], (
        summary)
    if synchronous:
        assert summary["executions_started"] == (
            summary["executions_completed"] + summary["cancels"]), summary


def snapshot(sim, error=None):
    """Everything a timed run leaves behind, as a comparable dict, once
    :func:`assert_conserved` holds."""
    assert_conserved(sim, error)
    machine = sim.machine
    result = sim._result()
    return {
        "error": error,
        "result": {slot: getattr(result, slot)
                   for slot in TimingResult.__slots__ if slot != "output"},
        "output": [_norm(v) for v in machine.output],
        "now": sim.now,
        "machine": (machine.instructions_executed,
                    machine.main_instructions,
                    machine.support_instructions),
        "memory": {k: _norm(v) for k, v in machine.memory.snapshot().items()},
        "cores": [
            {"issued": core.instructions_issued,
             "busy_cycles": core.busy_cycles,
             "class_counts": core.class_counts,
             "rotation": core._rotation}
            for core in sim.cores
        ],
        "contexts": [
            {"pc": ctx.pc, "state": ctx.state.name, "role": ctx.role.name,
             "busy_until": ctx.busy_until,
             "instruction_count": ctx.instruction_count,
             "regs": [_norm(v) for v in ctx.regs]}
            for ctx in machine.contexts
        ],
    }


def run_once(make_sim, hook=None):
    """Build a simulator, optionally ``hook(sim)`` it, run, snapshot."""
    sim = make_sim()
    if hook is not None:
        hook(sim)
    error = None
    try:
        sim.run()
    except Exception as exc:  # noqa: BLE001 - fault identity is the point
        error = (type(exc).__name__, str(exc))
    return sim, snapshot(sim, error)


def run_variants(make_sim, hook=None):
    """``{variant: (sim, snapshot)}`` for "shipped", "compiled" and
    "stepped" (see the module docstring)."""
    runs = {"shipped": run_once(make_sim, hook)}
    with pytest.MonkeyPatch.context() as patch:
        compile_at(patch, 1)
        runs["compiled"] = run_once(make_sim, hook)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(TimingSimulator, "_run_ahead", lambda self: None)
        runs["stepped"] = run_once(make_sim, hook)
    return runs


def assert_solo_exact(make_sim, hook=None, label="", variant="shipped"):
    """Run all three ways and require identical snapshots; returns the
    ``variant`` simulator and its snapshot for further checks."""
    runs = run_variants(make_sim, hook)
    stepped = runs["stepped"][1]
    for name in ("shipped", "compiled"):
        assert runs[name][1] == stepped, f"{name} run diverged {label}"
    return runs[variant]


class _Exit(int):
    """An exit kind that knows where its exit-table row leaves: ``inner``
    when inside an inner loop of the block.  Being an ``int``, it runs
    the block's epilogue and the run-ahead unchanged."""


def _tag_exits(function, length, loops):
    """Rebind the exit table of ``function``, a block of ``length``
    positions with inner ``loops``, with :class:`_Exit` kinds."""
    rows = []
    for kind, d, pc in function.__defaults__[0]:
        # hand-backs and headroom leave at position d, the rest after it;
        # an exit at the block's end leaves after every loop
        position = d if kind >= GUARD or kind == HEADROOM else d - 1
        tagged = _Exit(kind)
        tagged.inner = d < length and any(
            head <= position < end for head, end in loops.items())
        rows.append((tagged, d, pc))
    function.__defaults__ = (tuple(rows),) + function.__defaults__[1:]


def record_exits(sim):
    """Hook: count, on ``sim.exits``, how each compiled block call ended.

    Keys are :data:`~repro.machine.superblock.EXIT_KINDS`, plus
    ``"back-edge"`` for a call that looped, retiring more than one block
    length, and ``"wake"`` for a cycle-limit exit at the wake-up of
    another context (the call's limit below the configuration's).  An
    exit from inside an inner loop of the block counts as
    ``"<key>@inner"`` instead, so each plain key is an exit from outside
    every inner loop.
    """
    sim.exits = exits = collections.Counter()
    instructions = sim.machine.program.instructions
    max_cycles = sim.config.max_cycles
    for core in sim.cores:
        hot = sim._hot_blocks[core.core_id] = blocks.HotBlocks(sim, core)

        def traced_compile(entry, length, is_loop,
                           compile_block=hot.compile):
            function = compile_block(entry, length, is_loop)
            _tag_exits(function, length,
                       loop_nest(instructions, entry, length) or {})

            def traced(ctx, now, busy, k, retired, *rest):
                state = function(ctx, now, busy, k, retired, *rest)
                if state is not None:
                    kind = state[-1]
                    keys = [EXIT_KINDS[kind]]
                    if EXIT_KINDS[kind] == "cycle-limit" \
                            and rest[-1] < max_cycles:
                        keys.append("wake")
                    if state[3] + state[2] - retired - k > length:
                        keys.append("back-edge")
                    for key in keys:
                        if kind.inner and key != "back-edge":
                            key += "@inner"
                        exits[key] += 1
                return state
            return traced

        hot.hot = lazy_table(sim.machine.program, True, traced_compile)


def record_multi_exits(sim):
    """Hook: collect, in the set ``sim.multi_exits``, how each call of
    the multi-context run-ahead ended and which paths it took: each
    ``_multi_body`` call with two or more RUNNING contexts (the calls
    that drive one context alone are solo, and not collected).

    An exit that leaves the iteration unfinished is named
    ``<reason>@core<c>``, plus ``side-exit@position<p>`` for a side exit
    that came mid-cycle (after other issues) at the context in position
    ``p`` of its core, and ``<reason>@second`` when the stopping context
    was not the first its core scanned in that cycle.  ``cycle-limit``,
    ``headroom`` and ``engine-start`` (the next iteration starts on an
    engine opcode) end whole iterations.  ``stall`` marks a call on one
    core with an iteration that issued nothing, and ``wake`` a handoff to
    the solo loop until another context's wake-up.
    """
    sim.multi_exits = exits = set()
    multi_body, solo_loop = sim._multi_body, sim._solo_loop

    def traced_multi(running):
        rotations = [core._rotation for core in sim.cores]
        state = multi_body(running)
        if len(running) == 1:
            return state
        reason, _, iterations, _, issuing, stop, _ = state
        exits.add(reason)
        if stop is not None:
            core, position, used = stop
            exits.add(f"{reason}@core{core.core_id}")
            if reason == "side-exit" and used:
                exits.add(f"{reason}@position{position}")
            first = ((rotations[core.core_id] + iterations + 1)
                     % len(core.contexts))
            if position != first:
                exits.add(f"{reason}@second")
        if len(sim.cores) == 1 and iterations > issuing[0]:
            exits.add("stall")
        return state

    def traced_solo(ctx, core, now, budget, wake):
        if wake != math.inf:
            exits.add("wake")
        return solo_loop(ctx, core, now, budget, wake)

    sim._multi_body = traced_multi
    sim._solo_loop = traced_solo
