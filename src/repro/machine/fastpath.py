"""Closure-thunk fallback of :meth:`repro.machine.machine.Machine.run`.

``build_thunks(machine)`` lowers the machine's (already finalized) program
into one closure per PC.  A thunk takes the executing context, applies the
instruction's complete architectural effect, and returns the next PC.
``Machine.run`` runs compiled blocks (:mod:`repro.machine.superblock`)
at their entries and falls back to the thunks for the instructions a
block hands back, boundary opcodes, and uncompiled PCs, where its batch
loop is::

    pc = table[pc](ctx)

with no per-instruction operand decode, opcode dispatch, attribute
traversal, or counter updates (the loop reconciles counters per chunk).

The contract with ``Machine.run``:

* a return value ``>= 0`` is the next PC;
* ``<= -2`` encodes ``-2 - pc`` and is returned, without running
  anything, by the *boundary* thunks of the
  :data:`~repro.machine.semantics.ENGINE_OPCODES`, which may touch the DTT
  engine (``tst``/``tstx``/``tcheck``/``treturn``) or context state
  (``halt``).  The loop ends its chunk, reconciles the counters, and
  executes that instruction with ``Machine.step``, so nested synchronous
  execution and the dynamic-instruction limit see exact counters.

A thunk never touches ``ctx.pc``; the loop syncs it when the chunk ends
or a thunk faults.

The thunk factories are generated from the same per-opcode templates as
the step handlers (:mod:`repro.machine.semantics`), so a thunk applies the
same expression, coercions, and memory guard, and falls back to the same
checked ``Memory`` methods for any address that is not an in-range exact
``int``.

**Observed tables.**  When machine observers are attached, the thunks
are composed for them (:func:`~repro.machine.semantics.thunk_factories`).
An observer that declares a :class:`~repro.machine.events.Shadow` has
its transfer generated inline: the factory binds the observer's
``shadow_state()`` objects, and per-instruction ``cells`` (a site
counter, say) live in the thunk's closure, set on its first execution.
Its hooks are never called from a thunk.  Every other observer gets the
hooks ``step()`` would call: ``on_load`` / ``on_store`` / ``on_branch``
with the same arguments, then ``on_instruction``.  Hooks are bound when
the table is built, and a thunk holds only the hooks an observer
actually overrides, so :class:`MachineObserver`'s no-ops are never
called.  An instruction that neither calls a hook nor runs a transfer
(a ``jmp`` under the redundancy profilers, say) gets the plain thunk.
Boundary opcodes run under ``Machine.step``, which calls every
observer's hooks itself.  ``Machine.add_observer`` / ``remove_observer``
drop the compiled table.  When every observer declares a shadow, the
compiled blocks run the same transfers
(:class:`~repro.machine.superblock.ShadowBlock`), so the thunks serve
only what blocks do not run.

The memory thunks' checked fallback runs through the machine.  An
observed table binds a ``weakref.proxy`` of the machine, never the
machine itself: the machine owns its table, and a table that owned the
machine back would keep each finished profiled machine (and its memory)
alive until a full garbage collection; an observed block table is
cleared when its machine is freed, for the same reason
(:func:`~repro.machine.superblock.install`).  Unobserved tables keep the
plain reference; on the ``verify`` sweep, freeing those machines on their
last reference instead measured a higher peak RSS.
"""

from __future__ import annotations

import weakref
from typing import Callable, List, Tuple

from repro.machine.context import Context
from repro.machine.events import MachineObserver
from repro.machine.semantics import (ENGINE_OPCODES, HOOKS, shadow_names,
                                     thunk_factories)

Thunk = Callable[[Context], int]


def _t_boundary(pc):
    """Hand the instruction to ``Machine.step``: end the chunk at ``pc``."""
    boundary = -2 - pc

    def thunk(ctx):
        return boundary

    return thunk


def _hooks(observers, name: str) -> Tuple[Callable, ...]:
    """The bound ``name`` hooks of the observers that override it."""
    base = getattr(MachineObserver, name)
    bound = (getattr(observer, name) for observer in observers)
    return tuple(hook for hook in bound
                 if getattr(hook, "__func__", None) is not base)


def build_thunks(machine) -> List[Thunk]:
    """Compile ``machine.program`` into one next-PC thunk per PC.

    The thunks bind the machine's memory (including its words dict), the
    output buffer, instruction operands, the attached observers' hooks
    and their shadow state at compile time; ``Machine`` keeps those
    objects identity-stable across ``restore()`` and drops the compiled
    table when rewiring (``attach_engine``, ``add_observer``,
    ``remove_observer``).
    """
    observers = machine._observers
    ref = weakref.proxy(machine) if observers else machine
    mem = machine.memory
    env = (ref, mem, mem.limit, mem._words.get, mem._words,
           machine.output.append)
    declared = [observer for observer in observers
                if observer.shadow is not None]
    hooks = {name: _hooks([observer for observer in observers
                           if observer.shadow is None], name)
             for name in HOOKS}
    names = frozenset(name for name in HOOKS if hooks[name])
    shadows = tuple(observer.shadow for observer in declared)
    observed_env = env + tuple(hooks[name] for name in HOOKS
                               if name in names)
    for observer in declared:
        state = observer.shadow_state()
        observed_env += tuple(state[name]
                              for name in shadow_names(observer.shadow))
    plain = thunk_factories()
    observed = thunk_factories(names, shadows) if names or shadows else {}
    table: List[Thunk] = []
    for pc, i in enumerate(machine.program.instructions):
        op = i.op
        if op in ENGINE_OPCODES:
            # run by step() so engine and state semantics are shared
            table.append(_t_boundary(pc))
        elif op in observed:
            table.append(observed[op](i, pc, *observed_env))
        else:
            table.append(plain[op](i, pc, *env))
    return table
