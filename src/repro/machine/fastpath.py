"""Closure-thunk fallback of :meth:`repro.machine.machine.Machine.run`.

``build_thunks(machine)`` lowers the machine's (already finalized) program
into one closure per PC.  A thunk takes the executing context, applies the
instruction's complete architectural effect, and returns the next PC.
``Machine.run`` runs compiled superblocks (:mod:`repro.machine.superblock`)
at their entries and falls back to the thunks for guard failures,
boundary opcodes, and uncompiled PCs, where its batch loop is::

    pc = table[pc](ctx)

with no per-instruction operand decode, opcode dispatch, attribute
traversal, or counter updates (the loop reconciles counters per chunk).

The contract with ``Machine.run``:

* a return value ``>= 0`` is the next PC;
* ``<= -2`` encodes ``-2 - pc`` and is returned, without running
  anything, by the *boundary* thunks of the
  :data:`~repro.machine.machine.ENGINE_OPCODES`, which may touch the DTT
  engine (``tst``/``tstx``/``tcheck``/``treturn``) or context state
  (``halt``).  The loop ends its chunk, reconciles the counters, and
  executes that instruction with ``Machine.step``, so nested synchronous
  execution and the dynamic-instruction limit see exact counters.

A thunk never touches ``ctx.pc``; the loop syncs it when the chunk ends
or a thunk faults.

Semantics are inherited, not re-implemented: ALU thunks call the same
function objects the single-step handlers use (``machine._ALU_*_FNS``),
and the memory thunks fall back to the original handler for any address
that is not an in-range exact ``int`` — so faults, bool/float address
rejection, and int-subclass handling match the slow path bit for bit.

**Observed tables.**  When machine observers are attached, each thunk
also calls the hooks ``step()`` would: ``on_load`` / ``on_store`` /
``on_branch`` with the same arguments, then ``on_instruction``.  Hooks
are bound when the table is built, and a thunk holds only the hooks an
observer actually overrides, so :class:`MachineObserver`'s no-ops are
never called.  Boundary opcodes run under ``Machine.step``, which
notifies every observer itself, and the memory slow paths go through the
original handlers, which notify on their own; only ``on_instruction`` is
added after those.  ``Machine.add_observer`` / ``remove_observer`` drop
the compiled table.

An observed table binds a ``weakref.proxy`` of the machine, never the
machine itself: the machine owns its table, and a table that owned the
machine back would keep each finished profiled machine (and its memory)
alive until a full garbage collection.  Unobserved tables keep the plain
reference; on the ``verify`` sweep, whose DTT machines sit in engine
reference cycles anyway, the proxy measured a higher peak RSS.
"""

from __future__ import annotations

import operator
import weakref
from typing import Callable, List, Tuple

from repro.errors import ExecutionFault
from repro.machine.context import Context
from repro.machine.events import MachineObserver
from repro.machine.machine import (
    _ALU_RR_FNS,
    _ALU_RRI_FNS,
    _ALU_RRR_FNS,
    _BRANCH_RL_FNS,
    _BRANCH_RRL_FNS,
    ENGINE_OPCODES,
    _h_ld,
    _h_ldx,
    _h_st,
    _h_stx,
)

Thunk = Callable[[Context], int]


#: branch conditions as C-level functions (same truth table as the
#: handler lambdas for every Number operand)
_BRANCH_OPS = {
    "beq": operator.eq,
    "bne": operator.ne,
    "blt": operator.lt,
    "ble": operator.le,
    "bgt": operator.gt,
    "bge": operator.ge,
}


def _t_li(i, nxt):
    a, b = i.a, i.b

    def thunk(ctx):
        ctx.regs[a] = b
        return nxt

    return thunk


def _t_mov(i, nxt):
    a, b = i.a, i.b

    def thunk(ctx):
        regs = ctx.regs
        regs[a] = regs[b]
        return nxt

    return thunk


def _t_alu_rrr(fn, i, nxt):
    a, b, c = i.a, i.b, i.c

    def thunk(ctx):
        regs = ctx.regs
        regs[a] = fn(regs[b], regs[c])
        return nxt

    return thunk


def _t_alu_rri(fn, i, nxt):
    a, b, c = i.a, i.b, i.c

    def thunk(ctx):
        regs = ctx.regs
        regs[a] = fn(regs[b], c)
        return nxt

    return thunk


def _t_alu_rr(fn, i, nxt):
    a, b = i.a, i.b

    def thunk(ctx):
        regs = ctx.regs
        regs[a] = fn(regs[b])
        return nxt

    return thunk


def _t_ld(machine, mem, words, limit, i, pc, nxt):
    a, b, c = i.a, i.b, i.c
    get = words.get

    def thunk(ctx):
        regs = ctx.regs
        address = regs[b] + c
        if address.__class__ is int and 0 <= address < limit:
            mem.load_count += 1
            regs[a] = get(address, 0)
        else:
            _h_ld(machine, ctx, i, pc)
        return nxt

    return thunk


def _t_ldx(machine, mem, words, limit, i, pc, nxt):
    a, b, c = i.a, i.b, i.c
    get = words.get

    def thunk(ctx):
        regs = ctx.regs
        address = regs[b] + regs[c]
        if address.__class__ is int and 0 <= address < limit:
            mem.load_count += 1
            regs[a] = get(address, 0)
        else:
            _h_ldx(machine, ctx, i, pc)
        return nxt

    return thunk


def _t_st(machine, mem, words, limit, i, pc, nxt):
    a, b, c = i.a, i.b, i.c

    def thunk(ctx):
        regs = ctx.regs
        address = regs[b] + c
        if address.__class__ is int and 0 <= address < limit:
            mem.store_count += 1
            words[address] = regs[a]
        else:
            _h_st(machine, ctx, i, pc)
        return nxt

    return thunk


def _t_stx(machine, mem, words, limit, i, pc, nxt):
    a, b, c = i.a, i.b, i.c

    def thunk(ctx):
        regs = ctx.regs
        address = regs[b] + regs[c]
        if address.__class__ is int and 0 <= address < limit:
            mem.store_count += 1
            words[address] = regs[a]
        else:
            _h_stx(machine, ctx, i, pc)
        return nxt

    return thunk


def _t_branch_rrl(fn, i, nxt):
    a, b, target = i.a, i.b, i.target

    def thunk(ctx):
        regs = ctx.regs
        return target if fn(regs[a], regs[b]) else nxt

    return thunk


def _t_beqz(i, nxt):
    a, target = i.a, i.target

    def thunk(ctx):
        return target if ctx.regs[a] == 0 else nxt

    return thunk


def _t_bnez(i, nxt):
    a, target = i.a, i.target

    def thunk(ctx):
        return target if ctx.regs[a] != 0 else nxt

    return thunk


def _t_jmp(i):
    target = i.target

    def thunk(ctx):
        return target

    return thunk


def _t_call(i, pc):
    target, return_pc = i.target, pc + 1

    def thunk(ctx):
        stack = ctx.call_stack
        stack.append(return_pc)
        if len(stack) > 10_000:
            raise ExecutionFault("call stack overflow (runaway recursion?)")
        return target

    return thunk


def _t_ret(pc):
    def thunk(ctx):
        stack = ctx.call_stack
        if not stack:
            raise ExecutionFault(f"ret with empty call stack at pc {pc}")
        return stack.pop()

    return thunk


def _t_out(out_append, i, nxt):
    a = i.a

    def thunk(ctx):
        out_append(ctx.regs[a])
        return nxt

    return thunk


def _t_nop(nxt):
    def thunk(ctx):
        return nxt

    return thunk


def _t_boundary(pc):
    """Hand the instruction to ``Machine.step``: end the chunk at ``pc``."""
    boundary = -2 - pc

    def thunk(ctx):
        return boundary

    return thunk


# -- observed thunks ---------------------------------------------------------------

def _hooks(observers, name: str) -> Tuple[Callable, ...]:
    """The bound ``name`` hooks of the observers that override it."""
    base = getattr(MachineObserver, name)
    bound = (getattr(observer, name) for observer in observers)
    return tuple(hook for hook in bound
                 if getattr(hook, "__func__", None) is not base)


def _t_observed(plain, i, pc, on_instruction):
    """``plain``'s effect, then the ``on_instruction`` hooks."""

    def thunk(ctx):
        nxt = plain(ctx)
        for hook in on_instruction:
            hook(ctx, pc, i)
        return nxt

    return thunk


def _t_load_observed(machine, mem, words, limit, i, pc, nxt, on_load,
                     on_instruction):
    a, b, c = i.a, i.b, i.c
    indexed = i.op == "ldx"
    handler = _h_ldx if indexed else _h_ld
    get = words.get

    def thunk(ctx):
        regs = ctx.regs
        address = regs[b] + (regs[c] if indexed else c)
        if address.__class__ is int and 0 <= address < limit:
            mem.load_count += 1
            value = regs[a] = get(address, 0)
            for hook in on_load:
                hook(ctx, pc, address, value)
        else:
            handler(machine, ctx, i, pc)  # notifies on its own
        for hook in on_instruction:
            hook(ctx, pc, i)
        return nxt

    return thunk


def _t_store_observed(machine, mem, words, limit, i, pc, nxt, on_store,
                      on_instruction):
    a, b, c = i.a, i.b, i.c
    indexed = i.op == "stx"
    handler = _h_stx if indexed else _h_st
    get = words.get

    def thunk(ctx):
        regs = ctx.regs
        address = regs[b] + (regs[c] if indexed else c)
        if address.__class__ is int and 0 <= address < limit:
            mem.store_count += 1
            new = regs[a]
            old = get(address, 0)
            words[address] = new
            for hook in on_store:
                hook(ctx, pc, address, old, new, False)
        else:
            handler(machine, ctx, i, pc)  # notifies on its own
        for hook in on_instruction:
            hook(ctx, pc, i)
        return nxt

    return thunk


def _t_branch_observed(i, pc, nxt, on_branch, on_instruction):
    # the handlers' own condition functions, so ``taken`` is the very
    # object step() reports
    a, b, target = i.a, i.b, i.target
    unary = i.op in _BRANCH_RL_FNS
    fn = _BRANCH_RL_FNS[i.op] if unary else _BRANCH_RRL_FNS[i.op]

    def thunk(ctx):
        regs = ctx.regs
        taken = fn(regs[a]) if unary else fn(regs[a], regs[b])
        resolved = target if taken else nxt
        for hook in on_branch:
            hook(ctx, pc, taken, resolved)
        for hook in on_instruction:
            hook(ctx, pc, i)
        return resolved

    return thunk


def build_thunks(machine) -> List[Thunk]:
    """Compile ``machine.program`` into one next-PC thunk per PC.

    The thunks bind the machine's memory (including its words dict), the
    output buffer, instruction operands, and the attached observers'
    hooks at compile time; ``Machine`` keeps those objects
    identity-stable across ``restore()`` and drops the compiled table
    when rewiring (``attach_engine``, ``add_observer``,
    ``remove_observer``).
    """
    observers = machine._observers
    ref = weakref.proxy(machine) if observers else machine
    mem = machine.memory
    words = mem._words
    limit = mem.limit
    out_append = machine.output.append
    on_instruction = _hooks(observers, "on_instruction")
    on_load = _hooks(observers, "on_load")
    on_store = _hooks(observers, "on_store")
    on_branch = _hooks(observers, "on_branch")
    table: List[Thunk] = []
    for pc, i in enumerate(machine.program.instructions):
        op = i.op
        nxt = pc + 1
        if op in ENGINE_OPCODES:
            # run by step() so engine and state semantics are shared
            thunk = _t_boundary(pc)
        elif on_load and op in ("ld", "ldx"):
            thunk = _t_load_observed(ref, mem, words, limit, i, pc, nxt,
                                     on_load, on_instruction)
        elif on_store and op in ("st", "stx"):
            thunk = _t_store_observed(ref, mem, words, limit, i, pc, nxt,
                                      on_store, on_instruction)
        elif on_branch and (op in _BRANCH_RRL_FNS or op in _BRANCH_RL_FNS):
            thunk = _t_branch_observed(i, pc, nxt, on_branch,
                                       on_instruction)
        else:
            thunk = _plain_thunk(ref, mem, words, limit, out_append, i, pc)
            if on_instruction:
                thunk = _t_observed(thunk, i, pc, on_instruction)
        table.append(thunk)
    return table


def _plain_thunk(machine, mem, words, limit, out_append, i, pc) -> Thunk:
    """The unobserved thunk of one non-engine instruction."""
    op = i.op
    nxt = pc + 1
    if op == "li":
        return _t_li(i, nxt)
    if op == "mov":
        return _t_mov(i, nxt)
    if op in _ALU_RRR_FNS:
        return _t_alu_rrr(_ALU_RRR_FNS[op], i, nxt)
    if op in _ALU_RRI_FNS:
        return _t_alu_rri(_ALU_RRI_FNS[op], i, nxt)
    if op in _ALU_RR_FNS:
        return _t_alu_rr(_ALU_RR_FNS[op], i, nxt)
    if op == "ld":
        return _t_ld(machine, mem, words, limit, i, pc, nxt)
    if op == "ldx":
        return _t_ldx(machine, mem, words, limit, i, pc, nxt)
    if op == "st":
        return _t_st(machine, mem, words, limit, i, pc, nxt)
    if op == "stx":
        return _t_stx(machine, mem, words, limit, i, pc, nxt)
    if op in _BRANCH_OPS:
        return _t_branch_rrl(_BRANCH_OPS[op], i, nxt)
    if op == "beqz":
        return _t_beqz(i, nxt)
    if op == "bnez":
        return _t_bnez(i, nxt)
    if op == "jmp":
        return _t_jmp(i)
    if op == "call":
        return _t_call(i, pc)
    if op == "ret":
        return _t_ret(pc)
    if op == "out":
        return _t_out(out_append, i, nxt)
    if op == "nop":
        return _t_nop(nxt)
    # a new opcode needs a thunk
    raise ValueError(f"no fast-path thunk for opcode {op!r}")  # pragma: no cover
