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
* ``-1`` means the context left the RUNNING state (halt, tcheck block,
  treturn) and its handler already stored the resume PC in ``ctx.pc``;
* ``<= -2`` encodes ``-2 - next_pc`` and is returned by *legacy* thunks —
  the :data:`~repro.machine.machine.ENGINE_OPCODES`, which call into the
  original handler because they may touch the DTT engine
  (``tst``/``tstx``/``tcheck``/``treturn``) or context state
  (``halt``).  The encoding forces a chunk boundary so the loop re-reads
  the shared instruction counters after any nested synchronous execution.

Legacy thunks carry a ``_legacy`` attribute so the loop's fault handler
knows ``ctx.pc`` was already maintained by the handler.

Semantics are inherited, not re-implemented: ALU thunks call the same
function objects the single-step handlers use (``machine._ALU_*_FNS``),
and the memory thunks fall back to the original handler for any address
that is not an in-range exact ``int`` — so faults, bool/float address
rejection, and int-subclass handling match the slow path bit for bit.
"""

from __future__ import annotations

import operator
from typing import Callable, List

from repro.errors import ExecutionFault
from repro.machine.context import Context, ContextState
from repro.machine.machine import (
    _ALU_RR_FNS,
    _ALU_RRI_FNS,
    _ALU_RRR_FNS,
    _DISPATCH,
    ENGINE_OPCODES,
    _h_ld,
    _h_ldx,
    _h_st,
    _h_stx,
)

Thunk = Callable[[Context], int]

_RUNNING = ContextState.RUNNING

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


def _t_legacy(machine, handler, i, pc):
    """Run the original single-step handler; encode its PC outcome."""

    def thunk(ctx):
        handler(machine, ctx, i, pc)
        if ctx.state is _RUNNING:
            return -2 - ctx.pc
        return -1

    thunk._legacy = True
    return thunk


def build_thunks(machine) -> List[Thunk]:
    """Compile ``machine.program`` into one next-PC thunk per PC.

    The thunks bind the machine's memory (including its words dict), the
    output buffer, and instruction operands at compile time; ``Machine``
    keeps those objects identity-stable across ``restore()`` and drops the
    compiled table when rewiring (``attach_engine``).
    """
    mem = machine.memory
    words = mem._words
    limit = mem.limit
    out_append = machine.output.append
    alu3, alu2i, alu2 = _ALU_RRR_FNS, _ALU_RRI_FNS, _ALU_RR_FNS
    table: List[Thunk] = []
    for pc, i in enumerate(machine.program.instructions):
        op = i.op
        nxt = pc + 1
        if op in ENGINE_OPCODES:
            # defer to the single-step handler so engine and state
            # semantics are shared
            thunk = _t_legacy(machine, _DISPATCH[op], i, pc)
        elif op == "li":
            thunk = _t_li(i, nxt)
        elif op == "mov":
            thunk = _t_mov(i, nxt)
        elif op in alu3:
            thunk = _t_alu_rrr(alu3[op], i, nxt)
        elif op in alu2i:
            thunk = _t_alu_rri(alu2i[op], i, nxt)
        elif op in alu2:
            thunk = _t_alu_rr(alu2[op], i, nxt)
        elif op == "ld":
            thunk = _t_ld(machine, mem, words, limit, i, pc, nxt)
        elif op == "ldx":
            thunk = _t_ldx(machine, mem, words, limit, i, pc, nxt)
        elif op == "st":
            thunk = _t_st(machine, mem, words, limit, i, pc, nxt)
        elif op == "stx":
            thunk = _t_stx(machine, mem, words, limit, i, pc, nxt)
        elif op in _BRANCH_OPS:
            thunk = _t_branch_rrl(_BRANCH_OPS[op], i, nxt)
        elif op == "beqz":
            thunk = _t_beqz(i, nxt)
        elif op == "bnez":
            thunk = _t_bnez(i, nxt)
        elif op == "jmp":
            thunk = _t_jmp(i)
        elif op == "call":
            thunk = _t_call(i, pc)
        elif op == "ret":
            thunk = _t_ret(pc)
        elif op == "out":
            thunk = _t_out(out_append, i, nxt)
        elif op == "nop":
            thunk = _t_nop(nxt)
        else:  # pragma: no cover - a new opcode needs a thunk
            raise ValueError(f"no fast-path thunk for opcode {op!r}")
        table.append(thunk)
    return table
