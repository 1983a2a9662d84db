"""Timed superblocks: the solo run-ahead's hot code, compiled.

The solo run-ahead (:meth:`TimingSimulator._solo_body
<repro.timing.system.TimingSimulator._solo_body>`) pays, per instruction,
for an issue-table lookup, a pre-decoded handler call, and one
``CacheHierarchy.access`` or ``BranchPredictor.predict_and_update`` call.
Once it has reached a block entry :data:`HOT_THRESHOLD` times, it
compiles the code there into one Python function and calls that instead.
Like every other form that executes an instruction, the function is
generated from the opcode templates of :mod:`repro.machine.semantics`;
this module adds block formation and the timing around each instruction.

Block formation
---------------
A block starts at a superblock leader
(:func:`repro.machine.superblock.find_leaders`) and follows one path:
the fall-through path through conditional branches, and a ``jmp`` to
its target.  It ends at a branch or ``jmp`` back to its entry, at a
``jmp`` to an instruction it already holds, before an instruction it
already holds, before ``call``/``ret`` or an engine opcode
(:data:`~repro.machine.superblock.BOUNDARY_OPCODES`), or at
:data:`MAX_LENGTH` instructions; the block's PCs are its *path*.  A
taken branch leaves the block.  An edge back to the entry — a taken
branch, a ``jmp`` or the fall-through of the last instruction — loops
inside the function instead, while another whole iteration fits under
the instruction budget.

The generated function
----------------------
Registers live in locals.  Each instruction is followed by what the
run-ahead does after it, in the same order: take an issue slot, end the
cycle at the width or on a latency above one, check the cycle limit,
take the stall after a latency (``now = now + latency``), check the
limit again.  The slot count is kept as ``_we``, the position that takes
the cycle's last slot, so an instruction that does not end the cycle
costs one comparison.  Loads probe the core's L1 inline (the LRU
move-to-end of ``Cache.access``); so do stores on single-core machines.
A miss, and every store on a multi-core machine (which must invalidate
the other L1s), calls ``CacheHierarchy.access``.  The gshare update is
inline, with the global history in a local.  Counts that follow from
the path alone — per-class issue counts, memory counters, L1 hits,
predictor lookups — are added once per exit from static prefix tables
indexed by the exit position.

Every exit sets ``_e``, an index into the block's static exit table of
``(kind, positions retired in the iteration, next pc, latency)``, and
breaks to one shared epilogue that writes registers back and reconciles
the counters.  The rare exits use the same epilogue: the cycle limit
(the epilogue undoes a stall the limit cut short), and a failed memory
guard or a fault.  Those two hand the instruction back: the function
returns with ``ctx.pc`` on it and the run-ahead executes it through its
step handler, which takes the checked path or raises the same
exception.  A fault's position is read from the traceback's line
number, so no instruction pays for a marker.  The static tables are
bound in the namespace rather than written as literals: the parser's
transient memory grows with every token, and it sets the peak.

The function returns ``(now, busy, k, retired, iterations, issuing,
exit kind)`` — the run-ahead's own loop state — or ``None`` when fewer
than one block length of instructions is left under the budget.
"""

from __future__ import annotations

import bisect
import time
from typing import Dict, List

from repro.isa.instructions import operand_roles
from repro.machine.semantics import (ALU, BRANCH, ENGINE_OPCODES, HELPERS,
                                     LOAD, SEMANTICS, STORE, ExactInt, Src,
                                     access, operands)
from repro.machine.superblock import BOUNDARY_OPCODES, _lit, find_leaders
from repro.timing.branch import HISTORY_BITS, TABLE_BITS
from repro.timing.core import ENTRY

#: times the run-ahead reaches a block entry before it compiles the block
HOT_THRESHOLD = 256

#: a block stops growing after this many instructions
MAX_LENGTH = 64
#: shorter blocks stay on the per-instruction path
MIN_LENGTH = 3
MIN_LOOP_LENGTH = 2

#: synthetic filename of compiled blocks; profiler frames show as
#: (FILENAME, line, "tb_<entry_pc>")
FILENAME = "<timed>"
PREFIX = "tb_"

#: exit kinds, the last element of a block's result.  Kinds below
#: ``GUARD`` leave ``ctx.pc`` on the next instruction to issue;
#: ``GUARD``/``FAULT`` leave it on an instruction to re-execute.
FALL_THROUGH, TAKEN, HEADROOM, ENGINE, GUARD, FAULT, CYCLE_LIMIT = range(7)
EXIT_KINDS = ("fall-through", "taken", "headroom", "engine", "guard",
              "fault", "cycle-limit")

_TABLE_MASK = (1 << TABLE_BITS) - 1
_HISTORY_MASK = (1 << HISTORY_BITS) - 1
#: a 2-bit saturating counter's next value after a taken / not-taken
#: outcome, indexed by its value
_AFTER_TAKEN = (1, 2, 3, 3)
_AFTER_NOT_TAKEN = (0, 0, 1, 2)


def form_block(instructions, entry: int):
    """``(path, is_loop)`` of the block that starts at ``entry``: the
    PCs it holds, in order, and whether its last one jumps or falls
    through back to ``entry``."""
    size = len(instructions)
    path: List[int] = []
    pc = entry
    while 0 <= pc < size and len(path) < MAX_LENGTH and pc not in path:
        ins = instructions[pc]
        op = ins.op
        if op in BOUNDARY_OPCODES or (op == "jmp" and ins.target is None):
            break
        path.append(pc)
        if ins.target == entry and (op == "jmp"
                                    or SEMANTICS[op].kind == BRANCH):
            break
        if op == "jmp":
            if ins.target in path:
                break
            pc = ins.target
        else:
            pc += 1
    if not path:
        return (), False
    last = instructions[path[-1]]
    return tuple(path), (last.target == entry or (
        last.op != "jmp" and path[-1] + 1 == entry))


def _prefix(flags) -> tuple:
    """Running totals: entry ``d`` counts the flags of positions < d."""
    totals = [0]
    for flag in flags:
        totals.append(totals[-1] + flag)
    return tuple(totals)


def _indent(lines: List[str]) -> List[str]:
    return ["    " + line for line in lines]


class HotBlocks:
    """One core's hot-block state for one timed run.

    ``table`` is the core's issue table with every block entry's kind
    replaced by :data:`~repro.timing.core.ENTRY`; ``hot[pc]`` counts down
    to the compile at such an entry and then holds the block function.
    The namespace binds this run's memory, L1, hierarchy, predictor and
    class tally; :meth:`release` drops it when the run ends.
    """

    def __init__(self, sim, core):
        machine = sim.machine
        program = machine.program
        self.instructions = program.instructions
        self.rows = core.table
        params = core.params
        self.width = params.issue_width
        #: a latency above this ends the cycle (loads: above the hide
        #: latency too)
        self.hide = max(params.load_hide_latency, 1)
        self.penalty = params.mispredict_penalty
        self.max_cycles = sim.config.max_cycles
        hierarchy = sim.hierarchy
        l1 = hierarchy.l1[core.core_id]
        self.core_id = core.core_id
        self.single_core = hierarchy.num_cores == 1
        self.l1_latency = hierarchy.params.l1_latency
        self.min_miss = self.l1_latency + hierarchy.params.l2_latency
        self.line_shift = l1._line_words.bit_length() - 1
        self.set_mask = l1._set_mask
        self.tag_shift = self.line_shift + l1._tag_shift
        memory = machine.memory
        #: non-literal immediates and static tables of the compiled
        #: blocks, bound by name into the namespace
        self.consts: Dict[str, object] = {}
        self.namespace = dict(
            HELPERS, _mem=memory, _words=memory._words,
            _get=memory._words.get, _limit=memory.limit,
            _out=machine.output.append, _S=l1._sets, _L1=l1.stats,
            _acc=hierarchy.access, _PR=sim.predictor,
            _C=sim.predictor._counters, _UP=_AFTER_TAKEN,
            _DN=_AFTER_NOT_TAKEN, _T=core.class_tally,
            _bisect=bisect.bisect_right)
        self.table = list(core.table)
        self.hot: List = [0] * len(self.table)
        self.shapes: Dict[int, tuple] = {}
        for pc in find_leaders(program):
            if pc >= len(self.table):
                continue
            path, is_loop = form_block(self.instructions, pc)
            if len(path) >= (MIN_LOOP_LENGTH if is_loop else MIN_LENGTH):
                self.shapes[pc] = (path, is_loop)
                self.table[pc] = (ENTRY,) + self.table[pc][1:]
                self.hot[pc] = HOT_THRESHOLD
        self.compiled = 0
        self.seconds = 0.0

    def compile(self, entry: int):
        """Generate, compile and bind the block at ``entry``."""
        started = time.perf_counter()
        source = "\n".join(_Block(self, entry).lines()) + "\n"
        self.namespace.update(self.consts)
        exec(compile(source, FILENAME, "exec"), self.namespace)
        function = self.namespace.pop(f"{PREFIX}{entry}")
        self.compiled += 1
        self.seconds += time.perf_counter() - started
        return function

    def release(self) -> None:
        """Drop the compiled functions and their namespace."""
        self.namespace.clear()
        self.table = self.hot = None


class _Block:
    """Source generator for one block."""

    def __init__(self, hb: HotBlocks, entry: int):
        self.hb = hb
        self.entry = entry
        self.path, self.is_loop = hb.shapes[entry]
        self.length = len(self.path)
        self.body = [hb.instructions[pc] for pc in self.path]
        #: ``(kind, positions retired, next pc, cycle-ending latency)`` per
        #: exit; exit ``j < length`` is the fault at position ``j``
        self.exits = [(FAULT, j, pc, 0) for j, pc in enumerate(self.path)]
        self._exit_ids: Dict[tuple, int] = {}

    def _table(self, values: tuple) -> str:
        """Bind a static table into the namespace; its global name.
        (Tables as source literals would cost the parser far more.)"""
        name = f"_t{self.entry}_{len(self.hb.consts)}"
        self.hb.consts[name] = values
        return name

    # -- exits and timing --------------------------------------------------

    def _exit(self, kind: int, d: int, pc: int, latency: int = 0) -> str:
        """Leave through the epilogue after ``d`` positions, for ``pc``.

        A cycle-limit exit records the latency that ended the cycle; 0
        means the dynamic latency in ``_L``.
        """
        if kind in (FALL_THROUGH, TAKEN):
            instructions = self.hb.instructions
            if pc < len(instructions) and \
                    instructions[pc].op in ENGINE_OPCODES:
                kind = ENGINE
        key = (kind, d, pc, latency)
        if key not in self._exit_ids:
            self._exit_ids[key] = len(self.exits)
            self.exits.append(key)
        return f"_e = {self._exit_ids[key]}; break"

    def _width(self, after) -> List[str]:
        """Issue in a free slot; the last slot ends the cycle.  ``after``
        is ``(positions retired, next pc)`` once this instruction issued.

        ``_we`` is the position that takes the cycle's last slot, so a
        slot count needs no update per instruction.
        """
        j = after[0] - 1
        limit = self._exit(CYCLE_LIMIT, *after, 1)
        return [f"if _we == {j}:",
                f"    _we = {j + self.hb.width}; now += 1",
                f"    if now > {self.hb.max_cycles}: {limit}"]

    def _stall(self, latency, after) -> List[str]:
        """End the cycle on ``latency`` and take the stall after it.

        ``s`` counts stalls and ``sl`` their cycles beyond the first, so
        that ``now - now0 - sl`` counts the cycles that issued.
        """
        j = after[0] - 1
        if isinstance(latency, int):
            limit = self._exit(CYCLE_LIMIT, *after, latency)
            extra = latency - 1
        else:
            limit = f"_L = {latency}; " + self._exit(CYCLE_LIMIT, *after)
            extra = f"{latency} - 1"
        return [f"_we = {j + self.hb.width}; s += 1; sl += {extra}; "
                f"now += {latency}; busy = now",
                f"if now > {self.hb.max_cycles}: {limit}"]

    def _timing(self, latency: int, after, hide: int = 1) -> List[str]:
        """A latency above ``hide`` ends the cycle (loads below the hide
        latency are pipelined)."""
        if latency > hide:
            return self._stall(latency, after)
        return self._width(after)

    # -- instructions ------------------------------------------------------

    def _operands(self, ins) -> Dict[str, Src]:
        consts = self.hb.consts

        def immediate(slot):
            value = getattr(ins, slot)
            source = _lit(value, consts)
            return ExactInt(source) if value.__class__ is int else Src(source)

        return operands(ins.op, lambda slot: f"r{getattr(ins, slot)}",
                        immediate)

    def _probe(self) -> str:
        hb = self.hb
        return (f"_w = _S[_a >> {hb.line_shift} & {hb.set_mask}]; "
                f"_g = _a >> {hb.tag_shift}")

    def _instruction(self, j: int) -> List[str]:
        """Lines of position ``j``; a taken exit or back-edge included."""
        hb = self.hb
        ins = self.body[j]
        pc = self.path[j]
        latency = hb.rows[pc][1]
        sem = SEMANTICS[ins.op]
        ops = self._operands(ins)
        after = (j + 1, pc + 1)
        if sem.kind == ALU:
            return ([f"{ops['a']} = {sem.effect.format(**ops)}"]
                    + self._timing(latency, after))
        if sem.kind == LOAD or sem.kind == STORE:
            lines = access(sem, ops, [self._exit(GUARD, j, pc)],
                           counted=False)
            if sem.kind == STORE:
                if hb.single_core:
                    lines += [self._probe(),
                              "if _w.pop(_g, None) is None: "
                              f"_m += 1; _acc({hb.core_id}, _a, True)",
                              "_w[_g] = True"]
                else:
                    lines.append(f"_acc({hb.core_id}, _a, True)")
                return lines + self._timing(latency, after)
            lines += [self._probe() + "; _v = _w.pop(_g, None)",
                      "if _v is None:",
                      f"    _m += 1; L = _acc({hb.core_id}, _a, False)"]
            if hb.min_miss > hb.hide:
                miss = self._stall("L", after)
            else:
                miss = ([f"if L > {hb.hide}:"]
                        + _indent(self._stall("L", after))
                        + ["else:"] + _indent(self._width(after)))
            hit = self._timing(hb.l1_latency, after, hb.hide)
            return (lines + _indent(miss) + ["else:", "    _w[_g] = _v"]
                    + _indent(hit))
        if sem.kind == BRANCH:
            return self._branch(j, ins, latency, ops)
        lines = sem.effect.format(out="_out", **ops).splitlines()
        if ins.op != "jmp":
            return lines + self._timing(latency, after)
        lines += self._timing(latency, (j + 1, ins.target))
        if j + 1 < self.length:  # the path goes on at the target
            return lines
        return lines + self._edge(TAKEN, j, ins.target)

    def _edge(self, kind: int, j: int, pc: int) -> List[str]:
        """Leave the block for ``pc`` after position ``j``, or loop when
        ``pc`` is the entry."""
        if pc != self.entry:
            return [self._exit(kind, j + 1, pc)]
        return [f"_n += 1; _we -= {self.length}", "if _n < _maxn: continue",
                self._exit(HEADROOM, 0, self.entry)]

    def _branch(self, j: int, ins, latency: int, ops) -> List[str]:
        """The inline gshare update, then the taken and fall-through
        timing (a misprediction adds the penalty)."""
        pc = self.path[j]
        index = f"{pc & _TABLE_MASK} ^ _hi"
        if _HISTORY_MASK & ~_TABLE_MASK:
            index = f"({index}) & {_TABLE_MASK}"
        wrong = latency + self.hb.penalty
        taken = (j + 1, ins.target)
        fall = (j + 1, pc + 1)
        cond = SEMANTICS[ins.op].effect.format(**ops)
        return ([f"_i = {index}; _v = _C[_i]",
                 f"if {cond}:",
                 f"    _hi = (_hi << 1 | 1) & {_HISTORY_MASK}; "
                 "_C[_i] = _UP[_v]",
                 "    if _v < 2:",
                 "        _q += 1"]
                + _indent(_indent(self._timing(wrong, taken)))
                + ["    else:"]
                + _indent(_indent(self._timing(latency, taken)))
                + _indent(self._edge(TAKEN, j, ins.target))
                + [f"_hi = _hi << 1 & {_HISTORY_MASK}; _C[_i] = _DN[_v]",
                   "if _v > 1:",
                   "    _q += 1"]
                + _indent(self._timing(wrong, fall))
                + ["else:"] + _indent(self._timing(latency, fall)))

    # -- the function ------------------------------------------------------

    def lines(self) -> List[str]:
        hb, entry, length, path = self.hb, self.entry, self.length, self.path
        read, written = set(), set()
        for ins in self.body:
            dest, sources = operand_roles(ins.op)
            read.update(getattr(ins, slot) for slot in sources)
            if dest is not None:
                written.add(getattr(ins, dest))
        kinds = [SEMANTICS[ins.op].kind for ins in self.body]
        branches = BRANCH in kinds
        out = [f"def {PREFIX}{entry}(ctx, now, busy, k, retired, it, iss, "
               "budget):",
               "    _t = retired + k"]
        if self.is_loop:
            out += [f"    _maxn = (budget - _t) // {length}",
                    "    if _maxn < 1: return None"]
        else:
            out.append(f"    if _t + {length} > budget: return None")
        regs = sorted(read | written)
        if regs:
            out.append("    regs = ctx.regs; "
                       + "; ".join(f"r{r} = regs[{r}]" for r in regs))
        if branches:
            out.append("    _hi = _PR._history")
        out += [f"    _we = {hb.width - 1} - k; now0 = now",
                "    s = sl = _m = _q = _n = 0",
                "    try:",
                "        while 1:"]
        starts = []
        for j in range(length):
            starts.append(len(out) + 1)
            out += ["            " + line for line in self._instruction(j)]
        if self.body[-1].op != "jmp":
            out += ["            " + line for line in self._edge(
                FALL_THROUGH, length - 1, path[-1] + 1)]
        out += ["    except Exception as _f:",
                f"        _e = _bisect({self._table(tuple(starts))}, "
                "_f.__traceback__.tb_lineno) - 1"]
        # -- the shared epilogue --
        exits = self._table(tuple(self.exits))
        out.append(f"    _x, _d, _pc, _l = {exits}[_e]")
        if written:
            out.append("    " + "; ".join(f"regs[{r}] = r{r}"
                                          for r in sorted(written)))
        out.append("    ctx.pc = _pc")
        iterations = "_n * {} + " if self.is_loop else ""

        def count(target: str, flags, extra: str = "") -> None:
            flags = list(flags)
            if any(flags):
                per = iterations.format(sum(flags))
                table = self._table(_prefix(flags))
                out.append(f"    {target} += {per}{table}[_d]{extra}")

        classes = [hb.rows[pc][2] for pc in path]
        for index in sorted(set(classes)):
            count(f"_T[{index}]", (cls == index for cls in classes))
        count("_mem.load_count", (kind == LOAD for kind in kinds))
        count("_mem.store_count", (kind == STORE for kind in kinds))
        count("_L1.hits", (kind == LOAD or (kind == STORE and hb.single_core)
                           for kind in kinds), " - _m")
        if branches:
            count("_PR.lookups", (kind == BRANCH for kind in kinds))
            out.append("    _PR.mispredicts += _q; _PR._history = _hi")
        # a cycle-limit exit: the limit may have cut short the stall
        # after a latency-ended cycle, which then takes one cycle
        out += [f"    if _x == {CYCLE_LIMIT}:",
                "        if not _l: _l = _L",
                f"        if _l > 1 and now - _l >= {hb.max_cycles}: "
                "now -= _l - 1; s -= 1; sl -= _l - 1",
                f"    k = _d + {hb.width - 1} - _we; c = now - now0 - sl"]
        retired = f"_t + {iterations.format(length)}_d - k"
        out.append(f"    return (now, busy, k, {retired}, it + c + s, "
                   "iss + c, _x)")
        return out
