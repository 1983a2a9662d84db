"""Compiled blocks: one block former and one emitter for both tiers.

``Machine.run`` and the timing simulator's solo run-ahead
(:meth:`TimingSimulator._solo_loop
<repro.timing.system.TimingSimulator._solo_loop>`) run hot code as
*compiled blocks*: one Python function per block, built with ``compile``
from the instruction templates of :mod:`repro.machine.semantics`, with
registers in locals, ALU ops as inline expressions and memory accesses
straight at the machine's words dict behind the thunks' in-range
exact-``int`` guard.  Both tiers form the same blocks and emit them with
one generator (:class:`Block`); the timed tier composes its *timing
aspect* (:mod:`repro.timing.blocks`) onto the emitter's hooks, and an
observed ``Machine.run`` its *shadow aspect* (:class:`ShadowBlock`).  What a
block does not run stays on the cold path: the closure thunks
(:mod:`repro.machine.fastpath`) in ``Machine.run``, the per-instruction
loop in the run-ahead.

Block formation
---------------
A block starts at every *leader* — the program entry, every resolved
control-flow target, every label, every support-thread entry, and the
instruction after any branch, ``jmp`` or boundary opcode — and covers a
contiguous range of PCs (blocks may overlap; a function is only entered
at its own top).  The range stops at a self or unresolved ``jmp``, a
backward ``jmp`` to the entry or before it, before a *boundary* opcode
that must stay cold — ``call``/``ret`` (call-stack effects), the engine
opcodes ``tst``/``tstx``/``tcheck``/``treturn`` and ``halt`` (context
state) — or at :data:`MAX_LENGTH` instructions.  It runs on past a
backward ``jmp`` to a head inside it if its loops are *well nested*
(:func:`loop_nest`): an edge back to a head after the entry makes an
inner loop from the head to its last back-edge, and two inner loops are
nested or disjoint, each entered only at its head.  Any other range
stops at its first backward ``jmp``.  Shorter ranges than
:data:`MIN_BLOCK_LENGTH` (:data:`MIN_LOOP_LENGTH` for a loop) stay cold.

Inside the range a forward edge to a position inside the current arm is
if-converted (the skipped positions become the ``else`` arm).  An inner
loop is a nested ``while`` with its own back-edges; in it, an edge to
the position just past the loop leaves the ``while``, and an edge to any
other target outside the arm leaves the block, the entry included.
Outside the inner loops, an edge past the arm's join but inside the
block duplicates the block's tail on that edge, within a source budget;
an edge to the entry makes a *loop block*; any other taken edge leaves
the block.  Every loop level iterates while another pass fits the budget
its caller passes in.

Exits
-----
Every exit sets ``_e``, an index into the block's static exit table of
``(kind, positions complete in the iteration, next pc)`` (kinds:
:data:`EXIT_KINDS`), and breaks to one shared epilogue; inside an inner
loop it breaks out through each level (``if _e is not None: break``
after each nested ``while``).  The epilogue writes registers back and
adds what the block retired to each count — instructions, loads, stores,
and in the timed tier op classes, L1 hits and predictor lookups — as
``_n`` iterations times the per-iteration total plus a static prefix
table indexed by the exit position, minus what the taken skips left out:
each skipped range has a counter ``_s<i>``, subtracted times the range's
static counts.  Each inner loop has a *rerun* counter ``_r<i>``, the
mirror of a skip counter: a back-edge to its head adds one (and skips
the rest of the loop's range), and the epilogue adds it times the static
counts of the loop's range.

One budget countdown serves every loop level: ``_room`` starts at the
budget less the block length, each back-edge takes its loop's span (an
inner loop's range; for the entry, up to its last back-edge), and a
back-edge that finds ``_room`` negative leaves by a *headroom* exit at
its loop's head.  So every pass but the last retires at most its span,
the last at most the block length, and the block never exceeds the
budget.  ``_n`` is derived from ``_room`` and the rerun counters at the
exit.  Exit
``j`` of the first ``length`` is the *hand-back* of position ``j``: on a
failed memory guard (*guard*) or an ``Exception`` (*fault*, its position
found from the traceback's line number, so no instruction pays for a
marker) the block returns with that instruction not run, and its caller
reruns it on its thunk or step handler, which takes the checked path or
raises the same exception.  An interrupt propagates without the block's
write-back.

A functional block ``sb(ctx, budget)`` returns ``None``, having run
nothing, when fewer than one block length of instructions is left under
``budget``; else ``(retired, next)``, where ``next`` is the next PC or
``-2 - pc`` of an instruction handed back.  A timed block
``tb(ctx, now, busy, k, retired, it, iss, budget, limit)`` returns the
run-ahead's own loop state ``(now, busy, k, retired, iterations,
issuing, exit kind)`` with ``ctx.pc`` on the next instruction or the one
handed back, or ``None`` likewise.

Timing aspect
-------------
After each instruction a timed block does what the run-ahead does, in
the same order: take an issue slot, end the cycle at the width or where
the issue template (:data:`repro.timing.core.ISSUE`, folded where its
inputs are known at emit time) says, check the cycle limit, take the
stall, check the limit again.  The slot count is ``_we``, the position
that takes the cycle's last slot, so an instruction that does not end
the cycle costs one comparison; a skip of ``span`` positions adds
``span`` to it, and a back-edge takes its loop's range from it.  Loads
probe the core's L1 inline (the LRU move-to-end of ``Cache.access``), as
do stores on a single core; a miss, and every store on several cores
(which must invalidate the other L1s), calls ``CacheHierarchy.access``.
The gshare update is inline on both edges of a branch, with the history
in a local.  The epilogue also undoes a stall the cycle limit cut short.

Shadow aspect
-------------
When every observer attached to a machine declares a
:class:`~repro.machine.events.Shadow`, its functional blocks run each
transfer right after the instruction's effect, rendered by the same
:func:`~repro.machine.semantics.transfer` as the observed thunks.  A
hand-back happens before the handed-back instruction's transfer, and a
transfer line never maps to a hand-back position: an exception raised
in one propagates, as an interrupt does.  Register-file entries (the
taint analysis's per-register taint) are locals, fetched for the
context in the prologue and written back in the epilogue, as registers
are; each per-instruction cell is an entry of a list bound per block
entry, and each PC a transfer names a value bound per entry.  Stores
keep the word they overwrite.  Without shadows the emitter's source is
unchanged.  Observed blocks are compiled afresh, not kept in the code
cache, since observed shapes seldom recur.

Lazy compile and the code cache
-------------------------------
:func:`lazy_table` puts a countdown stub at each block entry, which
returns ``None`` (run cold) until the entry's :func:`compile_reach`-th
reach, then binds the block in its place and runs it.  Code is
relocatable: static tables, non-literal immediates, the exit table
(absolute PCs) and each timed branch's gshare index base are argument
defaults, bound per entry.  So a block's code depends only on its
*shape* — opcodes, operands and targets relative to the entry, plus in
the timed tier the latencies, op classes and configuration it bakes in
— and one process-wide LRU cache (:func:`shared_code`) compiles each
unobserved shape once for both tiers.  Each entry binds it over its
machine's or run's globals, renamed ``sb_<entry_pc>`` or
``tb_<entry_pc>`` for profiles; :func:`cache_stats` counts the work.
"""

from __future__ import annotations

import builtins
import math
import time
import weakref
from collections import OrderedDict
from itertools import accumulate
from types import CodeType, FunctionType
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.isa.instructions import operand_roles
from repro.isa.program import Program
from repro.machine.semantics import (ALU, BRANCH, ENGINE_OPCODES, HELPERS,
                                     LOAD, SEMANTICS, STORE, ExactInt, Src,
                                     access, operands, shadow_names,
                                     transfer)

#: conditional branches and ``jmp``: the edges a block if-converts,
#: duplicates a tail on, loops on or leaves by
TERMINATOR_OPCODES = frozenset(
    op for op, sem in SEMANTICS.items() if sem.kind == BRANCH) | {"jmp"}

#: ops that never enter a block: they stay on the cold path because they
#: touch the call stack, the DTT engine, or context state
BOUNDARY_OPCODES = frozenset(["call", "ret"]) | ENGINE_OPCODES

#: synthetic filename of functional blocks; profiler frames show as
#: (SB_FILENAME, line, "sb_<entry_pc>")
SB_FILENAME = "<superblock>"

#: function-name prefix of functional blocks (flame folding keys off it)
SB_PREFIX = "sb_"

#: straight-line blocks shorter than this stay cold (the per-call
#: spill/fill overhead would eat the win); loop blocks amortize that
#: overhead over iterations, so any 2-instruction loop qualifies
MIN_BLOCK_LENGTH = 3
MIN_LOOP_LENGTH = 2

#: a block stops growing after this many instructions
MAX_LENGTH = 64

#: block shapes the code cache keeps; the least recently used goes first
CACHE_SHAPES = 32

#: everything the code generator can lower (anything else bounds a block)
COMPILABLE_OPCODES = frozenset(SEMANTICS) - BOUNDARY_OPCODES

#: exit kinds, the first field of an exit-table row.  Kinds below
#: ``GUARD`` go on at the row's next pc; ``GUARD``/``FAULT`` hand the
#: instruction at it back.  ``ENGINE`` (a timed exit into an engine
#: opcode) and ``CYCLE_LIMIT`` occur in the timed tier only.
FALL_THROUGH, TAKEN, HEADROOM, ENGINE, GUARD, FAULT, CYCLE_LIMIT = range(7)
EXIT_KINDS = ("fall-through", "taken", "headroom", "engine", "guard",
              "fault", "cycle-limit")


def compile_reach(timed: bool, is_loop: bool) -> int:
    """The reach of its entry at which a block compiles: a timed block's
    128th, a functional loop block's first, a straight-line one's 16th.
    Earlier reaches run cold, which is cheaper for a block run rarely."""
    if timed:
        return 128
    return 1 if is_loop else 16


# -- process-wide code cache ---------------------------------------------------

_STATS = {"cache_hits": 0, "cache_misses": 0, "build_seconds": 0.0}

#: shape key -> ``(code, static arguments, tier data)``, in LRU order
_CODE_CACHE: "OrderedDict[tuple, tuple]" = OrderedDict()


def cache_stats() -> Dict[str, float]:
    """Process-wide code-cache counters over both tiers: shapes compiled
    (``cache_misses``, taking ``build_seconds``), blocks bound to a shape
    compiled before (``cache_hits``), and blocks bound (both)."""
    stats = dict(_STATS)
    total = stats["blocks_compiled"] = (stats["cache_hits"]
                                        + stats["cache_misses"])
    stats["hit_rate"] = stats["cache_hits"] / total if total else 0.0
    return stats


def reset_cache_stats() -> None:
    """Zero the cache counters (bench/test isolation; cache is kept)."""
    _STATS.update(cache_hits=0, cache_misses=0, build_seconds=0.0)


_GAUGES = {
    "cache_hits": "code-cache hits (blocks bound to a shape compiled before)",
    "cache_misses": "code-cache misses (block shapes compiled)",
    "build_seconds": "cumulative block codegen+compile wall-clock",
    "blocks_compiled": "blocks bound to compiled code, both tiers",
    "hit_rate": "code-cache hit fraction over all lookups",
}


def publish_metrics(registry) -> None:
    """Mirror the cache counters into a metrics registry as gauges.

    Gauges (not counters) because the stats are process-wide totals and
    publishing must be idempotent across registries and repeat calls.
    """
    stats = cache_stats()
    for key, help_text in _GAUGES.items():
        registry.gauge(f"superblock.{key}", help_text).set(stats[key])


def shared_code(key: Optional[tuple], generate: Callable[[], tuple],
                filename: str) -> tuple:
    """The cached ``(code, statics, data)`` of the block shape ``key``;
    on a miss ``generate()`` returns ``(source lines of one function
    whose trailing parameters default to statics, statics, data)``.  A
    ``key`` of ``None`` compiles without caching, counted as a miss."""
    cached = _CODE_CACHE.get(key)
    if cached is not None:
        _STATS["cache_hits"] += 1
        _CODE_CACHE.move_to_end(key)
        return cached
    started = time.perf_counter()
    lines, statics, data = generate()
    module = compile("\n".join(lines) + "\n", filename, "exec")
    code = next(const for const in module.co_consts
                if const.__class__ is CodeType)
    cached = (code, statics, data)
    if key is not None:
        _CODE_CACHE[key] = cached
        if len(_CODE_CACHE) > CACHE_SHAPES:
            _CODE_CACHE.popitem(last=False)
    _STATS["cache_misses"] += 1
    _STATS["build_seconds"] += time.perf_counter() - started
    return cached


def bind(code: CodeType, name: str, namespace: dict,
         defaults: tuple) -> FunctionType:
    """A function of the shared ``code`` over ``namespace``, renamed
    ``name`` (no recompile) so profiles tell its entries apart."""
    return FunctionType(code.replace(co_name=name), namespace, name,
                        defaults)


def _literal(value) -> bool:
    """Whether ``repr`` writes ``value`` exactly; anything else (``inf``,
    ``nan``, numeric subclasses) is bound by reference, as the thunks do."""
    cls = value.__class__
    return cls is int or cls is bool or (cls is float and math.isfinite(value))


def _operand_key(value):
    """An operand as a cache key: literals by their source (``1``, ``1.0``,
    ``True``, ``-0.0`` differ), others by identity (kept alive by statics)."""
    if value.__class__ is int or value is None:
        return value
    return repr(value) if _literal(value) else (value.__class__, id(value))


def shape(instructions, pcs, entry: int) -> tuple:
    """The instructions at ``pcs`` as a cache key, relative to ``entry``."""
    return tuple((ins.op, _operand_key(ins.a), _operand_key(ins.b),
                  _operand_key(ins.c),
                  None if ins.target is None else ins.target - entry)
                 for ins in map(instructions.__getitem__, pcs))


# -- block formation -----------------------------------------------------------


def find_leaders(program: Program) -> set:
    """PCs where a block may begin."""
    size = len(program.instructions)
    leaders = {program.entry_pc}
    for pc in program.labels.values():  # support-thread entries too
        if pc < size:
            leaders.add(pc)
    for pc, ins in enumerate(program.instructions):
        if ins.target is not None and ins.target < size:
            leaders.add(ins.target)
        op = ins.op
        if op in TERMINATOR_OPCODES or op not in COMPILABLE_OPCODES:
            if pc + 1 < size:
                leaders.add(pc + 1)
    return leaders


def loop_nest(instructions, entry: int,
              length: int) -> Optional[Dict[int, int]]:
    """The inner loops of the range of ``length`` instructions at
    ``entry``, as ``{head: end}`` positions relative to the entry: an
    edge from a position at or past a head ``0 < head`` back to it makes
    ``head`` a loop, whose range ``[head, end)`` runs to its last such
    back-edge.  ``None`` if the range is not well nested: two loops
    cross, or an edge enters a loop past its head."""
    targets = [ins.target - entry if ins.op in TERMINATOR_OPCODES
               and ins.target is not None else None
               for ins in instructions[entry:entry + length]]
    loops: Dict[int, int] = {}
    for j, target in enumerate(targets):
        if target is not None and 0 < target <= j:
            loops[target] = j + 1
    for head, end in loops.items():
        if any(head < other < end < loops[other] for other in loops):
            return None
        if any(target is not None and head < target < end
               and not head <= j < end for j, target in enumerate(targets)):
            return None
    return loops


def _outer_back_edges(instructions, entry: int, length: int,
                      loops: Dict[int, int]) -> List[int]:
    """Positions whose edge returns to the entry from outside every inner
    loop: the back-edges of a loop block."""
    return [j for j, ins in enumerate(instructions[entry:entry + length])
            if ins.op in TERMINATOR_OPCODES and ins.target == entry
            and not any(head <= j < end for head, end in loops.items())]


def form_blocks(program: Program) -> List[Tuple[int, int, bool]]:
    """The blocks worth compiling, as ``(entry_pc, length, is_loop)``:
    one contiguous range per leader (see the module docstring)."""
    instructions = program.instructions
    size = len(instructions)
    blocks: List[Tuple[int, int, bool]] = []
    for leader in sorted(find_leaders(program)):
        length = 0
        cut = None  # the length up to the first backward jmp
        pc = leader
        while pc < size and length < MAX_LENGTH:
            ins = instructions[pc]
            op = ins.op
            if op not in COMPILABLE_OPCODES:
                break
            length += 1
            if op == "jmp" and (ins.target is None or ins.target <= pc):
                cut = cut or length
                if ins.target is None or not leader < ins.target < pc:
                    break
            pc += 1
        loops = loop_nest(instructions, leader, length)
        if loops is None and cut is not None:
            length = cut
            loops = loop_nest(instructions, leader, length)
        is_loop = bool(_outer_back_edges(instructions, leader, length,
                                         loops or {}))
        if length >= (MIN_LOOP_LENGTH if is_loop else MIN_BLOCK_LENGTH):
            blocks.append((leader, length, is_loop))
    return blocks


def lazy_table(program: Program, timed: bool,
               compile_block: Callable) -> list:
    """A per-PC table: ``None`` off block entries, and at each entry of
    :func:`form_blocks` a countdown stub.  The stub returns ``None`` (run
    cold) until the entry's :func:`compile_reach`-th reach; then it puts
    ``compile_block(entry, length, is_loop)`` in its place and returns
    what that returns for its own arguments."""
    table: list = [None] * len(program.instructions)

    def stub(entry: int, length: int, is_loop: bool):
        left = compile_reach(timed, is_loop)

        def countdown(*args):
            nonlocal left
            left -= 1
            if left > 0:
                return None
            block = table[entry] = compile_block(entry, length, is_loop)
            return block(*args)
        return countdown

    for entry, length, is_loop in form_blocks(program):
        table[entry] = stub(entry, length, is_loop)
    return table


# -- the emitter ---------------------------------------------------------------


def block_operands(ins, statics: Dict[str, object]) -> Dict[str, Src]:
    """Template operands in a compiled block: registers are the locals
    ``r<n>``, immediates literals or names bound in ``statics``."""
    def immediate(slot):
        value = getattr(ins, slot)
        if not _literal(value):
            name = f"_const{len(statics)}"
            statics[name] = value
            return Src(name)
        return (ExactInt if value.__class__ is int else Src)(repr(value))

    return operands(ins.op, lambda slot: f"r{getattr(ins, slot)}",
                    immediate)


def _indent(lines: List[str]) -> List[str]:
    return ["    " + line for line in lines]


class Block:
    """The source of one block's function, relative to its entry.

    This is the functional form; the timing aspect
    (:class:`repro.timing.blocks.TimedBlock`) overrides the hooks marked
    as such to add what the run-ahead does around each instruction.
    """

    #: the function's name and its parameters before the exit table
    NAME, PARAMS = "sb", "ctx, budget"

    #: the instructions the caller lets the block retire, on entry
    ROOM = "budget"

    #: do stores keep the word they overwrite in ``_old``? (shadow aspect)
    KEEP_OLD = False

    def __init__(self, instructions, entry: int, length: int,
                 is_loop: bool):
        self.body = body = instructions[entry:entry + length]
        self.length = length
        self.is_loop = is_loop
        #: each position's control-flow target, relative to the entry
        self.targets = [None if ins.target is None else ins.target - entry
                        for ins in body]
        #: inner loop head -> its end; the index of its rerun counter
        #: ``_r<i>`` is its rank
        self.loops = loop_nest(instructions, entry, length) or {}
        self.reruns = {head: index
                       for index, head in enumerate(sorted(self.loops))}
        #: the inner loop being emitted, as ``(head, end)``
        self._loop: Optional[Tuple[int, int]] = None
        #: positions an iteration of a loop block retires at most: up to
        #: its last back-edge
        self.period = 1 + max(_outer_back_edges(
            instructions, entry, length, self.loops)) if is_loop else 0
        read, written = set(), set()
        for ins in body:
            dest, sources = operand_roles(ins.op)
            read.update(getattr(ins, slot) for slot in sources)
            if dest is not None:
                written.add(getattr(ins, dest))
        self.regs, self.written = sorted(read | written), sorted(written)
        #: arguments bound as defaults: static tables and constants
        self.statics: Dict[str, object] = {}
        #: ``(kind, positions complete, next pc offset)`` -> index, one
        #: per exit; exit ``j < length`` hands back position ``j``
        self.exits = {(FAULT, j, j): j for j in range(length)}
        #: skipped range ``(lo, hi)`` -> the index of its counter
        self.skips: Dict[Tuple[int, int], int] = {}
        #: the body's source lines and the position each belongs to
        #: (``None``: a transfer line, which hands nothing back)
        self.out: List[str] = []
        self.where: List[Optional[int]] = []
        #: positions with a value bound per entry as ``_b<i>`` after the
        #: exit table (the timing aspect's gshare index bases)
        self.bound: List[int] = []
        #: source-size budget for tail duplication (positions, not lines)
        self._dup_budget = 8 * length

    def _put(self, indent: str, lines: Sequence[str],
             j: Optional[int]) -> None:
        """Append ``lines`` at ``indent``, as code of position ``j``."""
        for line in lines:
            self.out.append(indent + line)
            self.where.append(j)

    # -- exits and edges -----------------------------------------------------

    def _exit(self, kind: int, d: int, pc: int) -> str:
        """Leave through the epilogue after ``d`` positions, for ``pc``."""
        index = self.exits.setdefault((kind, d, pc), len(self.exits))
        return f"_e = {index}; break"

    def _skip(self, lo: int, hi: int) -> List[str]:
        """Skip positions [lo, hi) (timing aspect hook)."""
        if hi <= lo:
            return []
        index = self.skips.setdefault((lo, hi), len(self.skips))
        return [f"_s{index} += 1"]

    def _back_edge(self, head: int, end: int) -> List[str]:
        """Start the next pass of the loop over [head, end), or leave at
        its head when another would not fit the budget (timing aspect
        hook).  An inner loop counts its reruns; a loop block's
        iterations are derived from ``_room`` in the epilogue."""
        if head:
            span = end - head
            lines = [f"_r{self.reruns[head]} += 1; _room -= {span}"]
        else:
            lines = [f"_room -= {self.period}"]
        return lines + ["if _room >= 0: continue",
                        self._exit(HEADROOM, head, head)]

    def _leave(self, indent: str, j: int, target: int, hi: int) -> None:
        """Take the edge from position ``j`` to ``target``, which does
        not merge into the range ending at ``hi``: loop, leave an inner
        loop, duplicate the block's tail, or exit."""
        length = self.length
        if self._loop is not None:
            head, end = self._loop
            if target == head:
                self._put(indent, self._skip(j + 1, end)
                          + self._back_edge(head, end), j)
            elif target == end:
                self._put(indent, self._skip(j + 1, end) + ["break"], j)
            else:
                self._put(indent, [self._exit(TAKEN, j + 1, target)], j)
        elif target == 0 and self.is_loop:
            self._put(indent, self._skip(j + 1, length)
                      + self._back_edge(0, length), j)
        elif hi < target <= length \
                and self._dup_budget >= length - target:
            self._dup_budget -= length - target
            self._put(indent, self._skip(j + 1, target), j)
            self._range(indent, target, length)
        else:
            self._put(indent, [self._exit(TAKEN, j + 1, target)], j)

    # -- instructions (timing aspect hooks) ----------------------------------

    def _instruction(self, j: int, ins) -> List[str]:
        """Lines of the instruction at position ``j``, not a branch (a
        ``jmp``'s come before its edge)."""
        sem = SEMANTICS[ins.op]
        ops = block_operands(ins, self.statics)
        if sem.kind == ALU:
            return [f"{ops['a']} = {sem.effect.format(**ops)}"]
        if sem.kind == LOAD or sem.kind == STORE:
            # memory counters are batched per block; a failed guard hands
            # the instruction back
            return access(sem, ops, [self._exit(GUARD, j, j)], counted=False,
                          old=self.KEEP_OLD and sem.kind == STORE)
        return sem.effect.format(out="_out", **ops).splitlines()

    def _transfer(self, j: int, ins) -> Tuple[str, ...]:
        """Lines run right after the effect of the instruction at
        position ``j``, which never hand it back (shadow aspect hook)."""
        return ()

    def _branch(self, j: int, ins) -> Tuple[List[str], str, List[str],
                                            List[str]]:
        """``(lines, condition, taken lines, fall-through lines)`` of
        the branch at position ``j``."""
        ops = block_operands(ins, self.statics)
        return [], SEMANTICS[ins.op].effect.format(**ops), [], []

    # -- the body ------------------------------------------------------------

    def _inner_loop(self, indent: str, head: int) -> int:
        """Emit the inner loop at ``head`` as a nested ``while``; an exit
        inside it breaks out through each level.  Returns its end."""
        end = self.loops[head]
        outer, self._loop = self._loop, (head, end)
        self._put(indent, ["while 1:"], head)
        if self._range(indent + "    ", head, end):
            self._put(indent + "    ", ["break"], end - 1)
        self._loop = outer
        self._put(indent, ["if _e is not None: break"], end - 1)
        return end

    def _range(self, indent: str, lo: int, hi: int) -> bool:
        """Emit positions [lo, hi); ends in an exit or a back-edge unless
        it merges back at ``hi`` < length, or ends an inner loop's pass.
        Returns whether control may reach ``hi``."""
        length = self.length
        j = lo
        while j < hi:
            if j in self.loops and (self._loop is None
                                    or self._loop[0] != j):
                j = self._inner_loop(indent, j)
                continue
            ins = self.body[j]
            target = self.targets[j]
            if ins.op == "jmp":
                self._put(indent, self._instruction(j, ins), j)
                if not j < target <= hi:
                    self._leave(indent, j, target, hi)
                    return False
                self._put(indent, self._skip(j + 1, target), j)
                j = target
            elif ins.op in TERMINATOR_OPCODES:
                lines, cond, taken, fall = self._branch(j, ins)
                self._put(indent, lines, j)
                self._put(indent, self._transfer(j, ins), None)
                inner = indent + "    "
                if not j < target <= hi:
                    self._put(indent, [f"if {cond}:"], j)
                    self._put(inner, taken, j)
                    self._leave(inner, j, target, hi)
                    self._put(indent, fall, j)
                    j += 1
                    continue
                # a forward edge inside the range: if-convert it
                if target > j + 1 or taken or fall:
                    self._put(indent, [f"if {cond}:"], j)
                    self._put(inner, taken + self._skip(j + 1, target)
                              or ["pass"], j)
                    self._put(indent, ["else:"], j)
                    emitted = len(self.out)
                    self._put(inner, fall, j)
                    self._range(inner, j + 1, target)
                    if len(self.out) == emitted:  # skipped only nops
                        self._put(inner, ["pass"], j)
                j = target
            else:
                self._put(indent, self._instruction(j, ins), j)
                self._put(indent, self._transfer(j, ins), None)
                j += 1
        if hi == length and self._loop is None:
            self._put(indent, [self._exit(FALL_THROUGH, length, length)],
                      length - 1)
        return True

    # -- prologue and epilogue (timing aspect hooks) -------------------------

    def _prologue(self) -> List[str]:
        """Enter with ``ROOM`` instructions left under the budget."""
        length = self.length
        lines = [f"if {self.ROOM} < {length}: return None"]
        if self.is_loop or self.loops:
            # one countdown for every loop level: each back-edge takes
            # its span, and the last pass may run on to the block's end
            lines.append(f"_room = {self.ROOM} - {length}"
                         + ("; _e = None" if self.loops else ""))
        if self.regs:
            lines.append("regs = ctx.regs; " + "; ".join(
                f"r{r} = regs[{r}]" for r in self.regs))
        if self.skips or self.loops:
            lines.append(" = ".join(
                [f"_s{i}" for i in self.skips.values()]
                + [f"_r{i}" for i in self.reruns.values()]) + " = 0")
        return lines

    def _total(self, flags) -> str:
        """The flagged positions the block completed, as an expression
        of ``_n``, the exit's ``_d`` and the skip counters ('' if no
        position is flagged)."""
        flags = list(flags)
        per = sum(flags)
        if not per:
            return ""
        terms = [f"_n * {per}"] if self.is_loop else []
        if per == self.length:
            terms.append("_d")
        else:  # a prefix table, bound as a default argument: as a source
            # literal it would cost the parser far more
            table = f"_t{len(self.statics)}"
            self.statics[table] = tuple(accumulate(flags, initial=0))
            terms.append(f"{table}[_d]")
        expr = " + ".join(terms)
        for head, index in self.reruns.items():
            rerun = sum(flags[head:self.loops[head]])
            if rerun:
                expr += f" + _r{index}" + (f" * {rerun}" if rerun > 1
                                           else "")
        for (lo, hi), index in self.skips.items():
            skipped = sum(flags[lo:hi])
            if skipped:
                expr += f" - _s{index}" + (f" * {skipped}" if skipped > 1
                                           else "")
        return expr

    def _counts(self) -> List[Tuple[str, list, str]]:
        """``(target, flag per position, suffix)`` of each count the
        epilogue adds to."""
        kinds = [SEMANTICS[ins.op].kind for ins in self.body]
        return [("_mem.load_count", [kind == LOAD for kind in kinds], ""),
                ("_mem.store_count", [kind == STORE for kind in kinds], "")]

    def _finish(self) -> List[str]:
        """The epilogue's last lines, after write-back and counts."""
        return [f"return {self._total([True] * self.length)}, _pc"]

    def generate(self) -> Tuple[List[str], tuple, tuple]:
        """``(source lines, static defaults, (relative exit table, bound
        positions))`` for :func:`shared_code`: one function
        ``NAME(PARAMS, _X, _b0, ..., *statics)``."""
        self._range("            ", 0, self.length)
        head = _indent(self._prologue()) + ["    try:", "        while 1:"]
        lines = ([""] + head + self.out
                 + ["    except Exception as _f:",
                    "        _e = _P[_f.__traceback__.tb_lineno]"])
        if None in self.where:  # a transfer raised: nothing to hand back
            lines.append("        if _e is None: raise")
        self.statics["_P"] = (0,) * (1 + len(head) + 1) + tuple(self.where)
        epilogue = ["_x, _d, _pc = _X[_e]"]
        if self.is_loop:  # the iterations, from what the back-edges took
            epilogue.append(f"_n = ({self.ROOM} - {self.length} - _room"
                            + "".join(f" - _r{self.reruns[head]} * "
                                      f"{end - head}"
                                      for head, end in self.loops.items())
                            + f") // {self.period}")
        if self.written:
            epilogue.append("; ".join(f"regs[{r}] = r{r}"
                                      for r in self.written))
        for target, flags, suffix in self._counts():
            total = self._total(flags)
            if total:
                epilogue.append(f"{target} += {total}{suffix}")
        lines += _indent(epilogue + self._finish())
        lines[0] = "def {}({}):".format(self.NAME, ", ".join(
            [self.PARAMS, "_X"] + [f"_b{i}" for i in range(len(self.bound))]
            + list(self.statics)))
        return (lines, tuple(self.statics.values()),
                (tuple(self.exits), tuple(self.bound)))


class ShadowBlock(Block):
    """The shadow aspect composed onto :class:`Block`: each observer's
    declared :class:`~repro.machine.events.Shadow` transfer, rendered by
    :func:`~repro.machine.semantics.transfer`, runs right after each
    instruction's effect.

    The observers' state objects are parameters after ``_K``, bound per
    block entry, so the transfers read them as locals.  Register-file
    entries the transfers touch are locals too, fetched for ``ctx`` in
    the prologue and written back (the ones written) in the epilogue, as
    registers are.  Cells are the entries of ``_K``, a list bound per
    block entry; each PC a transfer uses is a ``_b`` value bound per
    entry.
    """

    KEEP_OLD = True

    def __init__(self, instructions, entry: int, length: int,
                 is_loop: bool, shadows: tuple):
        super().__init__(instructions, entry, length, is_loop)
        self.shadows = shadows
        self.PARAMS = ", ".join(["ctx, budget, _K"] + [
            f"_{index}_{name}" for index, shadow in enumerate(shadows)
            for name in shadow_names(shadow)])
        #: ``(position, cell)`` -> its ``_K`` entry
        self.cells: Dict[Tuple[int, str], str] = {}
        #: register file -> {register: written by some transfer}
        self.files: Dict[str, Dict[int, bool]] = {}

    def _transfer(self, j: int, ins) -> Tuple[str, ...]:
        files, cells = self.files, self.cells

        def pc() -> str:
            if j not in self.bound:
                self.bound.append(j)
            return f"_b{self.bound.index(j)}"

        def entry(file: str, register: str, written: bool) -> str:
            touched = files.setdefault(file, {})
            index = int(register)
            touched[index] = touched.get(index, False) or written
            return f"_{file}_{register}"

        def cell(name: str) -> str:
            return cells.setdefault((j, name), f"_K[{len(cells)}]")

        return tuple(line for index, shadow in enumerate(self.shadows)
                     for line in transfer(ins.op, index, shadow, f"r{ins.a}",
                                          lambda slot: str(getattr(ins, slot)),
                                          pc, entry, cell))

    def _prologue(self) -> List[str]:
        return super()._prologue() + [
            f"_{file} = {file}[ctx.context_id]; " + "; ".join(
                f"_{file}_{r} = _{file}[{r}]" for r in sorted(touched))
            for file, touched in self.files.items()]

    def _finish(self) -> List[str]:
        written = [[r for r in sorted(touched) if touched[r]]
                   for touched in self.files.values()]
        return ["; ".join(f"_{file}[{r}] = _{file}_{r}" for r in registers)
                for file, registers in zip(self.files, written)
                if registers] + super()._finish()

    def generate(self) -> Tuple[List[str], tuple, tuple]:
        """As :meth:`Block.generate`, with the number of cells last in
        the data: ``(exit table, bound positions, cells)``."""
        lines, statics, data = super().generate()
        return lines, statics, data + (len(self.cells),)


# -- the functional tier -------------------------------------------------------


def block_code(instructions, entry: int, length: int, is_loop: bool,
               shadows: tuple = ()):
    """The ``(code, statics, data)`` of the functional block of
    ``length`` instructions at ``entry``, shared by shape; with
    ``shadows``, running their transfers (:class:`ShadowBlock`) and
    compiled afresh, since observed shapes seldom recur."""
    if shadows:
        return shared_code(None, ShadowBlock(
            instructions, entry, length, is_loop, shadows).generate,
            SB_FILENAME)
    pcs = range(entry, entry + length)
    return shared_code(
        (SB_PREFIX, is_loop, shape(instructions, pcs, entry)),
        lambda: Block(instructions, entry, length, is_loop).generate(),
        SB_FILENAME)


def block_namespace(machine, **bound) -> dict:
    """Globals of compiled blocks on ``machine``, plus ``bound``."""
    memory = machine.memory
    return dict(HELPERS, __builtins__=builtins, _mem=memory,
                _words=memory._words, _get=memory._words.get,
                _limit=memory.limit, _out=machine.output.append, **bound)


def install(machine) -> list:
    """The block table of ``machine`` for ``Machine.run``: a
    :func:`lazy_table` of functional blocks.  Blocks bind the machine's
    memory and output buffer by identity, which ``Machine.restore``
    preserves.

    With observers attached, every one of which must declare a
    :class:`~repro.machine.events.Shadow`, the blocks run their
    transfers (:class:`ShadowBlock`) over each observer's
    ``shadow_state()``, bound per entry.  Such a table is
    cleared when the machine is freed: its countdown stubs and the table
    refer to each other, and the cycle would otherwise keep the
    machine's memory and the observers' state until a full garbage
    collection."""
    instructions = machine.program.instructions
    observers = machine._observers
    shadows = tuple(observer.shadow for observer in observers)
    state: list = []
    for observer in observers:
        objects = observer.shadow_state()
        state += [objects[name] for name in shadow_names(observer.shadow)]
    namespace = block_namespace(machine)

    def compile_block(entry: int, length: int, is_loop: bool):
        code, statics, data = block_code(instructions, entry, length,
                                         is_loop, shadows)
        exits = tuple((kind, d, -2 - entry - pc if kind >= GUARD
                       else entry + pc) for kind, d, pc in data[0])
        defaults = (exits,) + statics
        if shadows:  # cells, state, exits, pcs, statics
            defaults = ([None] * data[2], *state, exits,
                        *[entry + j for j in data[1]], *statics)
        return bind(code, f"{SB_PREFIX}{entry}", namespace, defaults)

    table = lazy_table(machine.program, False, compile_block)
    if shadows:
        weakref.finalize(machine, table.clear)
    return table
