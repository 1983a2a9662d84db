"""Superblock compiler: compiled straight-line runs for ``Machine.run``.

``Machine.run`` dispatches these compiled blocks at their entries and
falls back to the closure thunks (:mod:`repro.machine.fastpath`), which
pay one Python call per instruction, everywhere else.  The compiler
partitions the program into single-entry multi-exit *superblocks* and
lowers each hot one into one Python function built with ``compile``.
Inside a block, registers live in Python locals, ALU ops are inline
expressions, and memory accesses go straight at the machine's words dict
behind the same in-range-exact-``int`` guard the closure thunks use —
with load/store counters batched per block instead of per access.  Each
instruction's source comes from its template in
:mod:`repro.machine.semantics`, as the thunks' and step handlers' does;
this module adds only block formation and the exit and fault
accounting.

Block formation
---------------
A superblock starts at every *leader* — the program entry, every resolved
control-flow target, every label, every support-thread entry, and the
instruction after any boundary opcode — and extends as far as codegen can
take it (blocks from different leaders may overlap; the compiled function
is only ever entered at its own top).  Extension stops at a ``jmp``
(compiled as the block's final edge), at a *boundary* opcode that must
stay on the thunk path — ``call``/``ret`` (call-stack effects), the
engine opcodes ``tst``/``tstx``/``tcheck``/``treturn``, and ``halt``
(context state) — or at :data:`MAX_BLOCK_LENGTH`.

Conditional branches do **not** end a block:

* a branch whose target lies *forward inside* the block is if-converted —
  the skipped range becomes a nested ``else`` suite and a ``_skip``
  accumulator keeps the retired-instruction count exact;
* a branch (or the final ``jmp``) targeting the block's own *entry* makes
  a *loop block*: iterations run inside the function, bounded by the
  chunk budget the driver passes in, so tight kernels never leave
  compiled code;
* any other taken branch is a normal *block exit*: registers are written
  back, counters reconciled, and the target PC returned.

Blocks compile lazily: :func:`install` fills the block table with stubs
that side-exit until a block's :data:`LOOP_REACHES`-th or
:data:`LINE_REACHES`-th reach, then bind it in their place and run it.

Side exits and faults
---------------------
The contract with :meth:`Machine.run` (mirroring the thunk contract):

* return ``>= 0`` — the block retired ``cell[0]`` instructions and the
  return value is the next PC;
* return ``<= -2`` — a *side exit* encoding ``-2 - pc``: ``cell[0]``
  instructions retired, then the guard at ``pc`` failed (out-of-range or
  non-``int`` address, or no budget headroom); the driver dispatches the
  closure thunk at ``pc``, which reruns the full handler with exact
  fault/engine semantics;
* an exception with ``cell[1]`` set — a fault inside the block.  The
  except path has already written registers back, reconciled the batched
  memory counters, stored the retired count (including the faulting
  instruction, as in ``step()``) in ``cell[0]``, and left ``ctx.pc`` at
  the faulting instruction.

The except path finds the faulting position from the traceback's line
number through a static line-to-position table, so no instruction pays
for a marker.

Code cache
----------
Code is relocatable: the entry PC is the function's ``_E`` argument,
and static tables and non-literal immediates are argument defaults.  So
a block's code depends only on its *shape* — opcodes, operands and
targets relative to the entry — and one process-wide LRU cache
(:func:`shared_code`), which the timed tier shares, compiles each shape
once.  Each entry binds it over its machine's globals, renamed
``sb_<entry_pc>`` for profiles; :func:`cache_stats` counts the work.
"""

from __future__ import annotations

import builtins
import math
import time
from collections import OrderedDict
from types import CodeType, FunctionType
from typing import Callable, Dict, List, NamedTuple, Tuple

from repro.isa.instructions import operand_roles
from repro.isa.program import Program
from repro.machine.semantics import (ALU, BRANCH, ENGINE_OPCODES, HELPERS,
                                     LOAD, SEMANTICS, STORE, ExactInt, Src,
                                     access, operands)

#: conditional branches (compiled as block exits, internal diamonds, or
#: loop back-edges) and ``jmp`` (a block's final edge)
TERMINATOR_OPCODES = frozenset(
    op for op, sem in SEMANTICS.items() if sem.kind == BRANCH) | {"jmp"}

#: ops that never enter a block: they stay on the closure-thunk path
#: because they touch the call stack, the DTT engine, or context state
BOUNDARY_OPCODES = frozenset(["call", "ret"]) | ENGINE_OPCODES

#: synthetic filename of the compiled code; profiler frames from
#: compiled blocks show as (SB_FILENAME, line, "sb_<entry_pc>")
SB_FILENAME = "<superblock>"

#: function-name prefix of compiled blocks (flame folding keys off it)
SB_PREFIX = "sb_"

#: straight-line blocks shorter than this stay on the thunk path (the
#: per-call spill/fill overhead would eat the win); loop blocks amortize
#: that overhead over iterations, so any 2-instruction loop qualifies
MIN_BLOCK_LENGTH = 3
MIN_LOOP_LENGTH = 2

#: codegen stops extending a block past this many instructions
MAX_BLOCK_LENGTH = 256

#: the reach of its entry that compiles a loop / straight-line block
#: (earlier reaches run on the thunks, cheaper for a block run rarely)
LOOP_REACHES = 1
LINE_REACHES = 16

#: block shapes the code cache keeps; the least recently used goes first
CACHE_SHAPES = 32

#: everything the code generator can lower (anything else bounds a block)
COMPILABLE_OPCODES = frozenset(SEMANTICS) - BOUNDARY_OPCODES

#: compilable ops that can never raise on int/float operands; a block
#: of only these needs no fault-reconciliation path
_SAFE_OPCODES = frozenset(
    op for op in COMPILABLE_OPCODES if not SEMANTICS[op].faults)

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


def shared_code(key: tuple, generate: Callable[[], tuple],
                filename: str) -> tuple:
    """The cached ``(code, statics, data)`` of the block shape ``key``;
    on a miss ``generate()`` returns ``(source lines of one function
    whose trailing parameters default to statics, statics, data)``."""
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
    cached = _CODE_CACHE[key] = (code, statics, data)
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
    """PCs where a superblock may begin."""
    size = len(program.instructions)
    leaders = {program.entry_pc}
    for pc in program.labels.values():
        if pc < size:
            leaders.add(pc)
    for name in program.threads:
        leaders.add(program.thread_entry_pc(name))
    for pc, ins in enumerate(program.instructions):
        if ins.target is not None and ins.target < size:
            leaders.add(ins.target)
        op = ins.op
        if (op in TERMINATOR_OPCODES or op in BOUNDARY_OPCODES
                or op not in COMPILABLE_OPCODES):
            if pc + 1 < size:
                leaders.add(pc + 1)
    return leaders


def form_blocks(program: Program) -> List[Tuple[int, int, bool]]:
    """Superblocks as ``(entry_pc, length, is_loop)``.

    One maximal block per leader; blocks may overlap (each is a compiled
    fast path for entry at its own top only).  Only blocks worth
    compiling are returned (``MIN_BLOCK_LENGTH``, or ``MIN_LOOP_LENGTH``
    when a back-edge targets the entry); every other PC runs on the
    closure-thunk path.
    """
    instructions = program.instructions
    size = len(instructions)
    blocks: List[Tuple[int, int, bool]] = []
    for leader in sorted(find_leaders(program)):
        if leader >= size:
            continue
        length = 0
        is_loop = False
        pc = leader
        while pc < size and length < MAX_BLOCK_LENGTH:
            ins = instructions[pc]
            op = ins.op
            if op not in COMPILABLE_OPCODES:
                break
            length += 1
            if op in TERMINATOR_OPCODES and ins.target == leader:
                is_loop = True
            if op == "jmp":
                # scan through forward jmps (codegen lowers them to an
                # unconditional skip, keeping diamonds like
                # ``beqz L1; ...; jmp L2; L1: ...; L2:`` inside one
                # block); a backward, self, or unresolved jmp ends it
                if ins.target is None or ins.target <= pc:
                    break
            pc += 1
        minimum = MIN_LOOP_LENGTH if is_loop else MIN_BLOCK_LENGTH
        if length >= minimum:
            blocks.append((leader, length, is_loop))
    return blocks


# -- code generation -----------------------------------------------------------


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


def block_registers(body) -> Tuple[List[int], List[int]]:
    """The registers ``body`` reads or writes, and those it writes."""
    read, written = set(), set()
    for ins in body:
        dest, sources = operand_roles(ins.op)
        read.update(getattr(ins, slot) for slot in sources)
        if dest is not None:
            written.add(getattr(ins, dest))
    return sorted(read | written), sorted(written)


def prefix(flags) -> tuple:
    """Running totals: entry ``d`` counts the flags of positions < d."""
    totals = [0]
    for flag in flags:
        totals.append(totals[-1] + flag)
    return tuple(totals)


class _BlockGen:
    """Source generator for one superblock, relative to its entry."""

    def __init__(self, body, entry: int, is_loop: bool):
        self.body = body
        self.length = length = len(body)
        self.is_loop = is_loop
        #: each position's control-flow target, relative to the entry
        self.targets = [None if ins.target is None else ins.target - entry
                        for ins in body]
        #: arguments bound as defaults: static tables and constants
        self.statics: Dict[str, object] = {}
        self.regs, self.written = block_registers(body)
        #: loads/stores at positions < j, assuming the straight-line path
        self.loads_before = prefix(ins.op in ("ld", "ldx") for ins in body)
        self.stores_before = prefix(ins.op in ("st", "stx") for ins in body)
        self.marked = any(ins.op not in _SAFE_OPCODES for ins in self.body)
        #: source-size budget for tail duplication (positions, not lines)
        self._dup_budget = 8 * length
        # which skip accumulators the block needs: every edge that can
        # skip a straight-line range [lo, hi) (if-converted diamonds and
        # loop-continue back-edges)
        skips = [(j + 1, length if target == 0 else target)
                 for j, target in enumerate(self.targets)
                 if body[j].op in TERMINATOR_OPCODES
                 and (target == 0 or j < target <= length)]
        skips = [(lo, hi) for lo, hi in skips if hi > lo]
        self.has_skip = bool(skips)
        self.has_skip_loads = any(self.loads_before[hi] > self.loads_before[lo]
                                  for lo, hi in skips)
        self.has_skip_stores = any(
            self.stores_before[hi] > self.stores_before[lo]
            for lo, hi in skips)
        #: the function's source lines (the header is filled in last)
        #: and, per line number, the position its code belongs to
        self.out: List[str] = [""]
        self.where: List[int] = [0, 0]

    def _put(self, indent: str, lines: List[str], j: int) -> None:
        """Append ``lines`` at ``indent``, as code of position ``j``."""
        for line in lines:
            self.out.append(indent + line)
            self.where.append(j)

    # -- accounting expressions ---------------------------------------------

    def _retired(self, k) -> str:
        """Instructions retired once ``k`` positions of the current
        iteration are complete (``k``: int or a runtime expression)."""
        terms = []
        if self.is_loop:
            terms.append(f"_n * {self.length}")
        if isinstance(k, int):
            if k:
                terms.append(str(k))
        else:
            terms.append(k)
        expr = " + ".join(terms) if terms else "0"
        if self.has_skip:
            expr += " - _skip"
        return expr

    def _counter_line(self, counter: str, per_iter: int, upto,
                      skipped: bool) -> str:
        """``_mem.<counter> += ...`` for the cutoff ``upto``, or ''."""
        before = self.loads_before if counter == "load_count" \
            else self.stores_before
        terms = []
        if self.is_loop and per_iter:
            terms.append(f"_n * {per_iter}" if per_iter != 1 else "_n")
        if isinstance(upto, int):
            if before[upto]:
                terms.append(str(before[upto]))
        else:
            terms.append(upto)
        if not terms and not skipped:
            return ""
        expr = " + ".join(terms) if terms else "0"
        if skipped:
            accumulator = "_skl" if counter == "load_count" else "_sks"
            expr += f" - {accumulator}"
        return f"_mem.{counter} = _mem.{counter} + {expr}"

    def _exit_lines(self, k, next_expr) -> List[str]:
        """Write back, reconcile counters, report, and leave the block.

        ``k`` — positions of the current iteration complete at the exit
        (int, or a runtime expression for the fault path); ``next_expr``
        — the return value (a PC, or the ``-2 - pc`` side-exit code), or
        ``None`` on the fault path where the exception propagates.
        """
        lines = [f"regs[{r}] = r{r}" for r in self.written]
        if isinstance(k, int):
            upto_loads = upto_stores = k
        else:
            # fault path: index the per-position prefix tables by _k
            # (exclusive — a faulting instruction never reached memory)
            self.statics.update(_LB=self.loads_before,
                                _SB=self.stores_before)
            upto_loads = self.loads_before[-1] and "_LB[_k]"
            upto_stores = self.stores_before[-1] and "_SB[_k]"
        loads = self._counter_line(
            "load_count", self.loads_before[self.length],
            upto_loads, self.has_skip_loads)
        stores = self._counter_line(
            "store_count", self.stores_before[self.length],
            upto_stores, self.has_skip_stores)
        if loads:
            lines.append(loads)
        if stores:
            lines.append(stores)
        lines.append(f"_cell[0] = {self._retired(k)}")
        if next_expr is not None:
            lines.append(f"return {next_expr}")
        return lines

    def _skip_lines(self, lo: int, hi: int) -> List[str]:
        """Account for not executing straight-line positions [lo, hi)."""
        lines = []
        span = hi - lo
        if not span or not self.has_skip:
            return lines
        lines.append(f"_skip = _skip + {span}")
        loads = self.loads_before[hi] - self.loads_before[lo]
        stores = self.stores_before[hi] - self.stores_before[lo]
        if loads and self.has_skip_loads:
            lines.append(f"_skl = _skl + {loads}")
        if stores and self.has_skip_stores:
            lines.append(f"_sks = _sks + {stores}")
        return lines

    def _continue_lines(self) -> List[str]:
        """Take a back-edge to the entry (next iteration or block exit)."""
        lines = ["_n = _n + 1"]
        lines.append("if _n < _maxn:")
        lines.append("    continue")
        lines.extend(self._exit_lines(0, "_E"))
        return lines

    # -- per-instruction emitters --------------------------------------------

    def _emit_plain(self, j: int, ins) -> List[str]:
        sem = SEMANTICS[ins.op]
        ops = block_operands(ins, self.statics)
        if sem.kind == ALU:
            return [f"{ops['a']} = {sem.effect.format(**ops)}"]
        if sem.kind == LOAD or sem.kind == STORE:
            # memory counters are batched per block: the fast path does
            # not count, and a failed guard side-exits to the thunk
            side_exit = self._exit_lines(j, f"{-2 - j} - _E")
            return access(sem, ops, side_exit, counted=False)
        # out, nop
        return sem.effect.format(out="_out", **ops).splitlines()

    def _emit_range(self, indent: str, lo: int, hi: int) -> None:
        """Emit positions [lo, hi); ends with an exit unless it merges
        back into the enclosing range."""
        length = self.length
        j = lo
        while j < hi:
            ins = self.body[j]
            op = ins.op
            target = self.targets[j]
            if op == "jmp":
                if target == 0 and self.is_loop:
                    self._put(indent, self._continue_lines(), j)
                    return
                if j < target <= hi:
                    # forward jmp inside this range: an unconditional
                    # skip straight to its target
                    self._put(indent, self._skip_lines(j + 1, target), j)
                    j = target
                    continue
                if hi < target <= length \
                        and self._dup_budget >= length - target:
                    # forward jmp past this range's merge point but
                    # still inside the block: duplicate the tail so
                    # this path reaches the block's back-edge/exit
                    # without leaving compiled code
                    self._dup_budget -= length - target
                    self._put(indent, self._skip_lines(j + 1, target), j)
                    self._emit_range(indent, target, length)
                    return
                # backward or out-of-reach: leave the block (anything
                # after this position is unreachable along this path)
                self._put(indent, self._exit_lines(j + 1, f"_E + {target}"),
                          j)
                return
            if op in TERMINATOR_OPCODES:
                cond = SEMANTICS[op].effect.format(
                    **block_operands(ins, self.statics))
                inner = indent + "    "
                if target == 0 and self.is_loop:
                    self._put(indent, [f"if {cond}:"], j)
                    self._put(inner, self._skip_lines(j + 1, length), j)
                    self._put(inner, self._continue_lines(), j)
                elif j < target <= hi:
                    # forward branch inside this range: if-convert it.
                    # A branch to the very next instruction is a no-op
                    # (taken or not, execution continues at j + 1).
                    if target > j + 1:
                        skip = self._skip_lines(j + 1, target)
                        self._put(indent, [f"if {cond}:"], j)
                        self._put(inner, skip or ["pass"], j)
                        self._put(indent, ["else:"], j)
                        emitted = len(self.out)
                        self._emit_range(inner, j + 1, target)
                        if len(self.out) == emitted:  # skipped only nops
                            self._put(inner, ["pass"], j)
                    j = target
                    continue
                elif hi < target <= length \
                        and self._dup_budget >= length - target:
                    # taken edge lands past this range's merge point but
                    # inside the block: duplicate the tail on that edge
                    self._dup_budget -= length - target
                    self._put(indent, [f"if {cond}:"], j)
                    self._put(inner, self._skip_lines(j + 1, target), j)
                    self._emit_range(inner, target, length)
                else:
                    self._put(indent, [f"if {cond}:"], j)
                    self._put(inner,
                              self._exit_lines(j + 1, f"_E + {target}"), j)
                j += 1
                continue
            self._put(indent, self._emit_plain(j, ins), j)
            j += 1
        if hi == length:
            # fell off the block's end: continue at the next instruction
            self._put(indent, self._exit_lines(length, f"_E + {length}"),
                      length - 1)

    # -- whole-function assembly ----------------------------------------------

    def generate(self) -> Tuple[List[str], tuple, None]:
        """``(source lines, static defaults, None)`` for
        :func:`shared_code`: one function ``sb(ctx, _E, *statics)``."""
        length = self.length
        skips = [name for name, used in (("_skip", self.has_skip),
                                         ("_skl", self.has_skip_loads),
                                         ("_sks", self.has_skip_stores))
                 if used]
        self._put("    ", ["_b = _bc[0]", f"if _b < {length}:",
                           "    _cell[0] = 0", "    return -2 - _E",
                           "regs = ctx.regs"]
                  + [f"r{r} = regs[{r}]" for r in self.regs]
                  + [f"_maxn = _b // {length}", "_n = 0"] * self.is_loop
                  + [f"{name} = 0" for name in skips]
                  + ["try:"] * self.marked, 0)
        indent = "    " + ("    " if self.marked else "")
        if self.is_loop:
            self._put(indent, ["while 1:"], 0)
            self._emit_range(indent + "    ", 0, length)
        else:
            self._emit_range(indent, 0, length)
        if self.marked:
            self._put("    ", ["except BaseException as _f:"], 0)
            self._put("        ", ["_k = _P[_f.__traceback__.tb_lineno]"]
                      + self._exit_lines("_k + 1", None)
                      + ["_cell[1] = 1", "ctx.pc = _E + _k", "raise"], 0)
            self.statics["_P"] = tuple(self.where)
        self.out[0] = "def sb(ctx, _E, {}):".format(", ".join(self.statics))
        return self.out, tuple(self.statics.values()), None


def _block_code(instructions, entry: int, length: int, is_loop: bool):
    """The shared code and static defaults of the block at ``entry``."""
    pcs = range(entry, entry + length)
    return shared_code((SB_PREFIX, is_loop, shape(instructions, pcs, entry)),
                       lambda: _BlockGen(instructions[entry:entry + length],
                                         entry, is_loop).generate(),
                       SB_FILENAME)


def block_namespace(machine, **bound) -> dict:
    """Globals of compiled blocks on ``machine``, plus ``bound``."""
    memory = machine.memory
    return dict(HELPERS, __builtins__=builtins, _mem=memory,
                _words=memory._words, _get=memory._words.get,
                _limit=memory.limit, _out=machine.output.append, **bound)


#: a program's ``(entry_pc, length)`` blocks and code object per entry
CompiledBlocks = NamedTuple("CompiledBlocks",
                            [("blocks", list), ("codes", dict)])


def compile_blocks(program: Program) -> CompiledBlocks:
    """Compile every block of ``program`` now (unlike :func:`install`)."""
    blocks = form_blocks(program)
    return CompiledBlocks(
        [(entry, length) for entry, length, _ in blocks],
        {entry: _block_code(program.instructions, entry, length,
                            is_loop)[0]
         for entry, length, is_loop in blocks})


# -- per-machine installation --------------------------------------------------


def install(machine):
    """Bind a machine to its program's blocks, compiled as they get hot.

    Returns ``(table, cell, budget_cell)``: a per-PC table holding a
    countdown stub at each block entry (``None`` elsewhere), the
    ``[retired, fault_flag]`` cell every block reports through, and the
    one-element chunk-budget cell the driver refreshes before each call.
    Blocks bind memory, output buffer and cells by identity, which
    ``Machine.restore`` preserves.
    """
    instructions = machine.program.instructions
    cell, budget_cell = [0, 0], [0]
    namespace = block_namespace(machine, _cell=cell, _bc=budget_cell)
    table = [None] * len(instructions)

    def stub(entry: int, length: int, is_loop: bool):
        reaches = LOOP_REACHES if is_loop else LINE_REACHES

        def countdown(ctx):
            nonlocal reaches
            reaches -= 1
            if reaches > 0:
                cell[0] = 0
                return -2 - entry
            code, statics, _ = _block_code(instructions, entry, length,
                                           is_loop)
            block = table[entry] = bind(code, f"{SB_PREFIX}{entry}",
                                        namespace, (entry,) + statics)
            return block(ctx)
        return countdown

    for entry, length, is_loop in form_blocks(machine.program):
        table[entry] = stub(entry, length, is_loop)
    return table, cell, budget_cell
