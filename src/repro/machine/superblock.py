"""Superblock compiler: exec-compiled straight-line runs for ``Machine.run``.

``Machine.run`` dispatches these compiled blocks at their entries and
falls back to the closure thunks (:mod:`repro.machine.fastpath`), which
pay one Python call per instruction, everywhere else.  The compiler
partitions the program into single-entry multi-exit *superblocks* and
lowers each into one Python function built with ``compile``/``exec``.
Inside a block, registers live in Python locals, ALU ops are inline
expressions, and memory accesses go straight at the machine's words dict
behind the same in-range-exact-``int`` guard the closure thunks use —
with load/store counters batched per block instead of per access.

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

Every instruction that can raise (any ``int()``/``float()`` coercion,
division, ``fsqrt``, and even plain ``+``/``-``/``*`` — a huge ``int``
meeting a ``float`` overflows) is preceded by a ``_k = <position>``
marker so the except path knows exactly how far the block got.

Code cache
----------
Compiled code objects depend only on the *program*, not the machine:
machine state (memory, output buffer, counter cells) is bound via the
globals dict at ``exec`` time.  A process-wide weak-keyed cache therefore
shares one compile across every machine running the same program;
:func:`cache_stats` / :func:`publish_metrics` expose build time and
hit rates to the obs metrics registry.
"""

from __future__ import annotations

import math
import time
import weakref
from typing import Dict, List, Optional, Tuple

from repro.isa.program import Program
from repro.machine.machine import ENGINE_OPCODES

#: conditional branches (compiled as block exits, internal diamonds, or
#: loop back-edges) and ``jmp`` (a block's final edge)
TERMINATOR_OPCODES = frozenset(
    ["beq", "bne", "blt", "ble", "bgt", "bge", "beqz", "bnez", "jmp"]
)

#: ops that never enter a block: they stay on the closure-thunk path
#: because they touch the call stack, the DTT engine, or context state
BOUNDARY_OPCODES = frozenset(["call", "ret"]) | ENGINE_OPCODES

#: synthetic filename of the compiled module; profiler frames from
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

_CMP = {
    "beq": "==", "bne": "!=", "blt": "<", "ble": "<=",
    "bgt": ">", "bge": ">=",
}

#: ops with inline int-coercion codegen:  int(b) <op> int(c)
_INT_BIN = {"and_": "&", "or_": "|", "xor": "^", "shl": "<<", "shr": ">>"}
_INT_BIN_IMM = {"andi": "&", "ori": "|", "xori": "^",
                "shli": "<<", "shri": ">>"}

#: ops with inline float-coercion codegen:  float(b) <op> float(c)
_FLOAT_BIN = {"fadd": "+", "fsub": "-", "fmul": "*"}

#: plain arithmetic (still fault-capable: huge int + float overflows)
_NUM_BIN = {"add": "+", "sub": "-", "mul": "*"}
_NUM_BIN_IMM = {"addi": "+", "subi": "-", "muli": "*"}

#: comparison-producing ops (provably fault-free on numbers)
_SETCC = {"slt": "<", "sle": "<=", "sgt": ">", "sge": ">=",
          "seq": "==", "sne": "!="}
_SETCC_IMM = {"slti": "<", "sgti": ">", "seqi": "=="}

#: everything the code generator can lower (anything else bounds a block)
COMPILABLE_OPCODES = frozenset(
    ["li", "mov", "nop", "out", "ld", "ldx", "st", "stx",
     "idiv", "imod", "fdiv", "fsqrt", "fabs", "fneg", "itof", "ftoi"]
) | TERMINATOR_OPCODES | set(_INT_BIN) | set(_INT_BIN_IMM) \
  | set(_FLOAT_BIN) | set(_NUM_BIN) | set(_NUM_BIN_IMM) \
  | set(_SETCC) | set(_SETCC_IMM)

#: compilable ops that can never raise on int/float operands; everything
#: else gets a ``_k`` position marker for the fault-reconciliation path
_SAFE_OPCODES = frozenset(
    ["li", "mov", "nop", "out"]
) | TERMINATOR_OPCODES | set(_SETCC) | set(_SETCC_IMM)

# -- process-wide code cache ---------------------------------------------------

_STATS = {
    "cache_hits": 0,
    "cache_misses": 0,
    "build_seconds": 0.0,
    "blocks_compiled": 0,
    "programs_compiled": 0,
}

_CODE_CACHE: "weakref.WeakKeyDictionary[Program, CompiledBlocks]" = (
    weakref.WeakKeyDictionary()
)


class CompiledBlocks:
    """One program's compiled superblocks: shared, machine-independent."""

    __slots__ = ("code", "blocks", "consts", "source", "__weakref__")

    def __init__(self, code, blocks: List[Tuple[int, int]],
                 consts: Dict[str, object], source: str):
        self.code = code
        #: (entry_pc, length) per compiled block
        self.blocks = blocks
        #: immediates that cannot be written as source literals
        self.consts = consts
        self.source = source

    def __repr__(self) -> str:
        return f"CompiledBlocks({len(self.blocks)} blocks)"


def cache_stats() -> Dict[str, float]:
    """Process-wide code-cache counters (hits, misses, build seconds)."""
    stats = dict(_STATS)
    total = stats["cache_hits"] + stats["cache_misses"]
    stats["hit_rate"] = stats["cache_hits"] / total if total else 0.0
    return stats


def reset_cache_stats() -> None:
    """Zero the cache counters (bench/test isolation; cache is kept)."""
    for key in _STATS:
        _STATS[key] = 0.0 if key == "build_seconds" else 0


def publish_metrics(registry) -> None:
    """Mirror the cache counters into a metrics registry as gauges.

    Gauges (not counters) because the stats are process-wide totals and
    publishing must be idempotent across registries and repeat calls.
    """
    stats = cache_stats()
    registry.gauge(
        "superblock.cache_hits",
        "superblock code-cache hits (compile skipped)").set(
            stats["cache_hits"])
    registry.gauge(
        "superblock.cache_misses",
        "superblock code-cache misses (programs compiled)").set(
            stats["cache_misses"])
    registry.gauge(
        "superblock.build_seconds",
        "cumulative superblock codegen+compile wall-clock").set(
            stats["build_seconds"])
    registry.gauge(
        "superblock.blocks_compiled",
        "superblocks compiled across all programs").set(
            stats["blocks_compiled"])
    registry.gauge(
        "superblock.programs_compiled",
        "distinct programs with compiled superblocks").set(
            stats["programs_compiled"])
    registry.gauge(
        "superblock.hit_rate",
        "code-cache hit fraction over all lookups").set(
            stats["hit_rate"])


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


def _lit(value, consts: Dict[str, object]) -> str:
    """A source literal for an immediate, or a bound constant name.

    ``repr`` round-trips exactly for ``int`` and finite ``float``;
    anything else (``inf``/``nan``, numeric subclasses) is bound by
    reference so runtime semantics match the thunks bit for bit.
    """
    cls = value.__class__
    if cls is bool or cls is int:
        return repr(value)
    if cls is float and math.isfinite(value):
        return repr(value)
    name = f"_const{len(consts)}"
    consts[name] = value
    return name


def _reg_uses(ins) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """(read registers, written registers) of one compilable instruction."""
    op = ins.op
    if op == "li":
        return (), (ins.a,)
    if op == "mov":
        return (ins.b,), (ins.a,)
    if op in ("nop", "jmp"):
        return (), ()
    if op in ("out", "beqz", "bnez"):
        return (ins.a,), ()
    if op in _CMP:
        return (ins.a, ins.b), ()
    if op == "ld":
        return (ins.b,), (ins.a,)
    if op == "ldx":
        return (ins.b, ins.c), (ins.a,)
    if op == "st":
        return (ins.a, ins.b), ()
    if op == "stx":
        return (ins.a, ins.b, ins.c), ()
    if op in _NUM_BIN or op in _INT_BIN or op in _FLOAT_BIN \
            or op in _SETCC or op in ("idiv", "imod", "fdiv"):
        return (ins.b, ins.c), (ins.a,)
    # remaining two-operand forms: rri ALU and rr unary ALU
    return (ins.b,), (ins.a,)


def _branch_condition(ins) -> str:
    op = ins.op
    if op == "beqz":
        return f"r{ins.a} == 0"
    if op == "bnez":
        return f"r{ins.a} != 0"
    return f"r{ins.a} {_CMP[op]} r{ins.b}"


class _BlockGen:
    """Source generator for one superblock."""

    def __init__(self, program: Program, entry: int, length: int,
                 is_loop: bool, consts: Dict[str, object]):
        self.entry = entry
        self.length = length
        self.is_loop = is_loop
        self.consts = consts
        self.body = program.instructions[entry:entry + length]
        read: set = set()
        written: set = set()
        for ins in self.body:
            r, w = _reg_uses(ins)
            read.update(r)
            written.update(w)
        self.regs = sorted(read | written)
        self.written = sorted(written)
        #: loads/stores at positions < j, assuming the straight-line path
        self.loads_before = [0] * (length + 1)
        self.stores_before = [0] * (length + 1)
        for j, ins in enumerate(self.body):
            self.loads_before[j + 1] = (
                self.loads_before[j] + (ins.op in ("ld", "ldx")))
            self.stores_before[j + 1] = (
                self.stores_before[j] + (ins.op in ("st", "stx")))
        self.marked = any(ins.op not in _SAFE_OPCODES for ins in self.body)
        #: source-size budget for tail duplication (positions, not lines)
        self._dup_budget = 8 * length
        # which skip accumulators the block needs: scan every edge that
        # can skip a straight-line range (if-converted diamonds and
        # loop-continue back-edges)
        self.has_skip = False
        self.has_skip_loads = False
        self.has_skip_stores = False
        for j, ins in enumerate(self.body):
            if ins.op not in TERMINATOR_OPCODES:
                continue
            target = ins.target
            if target == entry:
                lo, hi = j + 1, length
            elif entry + j < target <= entry + length:
                lo, hi = j + 1, target - entry
            else:
                continue
            if hi > lo:
                self.has_skip = True
                if self.loads_before[hi] > self.loads_before[lo]:
                    self.has_skip_loads = True
                if self.stores_before[hi] > self.stores_before[lo]:
                    self.has_skip_stores = True

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

    def _exit_lines(self, k, next_expr: Optional[str]) -> List[str]:
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
            # fault path: index the per-position prefix tuples by _k
            # (exclusive — a faulting instruction never reached memory)
            upto_loads = (f"_LB{self.entry}[_k]"
                          if self.loads_before[self.length] else 0)
            upto_stores = (f"_SB{self.entry}[_k]"
                           if self.stores_before[self.length] else 0)
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
        lines.extend(self._exit_lines(0, str(self.entry)))
        return lines

    # -- per-instruction emitters --------------------------------------------

    def _emit_plain(self, j: int, ins) -> List[str]:
        op = ins.op
        lines: List[str] = []
        if self.marked and op not in _SAFE_OPCODES:
            lines.append(f"_k = {j}")
        a, b, c = ins.a, ins.b, ins.c
        lit = lambda v: _lit(v, self.consts)  # noqa: E731
        if op == "li":
            lines.append(f"r{a} = {lit(b)}")
        elif op == "mov":
            lines.append(f"r{a} = r{b}")
        elif op in _NUM_BIN:
            lines.append(f"r{a} = r{b} {_NUM_BIN[op]} r{c}")
        elif op in _NUM_BIN_IMM:
            lines.append(f"r{a} = r{b} {_NUM_BIN_IMM[op]} {lit(c)}")
        elif op in _SETCC:
            lines.append(f"r{a} = 1 if r{b} {_SETCC[op]} r{c} else 0")
        elif op in _SETCC_IMM:
            lines.append(f"r{a} = 1 if r{b} {_SETCC_IMM[op]} {lit(c)} else 0")
        elif op in _INT_BIN:
            lines.append(f"r{a} = int(r{b}) {_INT_BIN[op]} int(r{c})")
        elif op in _INT_BIN_IMM:
            # fold the immediate's int() coercion at codegen time when
            # the result is exact (int/bool), matching the handler lambda
            if c.__class__ in (int, bool):
                imm = lit(int(c))
            else:
                imm = f"int({lit(c)})"
            lines.append(f"r{a} = int(r{b}) {_INT_BIN_IMM[op]} {imm}")
        elif op in _FLOAT_BIN:
            lines.append(f"r{a} = float(r{b}) {_FLOAT_BIN[op]} float(r{c})")
        elif op == "idiv":
            lines.append(f"r{a} = _idiv(int(r{b}), int(r{c}))")
        elif op == "imod":
            lines.append(f"r{a} = int(r{b}) - _idiv(int(r{b}), int(r{c}))"
                         f" * int(r{c})")
        elif op == "fdiv":
            lines.append(f"r{a} = _fdiv(r{b}, r{c})")
        elif op == "fsqrt":
            lines.append(f"r{a} = _fsqrt(r{b})")
        elif op == "fabs":
            lines.append(f"r{a} = abs(float(r{b}))")
        elif op == "fneg":
            lines.append(f"r{a} = -float(r{b})")
        elif op == "itof":
            lines.append(f"r{a} = float(r{b})")
        elif op == "ftoi":
            lines.append(f"r{a} = int(r{b})")
        elif op == "out":
            lines.append(f"_out(r{a})")
        elif op == "nop":
            pass
        elif op in ("ld", "ldx", "st", "stx"):
            address = (f"r{b} + {lit(c)}" if op in ("ld", "st")
                       else f"r{b} + r{c}")
            lines.append(f"_a = {address}")
            lines.append("if _a.__class__ is int and 0 <= _a < _limit:")
            if op in ("ld", "ldx"):
                lines.append(f"    r{a} = _get(_a, 0)")
            else:
                lines.append(f"    _words[_a] = r{a}")
            lines.append("else:")
            lines.extend(
                "    " + line
                for line in self._exit_lines(j, str(-2 - (self.entry + j))))
        else:  # pragma: no cover - formation admits only the ops above
            raise AssertionError(f"unexpected opcode in superblock: {op}")
        return lines

    def _emit_range(self, out: List[str], indent: str,
                    lo: int, hi: int) -> None:
        """Emit positions [lo, hi); ends with an exit unless it merges
        back into the enclosing range."""
        entry, length = self.entry, self.length
        j = lo
        while j < hi:
            ins = self.body[j]
            op = ins.op
            if op == "jmp":
                target = ins.target
                if target == entry and self.is_loop:
                    for line in self._continue_lines():
                        out.append(indent + line)
                    return
                if entry + j < target <= entry + hi:
                    # forward jmp inside this range: an unconditional
                    # skip straight to its target
                    for line in self._skip_lines(j + 1, target - entry):
                        out.append(indent + line)
                    j = target - entry
                    continue
                if entry + hi < target <= entry + length \
                        and self._dup_budget >= length - (target - entry):
                    # forward jmp past this range's merge point but
                    # still inside the block: duplicate the tail so
                    # this path reaches the block's back-edge/exit
                    # without leaving compiled code
                    self._dup_budget -= length - (target - entry)
                    for line in self._skip_lines(j + 1, target - entry):
                        out.append(indent + line)
                    self._emit_range(out, indent, target - entry, length)
                    return
                # backward or out-of-reach: leave the block (anything
                # after this position is unreachable along this path)
                for line in self._exit_lines(j + 1, str(target)):
                    out.append(indent + line)
                return
            if op in TERMINATOR_OPCODES:
                cond = _branch_condition(ins)
                target = ins.target
                if target == entry and self.is_loop:
                    out.append(indent + f"if {cond}:")
                    for line in self._skip_lines(j + 1, length):
                        out.append(indent + "    " + line)
                    for line in self._continue_lines():
                        out.append(indent + "    " + line)
                elif entry + j < target <= entry + hi:
                    # forward branch inside this range: if-convert it.
                    # A branch to the very next instruction is a no-op
                    # (taken or not, execution continues at j + 1).
                    merge = target - entry
                    if merge > j + 1:
                        skip = self._skip_lines(j + 1, merge)
                        out.append(indent + f"if {cond}:")
                        for line in skip:
                            out.append(indent + "    " + line)
                        if not skip:
                            out.append(indent + "    pass")
                        out.append(indent + "else:")
                        self._emit_range(out, indent + "    ", j + 1, merge)
                    j = merge
                    continue
                elif entry + hi < target <= entry + length \
                        and self._dup_budget >= length - (target - entry):
                    # taken edge lands past this range's merge point but
                    # inside the block: duplicate the tail on that edge
                    self._dup_budget -= length - (target - entry)
                    out.append(indent + f"if {cond}:")
                    for line in self._skip_lines(j + 1, target - entry):
                        out.append(indent + "    " + line)
                    self._emit_range(out, indent + "    ",
                                     target - entry, length)
                else:
                    out.append(indent + f"if {cond}:")
                    for line in self._exit_lines(j + 1, str(target)):
                        out.append(indent + "    " + line)
                j += 1
                continue
            for line in self._emit_plain(j, ins):
                out.append(indent + line)
            j += 1
        if hi == length:
            # fell off the block's end: continue at the next instruction
            for line in self._exit_lines(length, str(entry + length)):
                out.append(indent + line)

    # -- whole-function assembly ----------------------------------------------

    def generate(self) -> List[str]:
        entry, length = self.entry, self.length
        out = [f"def {SB_PREFIX}{entry}(ctx):"]
        out.append("    _b = _bc[0]")
        out.append(f"    if _b < {length}:")
        out.append("        _cell[0] = 0")
        out.append(f"        return {-2 - entry}")
        out.append("    regs = ctx.regs")
        for r in self.regs:
            out.append(f"    r{r} = regs[{r}]")
        if self.is_loop:
            out.append(f"    _maxn = _b // {length}")
            out.append("    _n = 0")
        if self.has_skip:
            out.append("    _skip = 0")
        if self.has_skip_loads:
            out.append("    _skl = 0")
        if self.has_skip_stores:
            out.append("    _sks = 0")
        if self.marked:
            out.append("    _k = 0")
            out.append("    try:")
        indent = "    " + ("    " if self.marked else "")
        if self.is_loop:
            out.append(indent + "while 1:")
            self._emit_range(out, indent + "    ", 0, length)
        else:
            self._emit_range(out, indent, 0, length)
        if self.marked:
            out.append("    except BaseException:")
            for line in self._exit_lines("_k + 1", None):
                out.append("        " + line)
            out.append("        _cell[1] = 1")
            out.append(f"        ctx.pc = {entry} + _k")
            out.append("        raise")
        return out

    def prelude(self) -> List[str]:
        """Module-level constant tuples for the fault-reconciliation path.

        ``_LB<entry>[k]`` / ``_SB<entry>[k]`` — straight-line loads and
        stores at positions *strictly before* ``k``: a fault at position
        ``k`` raised before the instruction's own memory access counted.
        """
        if not self.marked:
            return []
        lines = []
        if self.loads_before[self.length]:
            lines.append(
                f"_LB{self.entry} = "
                f"{tuple(self.loads_before[:self.length])}")
        if self.stores_before[self.length]:
            lines.append(
                f"_SB{self.entry} = "
                f"{tuple(self.stores_before[:self.length])}")
        return lines


def generate_source(
    program: Program, blocks: List[Tuple[int, int, bool]]
) -> Tuple[str, Dict[str, object]]:
    """Source text + non-literal constant bindings for a program's blocks."""
    consts: Dict[str, object] = {}
    lines: List[str] = []
    for entry, length, is_loop in blocks:
        gen = _BlockGen(program, entry, length, is_loop, consts)
        lines.extend(gen.prelude())
        lines.extend(gen.generate())
        lines.append("")
    return "\n".join(lines), consts


# -- compilation and per-machine installation ---------------------------------


def compile_blocks(program: Program) -> CompiledBlocks:
    """Compile (or fetch from the process-wide cache) a program's blocks."""
    cached = _CODE_CACHE.get(program)
    if cached is not None:
        _STATS["cache_hits"] += 1
        return cached
    _STATS["cache_misses"] += 1
    started = time.perf_counter()
    blocks = form_blocks(program)
    source, consts = generate_source(program, blocks)
    code = compile(source, SB_FILENAME, "exec")
    compiled = CompiledBlocks(
        code, [(entry, length) for entry, length, _ in blocks],
        consts, source)
    _STATS["build_seconds"] += time.perf_counter() - started
    _STATS["blocks_compiled"] += len(blocks)
    _STATS["programs_compiled"] += 1
    _CODE_CACHE[program] = compiled
    return compiled


def install(machine):
    """Bind a machine to its program's compiled blocks.

    Returns ``(table, cell, budget_cell)``: a per-PC table holding the
    block function at each block entry (``None`` elsewhere), the
    ``[retired, fault_flag]`` cell every block reports through, and the
    one-element chunk-budget cell the driver refreshes before each call.

    The code objects are shared via the cache; this only ``exec``s them
    against this machine's memory, output buffer, and cells — all bound
    by identity, which ``Machine.restore`` preserves.
    """
    from repro.machine.machine import _fdiv, _fsqrt, _trunc_div

    compiled = compile_blocks(machine.program)
    cell = [0, 0]
    budget_cell = [0]
    memory = machine.memory
    namespace = dict(compiled.consts)
    namespace.update(
        _mem=memory,
        _words=memory._words,
        _get=memory._words.get,
        _limit=memory.limit,
        _out=machine.output.append,
        _cell=cell,
        _bc=budget_cell,
        _idiv=_trunc_div,
        _fdiv=_fdiv,
        _fsqrt=_fsqrt,
    )
    exec(compiled.code, namespace)
    table = [None] * len(machine.program.instructions)
    for entry, _length in compiled.blocks:
        table[entry] = namespace[f"{SB_PREFIX}{entry}"]
    return table, cell, budget_cell
