"""Generic dataflow over :class:`~repro.analysis.cfg.CFG`, plus the stock
analyses the safety checks build on.

**Solver** (:func:`solve`).  A classic worklist fixpoint over basic
blocks.  An analysis declares a direction, a boundary state (at the
region entry for forward analyses, at the exit blocks for backward
ones), a meet, and a block transfer; states are ordinary immutable-ish
Python values compared with ``==``.  ``None`` is the universal bottom
("unreached") and meets as identity, so optimistic initialization needs
no per-analysis top element.

**Stock analyses.**

* :class:`ReachingDefinitions` — forward, may.  Maps each register to
  the set of pcs that may have defined it; the pseudo-pcs
  :data:`ENTRY_DEF` (defined at region entry) and :data:`UNDEF` (never
  defined on some path) make definedness questions direct — a use whose
  reaching set contains :data:`UNDEF` is a maybe-uninitialized read.
* :class:`Liveness` — backward, may.  Registers whose current value may
  still be read.
* :class:`ValueAnalysis` — forward constant/address propagation over the
  ISA's ``base+offset`` addressing.  The value lattice is ⊥ → constants
  / region-sets → ⊤, where a *region* is a named static-data array from
  the program layout.  ``la`` materializes as a constant absolute
  address (finalize patches the symbol), indexed addressing
  (``ldx``/``stx``/``tstx``) and pointer arithmetic against an unknown
  index widen a constant base to the region containing it.  That
  widening carries the framework's one documented assumption: an index
  added to an array base stays inside that array (the builder's
  ``for_range`` idiom guarantees it for every bundled workload; a truly
  wild index would need ⊤, which the checks treat as
  "overlaps everything" anyway, erring loud rather than silent).

:func:`access_summary` folds a region's :class:`ValueAnalysis` into
per-instruction abstract :class:`AddressSet`\\ s — the may-read /
may-write / may-trigger address sets the DTT safety checks intersect.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.analysis.cfg import CFG, BasicBlock
from repro.isa.instructions import (OPCODES, OpClass, is_load, is_store,
                                    is_triggering_store, operand_roles)
from repro.isa.registers import NUM_REGISTERS
from repro.machine.semantics import evaluate

#: pseudo-definition pc: "defined at region entry" (trigger registers, or
#: the architecturally zeroed main-context file)
ENTRY_DEF = -1
#: pseudo-definition pc: "not defined on some path into this point"
UNDEF = -2


class DataflowAnalysis:
    """Interface a dataflow problem implements for :func:`solve`."""

    #: "forward" or "backward"
    direction = "forward"

    def boundary_state(self):
        """State at the region entry (forward) / region exits (backward)."""
        raise NotImplementedError

    def meet(self, a, b):
        """Combine two states at a join point."""
        raise NotImplementedError

    def transfer(self, block: BasicBlock, state):
        """State after ``block`` given the state before it (must not
        mutate ``state``)."""
        raise NotImplementedError


def solve(cfg: CFG, analysis: DataflowAnalysis) -> Tuple[List, List]:
    """Run ``analysis`` to fixpoint; returns ``(ins, outs)`` per block.

    ``ins[b]`` is the state at block b's start, ``outs[b]`` at its end,
    in *program* order regardless of analysis direction.  Unreached
    blocks keep ``None``.
    """
    forward = analysis.direction == "forward"
    count = len(cfg.blocks)
    ins: List = [None] * count
    outs: List = [None] * count
    work = deque(cfg.blocks)
    while work:
        block = work.popleft()
        if forward:
            state = analysis.boundary_state() if block.index == cfg.entry \
                else None
            for pred in block.preds:
                if outs[pred] is not None:
                    state = outs[pred] if state is None \
                        else analysis.meet(state, outs[pred])
            if state is None:
                continue
            ins[block.index] = state
            new = analysis.transfer(block, state)
            if new != outs[block.index]:
                outs[block.index] = new
                for succ in block.succs:
                    work.append(cfg.blocks[succ])
        else:
            state = analysis.boundary_state() if not block.succs else None
            for succ in block.succs:
                if ins[succ] is not None:
                    state = ins[succ] if state is None \
                        else analysis.meet(state, ins[succ])
            if state is None:
                continue
            outs[block.index] = state
            new = analysis.transfer(block, state)
            if new != ins[block.index]:
                ins[block.index] = new
                for pred in block.preds:
                    work.append(cfg.blocks[pred])
    return ins, outs


# ---------------------------------------------------------------------------
# reaching definitions
# ---------------------------------------------------------------------------


class ReachingDefinitions(DataflowAnalysis):
    """Register -> set of defining pcs (may); see module docstring."""

    direction = "forward"

    def __init__(self, cfg: CFG, entry_regs: Sequence[int] = ()):
        self.cfg = cfg
        self.entry_regs = frozenset(entry_regs)
        self.ins, self.outs = solve(cfg, self)

    def boundary_state(self) -> Dict[int, FrozenSet[int]]:
        return {
            reg: frozenset([ENTRY_DEF if reg in self.entry_regs else UNDEF])
            for reg in range(NUM_REGISTERS)
        }

    def meet(self, a, b):
        merged = dict(a)
        for reg, defs in b.items():
            merged[reg] = merged.get(reg, frozenset()) | defs
        return merged

    def transfer(self, block: BasicBlock, state):
        state = dict(state)
        for pc in block.pcs:
            dest = _dest_reg(self.cfg.instruction_at(pc))
            if dest is not None:
                state[dest] = frozenset([pc])
        return state

    def defs_at(self, pc: int) -> Dict[int, FrozenSet[int]]:
        """The reaching-definition map just *before* executing ``pc``."""
        block = self.cfg.block_at(pc)
        state = self.ins[block.index]
        state = dict(state) if state is not None else self.boundary_state()
        for earlier in block.pcs:
            if earlier == pc:
                break
            dest = _dest_reg(self.cfg.instruction_at(earlier))
            if dest is not None:
                state[dest] = frozenset([earlier])
        return state


class Liveness(DataflowAnalysis):
    """Registers whose current value may still be read (backward, may)."""

    direction = "backward"

    def __init__(self, cfg: CFG):
        self.cfg = cfg
        self.ins, self.outs = solve(cfg, self)

    def boundary_state(self) -> FrozenSet[int]:
        return frozenset()

    def meet(self, a, b):
        return a | b

    def transfer(self, block: BasicBlock, state):
        live = set(state)
        for pc in reversed(block.pcs):
            instruction = self.cfg.instruction_at(pc)
            dest, sources = operand_roles(instruction.op)
            if dest is not None:
                live.discard(getattr(instruction, dest))
            for slot in sources:
                live.add(getattr(instruction, slot))
        return frozenset(live)

    def live_into(self, pc: int) -> FrozenSet[int]:
        """Registers live just before ``pc`` executes."""
        block = self.cfg.block_at(pc)
        live = set(self.outs[block.index] or frozenset())
        for later in reversed(block.pcs):
            if later < pc:
                break
            instruction = self.cfg.instruction_at(later)
            dest, sources = operand_roles(instruction.op)
            if dest is not None:
                live.discard(getattr(instruction, dest))
            for slot in sources:
                live.add(getattr(instruction, slot))
            if later == pc:
                break
        return frozenset(live)


def _dest_reg(instruction) -> Optional[int]:
    dest, _sources = operand_roles(instruction.op)
    return getattr(instruction, dest) if dest is not None else None


# ---------------------------------------------------------------------------
# constant / address propagation
# ---------------------------------------------------------------------------

_CONST = "const"
_REGION = "region"
_TOP = "top"


class Value:
    """One abstract register value: a constant, a set of data regions the
    value points into, or ⊤ (anything)."""

    __slots__ = ("kind", "const", "regions")

    def __init__(self, kind: str, const=None,
                 regions: FrozenSet[str] = frozenset()):
        self.kind = kind
        self.const = const
        self.regions = regions

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Value):
            return NotImplemented
        return (self.kind == other.kind and self.const == other.const
                and self.regions == other.regions)

    def __hash__(self) -> int:
        return hash((self.kind, self.const, self.regions))

    def __repr__(self) -> str:
        if self.kind == _CONST:
            return f"Value({self.const})"
        if self.kind == _REGION:
            return f"Value(in {'|'.join(sorted(self.regions))})"
        return "Value(top)"


TOP = Value(_TOP)


def const_value(number) -> Value:
    """A known constant."""
    return Value(_CONST, const=number)


def region_value(names) -> Value:
    """A pointer somewhere inside the named data regions."""
    names = frozenset(names)
    return Value(_REGION, regions=names) if names else TOP


def region_containing(address, layout: Dict[str, Tuple[int, int]]
                      ) -> Optional[str]:
    """The data symbol whose placement covers ``address``, if any."""
    if not isinstance(address, int):
        return None
    for name, (base, size) in layout.items():
        if base <= address < base + max(size, 1):
            return name
    return None


def meet_values(a: Value, b: Value) -> Value:
    """Join two abstract values at a control-flow merge.

    Equal values survive; distinct constants inside one data region
    widen to that region; anything else collapses to TOP.
    """
    if a == b:
        return a
    if a.kind == _TOP or b.kind == _TOP:
        return TOP
    if a.kind == _REGION and b.kind == _REGION:
        return region_value(a.regions | b.regions)
    return TOP  # const vs other const / const vs region


class AddressSet:
    """Abstract set of word addresses one memory access may touch."""

    __slots__ = ("exact", "regions", "top")

    def __init__(self, exact=(), regions=(), top: bool = False):
        self.exact = frozenset(exact)
        self.regions = frozenset(regions)
        self.top = top

    @classmethod
    def anywhere(cls) -> "AddressSet":
        return cls(top=True)

    def is_empty(self) -> bool:
        """True when the set provably contains no addresses at all."""
        return not self.top and not self.exact and not self.regions

    def _ranges(self, layout) -> List[Tuple[int, int]]:
        ranges = [(addr, addr + 1) for addr in self.exact]
        for name in self.regions:
            base, size = layout[name]
            ranges.append((base, base + max(size, 1)))
        return ranges

    def overlaps(self, other: "AddressSet", layout) -> bool:
        """May these two access sets touch a common word?"""
        if self.is_empty() or other.is_empty():
            return False
        if self.top or other.top:
            return True
        return self.intersects_ranges(other._ranges(layout), layout)

    def intersects_ranges(self, ranges: Sequence[Tuple[int, int]],
                          layout) -> bool:
        """May this set touch any of the half-open word ranges?"""
        if self.is_empty() or not ranges:
            return False
        if self.top:
            return True
        for lo, hi in self._ranges(layout):
            for rlo, rhi in ranges:
                if lo < rhi and rlo < hi:
                    return True
        return False

    def describe(self, layout) -> str:
        """Human name: symbols for regions, symbol+offset for exacts."""
        if self.top:
            return "any address"
        parts = []
        for name in sorted(self.regions):
            parts.append(f"{name}[*]")
        for addr in sorted(self.exact):
            name = region_containing(addr, layout)
            if name is not None:
                parts.append(f"{name}[{addr - layout[name][0]}]")
            else:
                parts.append(str(addr))
        return "|".join(parts) if parts else "nothing"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AddressSet):
            return NotImplemented
        return (self.exact == other.exact and self.regions == other.regions
                and self.top == other.top)

    def __hash__(self) -> int:
        return hash((self.exact, self.regions, self.top))

    def __repr__(self) -> str:
        if self.top:
            return "AddressSet(top)"
        return (f"AddressSet(exact={sorted(self.exact)}, "
                f"regions={sorted(self.regions)})")


def value_to_addresses(value: Value, layout) -> AddressSet:
    """The address set a pointer-valued register may name."""
    if value.kind == _CONST:
        return (AddressSet(exact=[value.const])
                if isinstance(value.const, int) else AddressSet.anywhere())
    if value.kind == _REGION:
        return AddressSet(regions=value.regions)
    return AddressSet.anywhere()


class ValueAnalysis(DataflowAnalysis):
    """Constant/address propagation over one region's CFG.

    ``entry_env`` fixes the abstract register file at region entry —
    all-zero constants for the main region (contexts reset to zeroed
    registers), ⊤ for support-thread bodies (support contexts retain
    stale values from earlier activations), with the trigger-address
    register optionally seeded to the trigger's possible regions.
    """

    direction = "forward"

    def __init__(self, cfg: CFG, entry_env: Dict[int, Value]):
        self.cfg = cfg
        self.layout = cfg.program.layout
        self.entry_env = dict(entry_env)
        self.ins, self.outs = solve(cfg, self)

    def boundary_state(self):
        return dict(self.entry_env)

    def meet(self, a, b):
        return {reg: meet_values(a[reg], b[reg]) for reg in a}

    def transfer(self, block: BasicBlock, state):
        env = dict(state)
        for pc in block.pcs:
            self._step(self.cfg.instruction_at(pc), env)
        return env

    def env_at(self, pc: int) -> Dict[int, Value]:
        """The abstract register file just before ``pc`` executes."""
        block = self.cfg.block_at(pc)
        state = self.ins[block.index]
        env = dict(state) if state is not None else dict(self.entry_env)
        for earlier in block.pcs:
            if earlier == pc:
                break
            self._step(self.cfg.instruction_at(earlier), env)
        return env

    # -- abstract interpretation of one instruction ---------------------------

    def _step(self, instruction, env: Dict[int, Value]) -> None:
        op = instruction.op
        dest, sources = operand_roles(op)
        if dest is None:
            return
        dest_reg = getattr(instruction, dest)
        if op == "li":
            env[dest_reg] = const_value(instruction.b)
            return
        if op == "mov":
            env[dest_reg] = env[instruction.b]
            return
        if is_load(op):
            env[dest_reg] = TOP
            return
        values = [env[getattr(instruction, slot)] for slot in sources]
        signature = instruction.info.signature
        if signature.endswith("I"):
            values.append(const_value(instruction.c))
        env[dest_reg] = self._combine(op, values)

    def _combine(self, op: str, values: List[Value]) -> Value:
        if all(v.kind == _CONST for v in values):
            folded = _fold_constant(op, [v.const for v in values])
            if folded is not None:
                return const_value(folded)
            return TOP
        if op in ("add", "addi", "sub", "subi") and len(values) == 2:
            left, right = values
            # pointer arithmetic: base ± known offset stays in the base's
            # regions; base + unknown index stays in the region containing
            # the base (the in-bounds assumption, see module docstring)
            if left.kind == _REGION and right.kind != _REGION:
                return left
            if op in ("add", "addi") and right.kind == _REGION \
                    and left.kind != _REGION:
                return right
            for base, other in ((left, right), (right, left)):
                if base.kind == _CONST and other.kind == _TOP \
                        and op in ("add", "addi"):
                    name = region_containing(base.const, self.layout)
                    if name is not None:
                        return region_value([name])
        return TOP


def _fold_constant(op: str, operands: List):
    """Evaluate one integer ALU opcode over concrete operands, or None."""
    if OPCODES[op].op_class not in (OpClass.IALU, OpClass.IMUL):
        return None
    try:
        return evaluate(op, operands)
    except (ArithmeticError, ValueError):  # the machine would fault
        return None


# ---------------------------------------------------------------------------
# per-region access summaries
# ---------------------------------------------------------------------------


class AccessSummary:
    """May-read / may-write / may-trigger address sets of one region."""

    __slots__ = ("reads", "writes", "tstores")

    def __init__(self):
        #: (pc, AddressSet) per load
        self.reads: List[Tuple[int, AddressSet]] = []
        #: (pc, AddressSet) per store, triggering stores included
        self.writes: List[Tuple[int, AddressSet]] = []
        #: (pc, AddressSet) per triggering store only
        self.tstores: List[Tuple[int, AddressSet]] = []

    def read_set(self) -> AddressSet:
        """Union of every address any load in the slice may touch."""
        return union_addresses(s for _pc, s in self.reads)

    def write_set(self) -> AddressSet:
        """Union of every address any store (plain or tst) may touch."""
        return union_addresses(s for _pc, s in self.writes)

    def __repr__(self) -> str:
        return (f"AccessSummary({len(self.reads)} reads, "
                f"{len(self.writes)} writes, {len(self.tstores)} tstores)")


def union_addresses(sets) -> AddressSet:
    """The union of several :class:`AddressSet`\\ s."""
    exact, regions, top = set(), set(), False
    for address_set in sets:
        top = top or address_set.top
        exact |= address_set.exact
        regions |= address_set.regions
    return AddressSet(exact, regions, top)


def access_address(instruction, env: Dict[int, Value], layout) -> AddressSet:
    """The abstract address set of one memory instruction."""
    op = instruction.op
    if op in ("ld", "st", "tst"):
        base, offset = env[instruction.b], const_value(instruction.c)
    else:  # ldx / stx / tstx
        base, offset = env[instruction.b], env[instruction.c]
    if base.kind == _CONST and offset.kind == _CONST:
        return value_to_addresses(
            const_value(base.const + offset.const), layout)
    if base.kind == _REGION:
        return AddressSet(regions=base.regions)
    if base.kind == _CONST:
        name = region_containing(base.const, layout)
        if name is not None:
            return AddressSet(regions=[name])
    if offset.kind == _REGION:
        # stx v, i, base with the pointer in the index slot
        return AddressSet(regions=offset.regions)
    if offset.kind == _CONST:
        name = region_containing(offset.const, layout)
        if name is not None:
            return AddressSet(regions=[name])
    return AddressSet.anywhere()


def access_summary(values: ValueAnalysis) -> AccessSummary:
    """Classify every memory access in the region of ``values``."""
    cfg = values.cfg
    layout = cfg.program.layout
    summary = AccessSummary()
    for pc in sorted(cfg.pcs):
        instruction = cfg.instruction_at(pc)
        op = instruction.op
        if not (is_load(op) or is_store(op)):
            continue
        addresses = access_address(instruction, values.env_at(pc), layout)
        if is_load(op):
            summary.reads.append((pc, addresses))
        else:
            summary.writes.append((pc, addresses))
            if is_triggering_store(op):
                summary.tstores.append((pc, addresses))
    return summary
