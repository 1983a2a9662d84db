"""Forward-slice analysis: how much computation is redundant.

The paper's second motivating measurement: redundant *loads* seed
redundant *computation* — every instruction whose inputs all derive from
redundant values recomputes a result it already produced.  We estimate
this with dynamic taint propagation:

* a redundant load (per :mod:`repro.profiling.redundancy`'s definition)
  taints its destination register;
* an ALU instruction's destination is tainted iff it has at least one
  register source and *all* register sources are tainted (constants are
  invariant by definition and neither create nor destroy taint);
* a store propagates the stored register's taint to the memory word, and
  a non-redundant load of a tainted word is still tainted (the value was
  produced by redundant computation);
* ``li``/``la`` results are untainted — taint originates *only* at
  redundant loads, so the metric is exactly "dynamic instructions in the
  forward slice of redundant loads".

A dynamic instruction counts as **redundant computation** when: it is a
redundant load; or it writes a tainted destination; or it is a store of a
tainted value; or it is a conditional branch all of whose register sources
are tainted.  This is an operationalization of the paper's measurement
(their exact slicing tool is not published); E2 is shape-only.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.isa.instructions import OpClass, operand_roles
from repro.machine.events import MachineObserver, Shadow
from repro.isa.registers import NUM_REGISTERS

# how on_instruction treats a static instruction (see _decode)
_OTHER, _LOAD, _STORE, _CONST, _ALU, _BRANCH = range(6)


class _RegisterTaint(dict):
    """Context id -> that context's register taint, clean on first use."""

    def __missing__(self, context_id: int) -> List[bool]:
        taint = self[context_id] = [False] * NUM_REGISTERS
        return taint


class RedundancyTaintAnalyzer(MachineObserver):
    """Observer measuring the redundant-computation fraction.

    Its hooks and its declared shadow transfer make the same update:
    ``Machine.run`` generates the transfer into its compiled blocks, and
    the step handlers call the hooks (see :mod:`repro.machine.events`).
    The register taint is the transfer's register file and the
    per-class redundant counts its counter, both of which compiled
    blocks keep in locals.  A load's redundancy is the machine's verdict,
    from its one load history
    (:class:`~repro.machine.events.LoadHistory`), which the load
    profiler reads as well.  The machine keeps ``total_instructions``.
    """

    counts_instructions = True
    shadow = Shadow(
        state=("mem", "mem_get"),
        registers=("taint",),
        counters=("counts",),
        # taint values are bools, so ``and``/``or`` keep them bools
        load="""\
{dest:taint} = {redundant} or {mem_get}({address}, False)
if {dest:taint}: {op_class:counts} += 1""",
        store="""\
{mem}[{address}] = {src:taint}
if {src:taint}: {op_class:counts} += 1""",
        alu="""\
{dest:taint} = {first:taint} and {second:taint}
if {dest:taint}: {op_class:counts} += 1""",
        const="{dest:taint} = False",
        branch="""\
if {first:taint} and {second:taint}: {op_class:counts} += 1""")

    def __init__(self) -> None:
        # per-context register taint, created lazily by context id
        self._reg_taint = _RegisterTaint()
        self._mem_taint: Dict[int, bool] = {}
        # pc -> decoded static instruction (see _decode)
        self._decoded: Dict[int, Tuple] = {}
        self.total_instructions = 0
        # op class value -> redundant dynamic instructions of that class
        self._redundant: Dict[str, int] = {c.value: 0 for c in OpClass}
        # communication from memory hooks to on_instruction within one step
        self._pending_load_taint = False
        self._pending_store_address = None

    def shadow_state(self) -> dict:
        return {"taint": self._reg_taint, "mem": self._mem_taint,
                "mem_get": self._mem_taint.get, "counts": self._redundant}

    def _taint_of(self, ctx) -> List[bool]:
        return self._reg_taint[ctx.context_id]

    def _decode(self, pc, instruction) -> Tuple:
        """Decode ``instruction`` once: ``(instruction, kind, dest, first,
        second, op_class)``, with register indices for the operands its
        kind reads or writes and the value of its class.

        The entry keeps the instruction itself, so a cached decode is
        reused only for that very object: an analyzer that goes on to
        watch another program re-decodes each of its PCs.
        """
        op_class = instruction.op_class
        dest, sources = operand_roles(instruction.op)
        regs = [getattr(instruction, slot) for slot in sources]
        first = second = None
        if op_class is OpClass.LOAD:
            kind, dest = _LOAD, instruction.a
        elif op_class in (OpClass.STORE, OpClass.TSTORE):
            kind, dest = _STORE, None
            first = instruction.a
        elif dest is not None:
            dest = getattr(instruction, dest)
            if regs:
                # destinations have at most two register sources; a
                # single source is tested twice
                kind, first, second = _ALU, regs[0], regs[-1]
            else:
                kind = _CONST  # li / constants
        elif op_class is OpClass.BRANCH and regs:
            # every conditional branch reads one or two registers
            kind, first, second = _BRANCH, regs[0], regs[-1]
        else:
            kind = _OTHER
        entry = (instruction, kind, dest, first, second, op_class.value)
        self._decoded[pc] = entry
        return entry

    # -- hooks -----------------------------------------------------------------

    def on_load(self, ctx, pc, address, value) -> None:
        # the destination register is tainted either because the load was
        # itself redundant or because the word was written by redundant
        # computation; on_instruction applies it to the register file
        self._pending_load_taint = (self.load_history.redundant
                                    or self._mem_taint.get(address, False))

    def on_instruction(self, ctx, pc, instruction) -> None:
        entry = self._decoded.get(pc)
        if entry is None or entry[0] is not instruction:
            entry = self._decode(pc, instruction)
        _, kind, dest, first, second, op_class = entry
        if kind == _OTHER:
            return
        taint = self._reg_taint[ctx.context_id]
        if kind == _ALU:
            redundant = taint[dest] = taint[first] and taint[second]
        elif kind == _LOAD:
            redundant = taint[dest] = self._pending_load_taint
            self._pending_load_taint = False
        elif kind == _CONST:
            taint[dest] = redundant = False
        elif kind == _BRANCH:
            redundant = taint[first] and taint[second]
        else:  # _STORE
            redundant = taint[first]
            address = self._pending_store_address  # recorded by on_store
            if address is not None:
                self._mem_taint[address] = redundant
            self._pending_store_address = None
        if redundant:
            self._redundant[op_class] += 1

    def on_store(self, ctx, pc, address, old_value, new_value, triggering) -> None:
        self._pending_store_address = address

    # -- reporting ----------------------------------------------------------------

    @property
    def redundant_instructions(self) -> int:
        return sum(self._redundant.values())

    @property
    def redundant_by_class(self) -> Dict[OpClass, int]:
        """Redundant dynamic instructions per opcode class."""
        return {c: self._redundant[c.value] for c in OpClass}

    @property
    def redundant_fraction(self) -> float:
        if not self.total_instructions:
            return 0.0
        return self.redundant_instructions / self.total_instructions

    def summary(self) -> Dict[str, float]:
        """Aggregate counters and the redundant-computation fraction."""
        return {
            "total_instructions": self.total_instructions,
            "redundant_instructions": self.redundant_instructions,
            "redundant_computation_fraction": self.redundant_fraction,
        }

    def __repr__(self) -> str:
        return (
            f"RedundancyTaintAnalyzer({self.redundant_instructions}/"
            f"{self.total_instructions} = {self.redundant_fraction:.1%})"
        )
