"""Candidate discovery: which regions could become support threads?

A *conversion candidate* is a contiguous main-region pc interval
``[region_start, region_end)`` plus the set of *feeder* stores whose
data it consumes.  The shape mirrors every hand conversion in
:mod:`repro.workloads`: the baseline writes an input array (the feeder),
recomputes derived data from it (the region), then consumes the derived
data downstream.  The converter turns the feeders into triggering
stores, the region into a thread body, and the region's old location
into the consume barrier (``tcheck``).

Discovery is purely static (:func:`discover_candidates`); a candidate
must satisfy, over the main CFG and its dataflow:

* **single entry / single exit** — every successor of an interval pc
  stays inside ``[start, end]``, some pc falls through to ``end``
  (the thread's ``treturn`` point), and no pc outside the interval
  branches into its interior;
* **register-closed** — no instruction reads a register before the
  interval itself defines it (linear scan: builder-generated code
  defines loop carriers before loop tops), so the body runs correctly
  on a support context whose registers are stale;
* **register-dead at exit** — nothing the interval defines is live into
  its continuation or into program entry (a priming copy runs there),
  so deleting the region from main perturbs no downstream register;
* **productive** — contains at least one load and one store, writes a
  resolvable (non-⊤) address set, and some read outside the interval
  consumes what it writes;
* **fed** — at least one plain store before the region may write the
  region's read set, and *every* main store that may write it sits
  before the region (a writer after the barrier could go stale without
  re-triggering — exactly the unsoundness the paper warns about).

Candidates are *proposals*, not proofs: the gate re-runs the full
static analysis, functional output equality, and a timed comparison on
every synthesized program before accepting anything.

Scoring (:func:`rank_candidates`) runs the baseline under the
redundancy profiler and ranks by ``silent_fraction(feeders) ×
redundant_load_mass(region)`` — the paper's two necessary conditions
for a DTT win.  With a :class:`~repro.profiling.sampled.\
SampledRedundantLoadProfiler` the ranking key drops to the product of
the CI *lower* bounds, so a hot-looking site whose estimate is mostly
uncertainty does not outrank a site the sample actually measured.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.analysis import cfg as cfgmod
from repro.analysis.dataflow import (AddressSet, Liveness, ValueAnalysis,
                                     access_summary, const_value,
                                     union_addresses)
from repro.analysis.symbolic import ParamRecovery, prove_param_recovery
from repro.isa.instructions import (is_load, is_store, is_triggering_store,
                                    operand_roles)
from repro.isa.program import Program
from repro.isa.registers import NUM_REGISTERS
from repro.machine.machine import ENGINE_OPCODES, Machine, run_to_completion
from repro.profiling.redundancy import RedundantLoadProfiler
from repro.profiling.sampled import SampledRedundantLoadProfiler

#: ops a convertible region may not contain: observable effects, control
#: that leaves the region's frame, and DTT ops (the baseline must be
#: plain).  ``jmp`` and conditional branches are fine when their targets
#: stay inside.
_FORBIDDEN_OPS = frozenset(["call", "ret", "out"]) | ENGINE_OPCODES

#: most registers a parameterized region may read before defining — the
#: synthesized prologue recovers each from r1, so this bounds its size
_MAX_PARAMS = 3


class ConversionCandidate:
    """One store-sites → consumer-region pair, with its profile score."""

    __slots__ = ("region_start", "region_end", "store_pcs", "reads",
                 "writes", "dynamic_stores", "silent_stores",
                 "region_loads", "redundant_loads", "score", "ci_low",
                 "ci_high", "params", "recovery")

    def __init__(self, region_start: int, region_end: int,
                 store_pcs: Tuple[int, ...], reads: AddressSet,
                 writes: AddressSet, params: Tuple[int, ...] = (),
                 recovery: Optional[ParamRecovery] = None):
        self.region_start = region_start
        self.region_end = region_end
        #: feeder store pcs (in the *original* program), ascending
        self.store_pcs = tuple(sorted(store_pcs))
        self.reads = reads
        self.writes = writes
        #: registers the region reads before defining (thread parameters);
        #: non-empty only with a proven :class:`ParamRecovery`
        self.params = tuple(sorted(params))
        self.recovery = recovery
        self.dynamic_stores = 0
        self.silent_stores = 0
        self.region_loads = 0
        self.redundant_loads = 0
        self.score = 0.0
        #: CI bounds on the score under sampled profiling; None when exact
        self.ci_low: Optional[float] = None
        self.ci_high: Optional[float] = None

    @property
    def silent_fraction(self) -> float:
        if not self.dynamic_stores:
            return 0.0
        return self.silent_stores / self.dynamic_stores

    def overlaps(self, other: "ConversionCandidate") -> bool:
        """Do the two regions share any pc?"""
        return (self.region_start < other.region_end
                and other.region_start < self.region_end)

    def contains(self, other: "ConversionCandidate") -> bool:
        """Is ``other``'s region inside this one's?"""
        return (self.region_start <= other.region_start
                and other.region_end <= self.region_end)

    def as_dict(self) -> Dict:
        """JSON-ready provenance row."""
        row = {
            "region_start": self.region_start,
            "region_end": self.region_end,
            "store_pcs": list(self.store_pcs),
            "dynamic_stores": self.dynamic_stores,
            "silent_stores": self.silent_stores,
            "region_loads": self.region_loads,
            "redundant_loads": self.redundant_loads,
            "score": round(self.score, 6),
        }
        if self.ci_low is not None:
            row["score_ci_low"] = round(self.ci_low, 6)
            row["score_ci_high"] = round(self.ci_high, 6)
        if self.params:
            row["params"] = [f"r{reg}" for reg in self.params]
            row["recovery"] = (self.recovery.as_dict()
                               if self.recovery is not None else None)
        return row

    def __repr__(self) -> str:
        return (f"ConversionCandidate(pc {self.region_start}.."
                f"{self.region_end - 1}, feeders={list(self.store_pcs)}, "
                f"score={self.score:.4f})")


def discover_candidates(program: Program,
                        min_region_size: int = 4,
                        allow_params: bool = True
                        ) -> List[ConversionCandidate]:
    """Statically enumerate convertible regions of a plain program.

    Returns one candidate per viable region start (the maximal valid
    interval from that start — the most work a thread there could
    skip), unscored and sorted by region start.  Raises nothing on
    DTT-converted input; a program that already declares threads simply
    yields no candidates (its regions contain DTT ops).

    With ``allow_params`` (the default), a start where the
    register-closed scan finds nothing is retried allowing up to
    ``_MAX_PARAMS`` reads of registers the region never defines —
    *parameters*, in the sense of the paper's vpr/twolf conversions.
    Such a candidate is kept only when
    :func:`~repro.analysis.symbolic.prove_param_recovery` shows every
    parameter is recoverable from the trigger address, so synthesis can
    prime it in the thread prologue.  Parameterized discovery is purely
    additive: any start the closed scan already covers keeps its
    original candidate, and a parameterized interval lying *inside* a
    register-closed one is dropped — it is a suffix of a region that
    converts without parameters at all (shaving the leading ``li`` off
    a closed region turns the constant into a "parameter"), so keeping
    it would only flood ranking with redundant sub-regions.
    """
    cfg = cfgmod.main_cfg(program)
    layout = program.layout
    liveness = Liveness(cfg)
    values = ValueAnalysis(
        cfg, {reg: const_value(0) for reg in range(NUM_REGISTERS)})
    summary = access_summary(values)
    reads_at = dict(summary.reads)
    writes_at = {pc: addresses for pc, addresses in summary.writes
                 if not is_triggering_store(cfg.instruction_at(pc).op)}
    live_entry = liveness.live_into(cfg.entry_pc)
    pcs = cfg.pcs

    def build(start: int, end: int,
              params: Tuple[int, ...]) -> Optional[ConversionCandidate]:
        region_reads = union_addresses(
            reads_at[pc] for pc in range(start, end) if pc in reads_at)
        region_writes = union_addresses(
            writes_at[pc] for pc in range(start, end) if pc in writes_at)
        if region_writes.is_empty() or region_writes.top:
            return None
        return _attach_feeders(program, cfg, layout, reads_at, writes_at,
                               start, end, region_reads, region_writes,
                               params)

    candidates: List[ConversionCandidate] = []
    plain_spans: List[Tuple[int, int]] = []
    open_starts: List[int] = []
    for start in sorted(pcs):
        interval = _maximal_interval(cfg, liveness, live_entry, pcs, start,
                                     min_region_size)
        if interval is None:
            open_starts.append(start)
            continue
        end, params = interval
        plain_spans.append((start, end))
        candidate = build(start, end, params)
        if candidate is not None:
            candidates.append(candidate)
    if allow_params:
        for start in open_starts:
            interval = _maximal_interval(cfg, liveness, live_entry, pcs,
                                         start, min_region_size,
                                         max_params=_MAX_PARAMS)
            if interval is None:
                continue
            end, params = interval
            if any(plo <= start and end <= phi for plo, phi in plain_spans):
                continue
            candidate = build(start, end, params)
            if candidate is not None:
                candidates.append(candidate)
        candidates.sort(key=lambda c: c.region_start)
    return candidates


def _maximal_interval(cfg, liveness, live_entry, pcs, start,
                      min_region_size, max_params: int = 0
                      ) -> Optional[Tuple[int, Tuple[int, ...]]]:
    """The largest valid ``(region end, parameter registers)`` for
    ``start``, or None.

    Grows the interval one pc at a time, tracking linear register
    definedness and the furthest forward successor; an interval is valid
    when control is contained, the exit is reachable, and the defined
    registers are dead at both the continuation and program entry.  With
    ``max_params`` > 0, up to that many reads of never-defined registers
    become parameters instead of ending the interval.
    """
    defined: set = set()
    defs: set = set()
    params: set = set()
    has_load = has_store = False
    exit_reachable: set = set()
    best: Optional[Tuple[int, Tuple[int, ...]]] = None
    pc = start
    while pc in pcs:
        instruction = cfg.instruction_at(pc)
        op = instruction.op
        if op in _FORBIDDEN_OPS:
            break
        _dest, sources = operand_roles(op)
        undefined = {getattr(instruction, slot) for slot in sources
                     if getattr(instruction, slot) not in defined}
        if undefined - params:
            if len(params | undefined) > max_params:
                break  # reads a register the region never defined
            params |= undefined
        if _dest is not None:
            reg = getattr(instruction, _dest)
            defined.add(reg)
            defs.add(reg)
        succs = cfg.succ_pcs[pc]
        if any(succ < start for succ in succs):
            break  # a backward edge escapes the region
        has_load = has_load or is_load(op)
        has_store = has_store or is_store(op)
        exit_reachable.update(succs)
        end = pc + 1
        if (end - start >= min_region_size
                and has_load and has_store
                and max(exit_reachable) <= end
                and end in exit_reachable
                and _single_entry(cfg, pcs, start, end)
                and not (defs & liveness.live_into(end))
                and not (defs & live_entry)):
            best = (end, tuple(sorted(params)))
        pc += 1
    return best


def _single_entry(cfg, pcs, start, end) -> bool:
    """No pc outside ``[start, end)`` branches into its interior."""
    interior = range(start + 1, end)
    for pc in pcs:
        if start <= pc < end:
            continue
        if any(succ in interior for succ in cfg.succ_pcs[pc]):
            return False
    return True


def _attach_feeders(program, cfg, layout, reads_at, writes_at, start, end,
                    region_reads, region_writes, params: Tuple[int, ...] = ()
                    ) -> Optional[ConversionCandidate]:
    """Pair a region with the plain stores that may write its inputs.

    A parameterized region additionally needs the symbolic closure
    proof: every parameter must be recoverable from each feeder's store
    address (:func:`~repro.analysis.symbolic.prove_param_recovery`), or
    the synthesized thread could not reconstruct the value the region
    reads and the candidate is dropped.
    """
    feeders: List[int] = []
    for pc, addresses in writes_at.items():
        if start <= pc < end:
            continue
        if not addresses.overlaps(region_reads, layout):
            continue
        if pc >= end:
            return None  # a writer after the barrier could go stale
        op = cfg.instruction_at(pc).op
        if op not in ("st", "stx"):
            return None
        feeders.append(pc)
    if not feeders:
        return None
    consumed = any(
        addresses.overlaps(region_writes, layout)
        for pc, addresses in reads_at.items()
        if not start <= pc < end)
    if not consumed:
        return None
    recovery = None
    if params:
        recovery = prove_param_recovery(program, cfg, start, params, feeders)
        if recovery is None:
            return None
    return ConversionCandidate(start, end, tuple(feeders), region_reads,
                               region_writes, params=params,
                               recovery=recovery)


def rank_candidates(
    program: Program,
    candidates: Optional[List[ConversionCandidate]] = None,
    min_dynamic_stores: int = 4,
    sample_rate: Optional[int] = None,
    sample_seed: int = 0,
    max_instructions: int = 20_000_000,
) -> List[ConversionCandidate]:
    """Profile the baseline and score/rank the candidates, best first.

    ``sample_rate`` switches the profile to a 1/K address sample with
    bounded memory; ranking then uses each score's CI lower bound (a
    candidate only ranks on redundancy the sample actually witnessed).
    Candidates whose feeders executed fewer than ``min_dynamic_stores``
    times are dropped (one-shot initialization stores), as are
    candidates strictly contained in an equal-or-better one.
    """
    if candidates is None:
        candidates = discover_candidates(program)
    if not candidates:
        return []
    if sample_rate is not None:
        profiler = SampledRedundantLoadProfiler(sample_rate,
                                                seed=sample_seed)
    else:
        profiler = RedundantLoadProfiler()
    machine = Machine(program, num_contexts=1,
                      max_instructions=max_instructions)
    machine.add_observer(profiler)
    run_to_completion(machine)
    store_sites = {site.pc: site for site in profiler.store_sites()}
    load_sites = {site.pc: site for site in profiler.load_sites()}
    total_loads = max(profiler.total_loads, 1)

    scored: List[ConversionCandidate] = []
    for candidate in candidates:
        feeders = [store_sites[pc] for pc in candidate.store_pcs
                   if pc in store_sites]
        candidate.dynamic_stores = sum(s.dynamic for s in feeders)
        candidate.silent_stores = sum(s.silent for s in feeders)
        if candidate.dynamic_stores < min_dynamic_stores:
            continue
        region_sites = [load_sites[pc] for pc in
                        range(candidate.region_start, candidate.region_end)
                        if pc in load_sites]
        candidate.region_loads = sum(s.dynamic for s in region_sites)
        candidate.redundant_loads = sum(s.redundant for s in region_sites)
        mass = candidate.redundant_loads / total_loads
        candidate.score = candidate.silent_fraction * mass
        silent_ci = _fraction_ci(feeders, "silent")
        mass_ci = _fraction_ci(region_sites, "redundant")
        if silent_ci is not None and mass_ci is not None:
            load_weight = candidate.region_loads / total_loads
            candidate.ci_low = silent_ci[0] * mass_ci[0] * load_weight
            candidate.ci_high = silent_ci[1] * mass_ci[1] * load_weight
        scored.append(candidate)

    def rank_key(candidate: ConversionCandidate) -> float:
        if candidate.ci_low is not None:
            return candidate.ci_low
        return candidate.score

    scored.sort(key=lambda c: (-rank_key(c), c.region_start))
    kept: List[ConversionCandidate] = []
    for candidate in scored:
        if any(other.contains(candidate) for other in kept):
            continue  # a superset region already ranked at least as high
        kept.append(candidate)
    return kept


def _fraction_ci(sites, _kind: str) -> Optional[Tuple[float, float]]:
    """Dynamic-weighted CI over sampled site estimates, or None if any
    site lacks one (exact profile)."""
    total = sum(site.dynamic for site in sites)
    if not total:
        return None
    low = high = 0.0
    for site in sites:
        estimate = getattr(site, "estimate", None)
        if estimate is None:
            return None
        low += estimate.ci_low * site.dynamic
        high += estimate.ci_high * site.dynamic
    return low / total, high / total
