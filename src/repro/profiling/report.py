"""Convenience entry point: profile one program in one call.

``profile_program`` runs a finalized program functionally with both
analyzers attached and returns a :class:`RedundancyReport` — the unit a
benchmark-level study (E1/E2) aggregates across the suite.  The two
analyses read one verdict per load, from the machine's one load history
(:class:`~repro.machine.events.LoadHistory`), so a load the load
profiler counts as redundant is exactly one the taint analysis taints.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.engine import DttEngine
from repro.isa.program import Program
from repro.machine.machine import Machine, run_to_completion
from repro.profiling.redundancy import RedundantLoadProfiler
from repro.profiling.slices import RedundancyTaintAnalyzer


class RedundancyReport:
    """Both analyses of one run, plus the run's output for checking.

    ``compiled_instructions`` counts the instructions retired inside
    compiled blocks, whose analyses ran as inline shadow transfers
    (``Machine.compiled_instructions``).
    """

    __slots__ = ("name", "loads", "slices", "output", "instructions",
                 "compiled_instructions")

    def __init__(self, name, loads, slices, output, instructions,
                 compiled_instructions=0):
        self.name = name
        self.loads = loads
        self.slices = slices
        self.output = output
        self.instructions = instructions
        self.compiled_instructions = compiled_instructions

    @property
    def redundant_load_fraction(self) -> float:
        return self.loads.redundant_load_fraction

    @property
    def silent_store_fraction(self) -> float:
        return self.loads.silent_store_fraction

    @property
    def redundant_computation_fraction(self) -> float:
        return self.slices.redundant_fraction

    def summary(self) -> Dict[str, float]:
        """Merged load + slice summaries, tagged with the run's name."""
        merged = dict(self.loads.summary())
        merged.update(self.slices.summary())
        merged["name"] = self.name
        return merged

    def __repr__(self) -> str:
        return (
            f"RedundancyReport({self.name!r}, "
            f"loads={self.redundant_load_fraction:.1%}, "
            f"computation={self.redundant_computation_fraction:.1%})"
        )


def profile_program(
    program: Program,
    name: str = "program",
    engine: Optional[DttEngine] = None,
    num_contexts: int = 1,
    max_instructions: int = 20_000_000,
    sample_rate: Optional[int] = None,
    sample_seed: int = 0,
) -> RedundancyReport:
    """Run ``program`` functionally under both redundancy analyzers.

    The paper's motivation study profiles *unmodified* (baseline) builds,
    so ``engine`` is normally ``None``; passing a synchronous engine lets
    you profile a DTT build's residual redundancy instead.

    ``sample_rate`` (a denominator: 64 means 1/64 of addresses) switches
    the load analysis to the bounded-memory
    :class:`~repro.profiling.sampled.SampledRedundantLoadProfiler`,
    whose site stats are estimates with confidence intervals instead of
    exact counts.  The forward-slice taint analyzer needs every load to
    propagate taint, so sampled profiles skip it and report a
    redundant-computation fraction of 0 with ``slice_sampled_out`` set —
    E1-style load/store numbers are the ones sampling scales.
    """
    machine = Machine(program, num_contexts=num_contexts,
                      max_instructions=max_instructions)
    if engine is not None:
        machine.attach_engine(engine)
    if sample_rate is not None:
        from repro.profiling.sampled import SampledRedundantLoadProfiler

        loads = SampledRedundantLoadProfiler(sample_rate, seed=sample_seed)
        slices = _SampledOutSlices()
        machine.add_observer(loads)
    else:
        loads = RedundantLoadProfiler()
        slices = RedundancyTaintAnalyzer()
        machine.add_observer(loads)
        machine.add_observer(slices)
    output = run_to_completion(machine)
    return RedundancyReport(
        name=name,
        loads=loads,
        slices=slices,
        output=output,
        instructions=machine.instructions_executed,
        compiled_instructions=machine.compiled_instructions,
    )


class _SampledOutSlices:
    """Stand-in slice analysis for sampled profiles.

    Taint propagation is whole-stream by construction (every load either
    carries or clears taint), so a sampled profile cannot estimate it;
    this reports zero with an explicit marker rather than a silently
    wrong number.
    """

    redundant_fraction = 0.0
    total_instructions = 0
    redundant_instructions = 0

    def summary(self) -> Dict[str, float]:
        return {
            "redundant_computation_fraction": 0.0,
            "slice_sampled_out": 1,
        }
