"""Workload abstraction: baseline build, DTT build, input, reference.

A workload is the unit the harness runs.  The contract:

* :meth:`Workload.make_input` — deterministic input from (seed, scale);
* :meth:`Workload.build_baseline` — the unmodified kernel: it recomputes
  the derived data wherever the original program would;
* :meth:`Workload.build_dtt` — the converted kernel: derived-data
  recomputation moved into support threads fed by triggering stores, with
  consume points where the original recomputed; returns the program *and*
  the trigger specs that populate the thread registry;
* :meth:`Workload.reference_output` — a pure-Python model of the exact
  observable output (the ``out`` stream) both builds must produce.

Baseline and DTT builds of the same input must produce identical output;
:func:`verify_workload` checks all three ways.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Union

from repro.core.engine import DttEngine
from repro.core.registry import ThreadRegistry, TriggerSpec
from repro.errors import CorrectnessError, DttError
from repro.isa.program import Program
from repro.machine.machine import Machine, run_to_completion

Number = Union[int, float]


class WorkloadInput:
    """Named bag of generated input data (arrays and scalars)."""

    def __init__(self, seed: int, scale: int, **data):
        self.seed = seed
        self.scale = scale
        self._data: Dict[str, object] = dict(data)
        # each field is also a plain attribute: the builders and the
        # reference models read ``inp.<field>`` in their inner loops
        vars(self).update(data)

    def __getitem__(self, name: str):
        return self._data[name]

    def field_names(self):
        """Names of the generated input fields."""
        return self._data.keys()

    def __repr__(self) -> str:
        return (
            f"WorkloadInput(seed={self.seed}, scale={self.scale}, "
            f"fields={sorted(self._data)})"
        )


class DttBuild:
    """A DTT-converted program plus its trigger specs."""

    __slots__ = ("program", "specs")

    def __init__(self, program: Program, specs: Sequence[TriggerSpec]):
        self.program = program
        self.specs = list(specs)

    def registry(self) -> ThreadRegistry:
        """A fresh thread registry over this build's trigger specs."""
        return ThreadRegistry(self.specs)

    def engine(self, config=None, deferred: bool = False) -> DttEngine:
        """A fresh engine for one run of this build."""
        return DttEngine(self.registry(), config=config, deferred=deferred)

    def __repr__(self) -> str:
        return f"DttBuild({len(self.program)} instructions, {len(self.specs)} specs)"


class Workload:
    """Base class; subclasses define one benchmark each."""

    #: suite name (SPEC-style, e.g. "mcf")
    name: str = ""
    #: one-line description of the modeled kernel
    description: str = ""
    #: which region the DTT conversion moves into a support thread
    converted_region: str = ""
    #: default problem scale (see each workload's interpretation)
    default_scale: int = 1
    default_seed: int = 1234

    def make_input(self, seed: Optional[int] = None,
                   scale: Optional[int] = None) -> WorkloadInput:
        """Deterministic input from (seed, scale); defaults per class."""
        raise NotImplementedError

    def build_baseline(self, inp: WorkloadInput) -> Program:
        """The unmodified kernel: recomputes derived data every step."""
        raise NotImplementedError

    def build_dtt(self, inp: WorkloadInput) -> DttBuild:
        """The converted kernel: support threads + trigger specs."""
        raise NotImplementedError

    def build_dtt_watch(self, inp: WorkloadInput) -> Optional[DttBuild]:
        """Address-watched variant of the DTT build (for the granularity
        ablation, E8b).  Workloads that don't support it return None."""
        return None

    def build(self, kind: str, inp: WorkloadInput):
        """The ``kind`` build of ``inp``: the baseline :class:`Program`,
        or the ``dtt`` / ``dtt-watch`` :class:`DttBuild` (None when the
        workload has no watch variant)."""
        if kind == "baseline":
            return self.build_baseline(inp)
        if kind == "dtt":
            return self.build_dtt(inp)
        if kind == "dtt-watch":
            return self.build_dtt_watch(inp)
        raise DttError(f"unknown build kind {kind!r} "
                       "(expected baseline, dtt, or dtt-watch)")

    def reference_output(self, inp: WorkloadInput) -> List[Number]:
        """Pure-Python model of the exact observable output stream."""
        raise NotImplementedError

    # -- conveniences -----------------------------------------------------------

    def _args(self, seed: Optional[int], scale: Optional[int]):
        return (
            self.default_seed if seed is None else seed,
            self.default_scale if scale is None else scale,
        )

    def run_baseline(self, inp: WorkloadInput,
                     max_instructions: int = 20_000_000) -> List[Number]:
        """Functional run of the baseline build; returns the output."""
        program = self.build_baseline(inp)
        machine = Machine(program, num_contexts=1,
                          max_instructions=max_instructions)
        return run_to_completion(machine)

    def dtt_machine(self, inp: WorkloadInput, config=None,
                    num_contexts: int = 2,
                    max_instructions: int = 20_000_000) -> Machine:
        """A machine over the DTT build with a fresh synchronous engine
        attached, ready for a functional run."""
        build = self.build_dtt(inp)
        machine = Machine(build.program, num_contexts=num_contexts,
                          max_instructions=max_instructions)
        machine.attach_engine(build.engine(config=config))
        return machine

    def run_dtt(self, inp: WorkloadInput, config=None, num_contexts: int = 2,
                max_instructions: int = 20_000_000) -> List[Number]:
        """Functional run of the DTT build; returns the output."""
        return run_to_completion(self.dtt_machine(
            inp, config, num_contexts, max_instructions))

    def __repr__(self) -> str:
        return f"<Workload {self.name}>"


def verify_workload(workload: Workload, seed: Optional[int] = None,
                    scale: Optional[int] = None) -> List[Number]:
    """Check baseline == DTT == pure-Python reference on one input.

    Returns the (verified) output.  Raises
    :class:`~repro.errors.CorrectnessError` on any mismatch — this is the
    invariant the whole evaluation rests on: DTT is an *optimization*, not
    an approximation.
    """
    inp = workload.make_input(seed, scale)
    reference = workload.reference_output(inp)
    baseline = workload.run_baseline(inp)
    if baseline != reference:
        raise CorrectnessError(
            f"{workload.name}: baseline output diverges from reference "
            f"(first 5: {baseline[:5]} vs {reference[:5]})"
        )
    dtt = workload.run_dtt(inp)
    if dtt != reference:
        raise CorrectnessError(
            f"{workload.name}: DTT output diverges from reference "
            f"(first 5: {dtt[:5]} vs {reference[:5]})"
        )
    return reference
