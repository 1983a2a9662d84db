"""The cycle ledger: every run of the experiment plan, pinned exactly.

``results/cycle_ledger.json`` maps each timed run's canonical name
(:meth:`repro.exec.plan.RunSpec.canonical`) to what the timing model
computed for it: cycles, instruction counts, per-level cache statistics,
DRAM and coherence traffic, predictor counts, energy, the engine summary,
an output digest, each core's issue counters and, for a DTT build, a
digest of the deferred engine's ordered event stream with each event's
cycle stamp, so a change that dispatches activations in another order or
at another cycle drifts even when every total holds.  A change that claims
to leave the timing model alone (a host-side speedup, a refactor) must
reproduce every entry exactly.

The runs are the deduplicated E1–E9 timed plan at the default seed and
scale, plus :data:`EXTRA_SPECS` (the E5 sensitivity subset on ``smt4``,
which no experiment times but which has the widest issue sharing).

Its ``profiles`` section pins the plan's E1/E2 profile runs the same
way: both analyzers' summaries, every load and store site in the order
``load_sites()`` / ``store_sites()`` return them (ties in dynamic count
keep first-execution order), ``redundant_by_class`` and the output
digest.

Its ``functional`` section pins the functional DTT run of every suite
workload at the default seed and scale, as :meth:`Workload.run_dtt` runs
it (synchronous engine, two contexts): main and support instructions,
the engine summary, the output digest, and a digest of the engine's
ordered event stream, so a change that reorders engine events but lands
on the same totals still drifts.

Regenerate (after an intended model change) and check, from the
repository root::

    PYTHONPATH=src python3 tools/cycle_ledger.py            # rewrite
    PYTHONPATH=src python3 tools/cycle_ledger.py --check    # compare
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.trace import EngineEvent, EngineTrace
from repro.exec.plan import (RunSpec, build_plan, canonical_run_name,
                             resolve_workload)
from repro.machine.machine import Machine, run_to_completion
from repro.profiling.report import RedundancyReport, profile_program
from repro.timing.params import named_config
from repro.timing.stats import TimingResult
from repro.timing.system import TimingSimulator
from repro.workloads.base import Workload
from repro.workloads.suite import SUITE

#: ledger file format version (2 added the ``profiles`` section, 3 the
#: ``functional`` section, 4 the timed DTT runs' event digests)
LEDGER_SCHEMA = 4

#: timed runs pinned beyond the experiment plan
EXTRA_SPECS = tuple(
    RunSpec.for_timed(name, build, "smt4")
    for name in ("mcf", "equake", "art", "twolf")
    for build in ("dtt", "baseline")
)


def ledger_specs() -> List[RunSpec]:
    """Every timed run the ledger pins, in plan order."""
    specs = [spec for spec in build_plan(["all"]) if spec.kind == "timed"]
    for spec in EXTRA_SPECS:
        if spec not in specs:
            specs.append(spec)
    return specs


def profile_specs() -> List[RunSpec]:
    """Every profile run the ledger pins, in plan order."""
    return [spec for spec in build_plan(["all"]) if spec.kind == "profile"]


def functional_runs() -> Dict[str, Workload]:
    """Every functional DTT run the ledger pins, by canonical name: one
    per suite workload, in suite order."""
    return {canonical_run_name(name, "dtt", "functional", (), None, None):
            workload for name, workload in SUITE.items()}


def output_digest(output) -> str:
    """Digest of an output stream; floats keep every digit."""
    text = json.dumps(list(output), separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def simulate(spec: RunSpec) -> Tuple[TimingSimulator, TimingResult,
                                     Optional[EventDigest]]:
    """Run ``spec`` exactly as :meth:`SuiteRunner.timed` builds it; returns
    the finished simulator, its result, and the digest of its engine's
    events (None for a baseline build)."""
    workload = resolve_workload(spec.workload)
    build = workload.build(spec.build,
                           workload.make_input(spec.seed, spec.scale))
    program, engine, digest = build, None, None
    if spec.build != "baseline":
        program = build.program
        engine = build.engine(config=spec.dtt_config(), deferred=True)
        digest = EventDigest()
        # no in-memory buffer: every event goes to the digest only
        EngineTrace(engine, max_events=0, spill=digest)
    simulator = TimingSimulator(program, named_config(spec.config_name),
                                engine=engine)
    return simulator, simulator.run(), digest


def entry_of(simulator: TimingSimulator, result: TimingResult,
             digest: Optional[EventDigest] = None) -> Dict:
    """The ledger entry of a finished run, in its JSON round-trip form."""
    entry = {
        "cycles": result.cycles,
        "instructions": result.instructions,
        "main_instructions": result.main_instructions,
        "support_instructions": result.support_instructions,
        "branch_lookups": result.branch_lookups,
        "branch_mispredicts": result.branch_mispredicts,
        "cache": result.cache_stats,
        "dram_accesses": result.dram_accesses,
        "coherence_invalidations": result.coherence_invalidations,
        "energy": result.energy,
        "engine": result.engine_summary,
        "output": output_digest(result.output),
        "cores": [
            {
                "busy_cycles": core.busy_cycles,
                "instructions_issued": core.instructions_issued,
                "class_counts": {cls.value: n
                                 for cls, n in core.class_counts.items()},
                "rotation": core._rotation,
            }
            for core in simulator.cores
        ],
        "busy_until": [ctx.busy_until for ctx in simulator.machine.contexts],
    }
    if digest is not None:
        entry["events"] = digest.events
        entry["event_digest"] = digest.hexdigest()
    return json.loads(json.dumps(entry, sort_keys=True))


def profile(spec: RunSpec) -> RedundancyReport:
    """Profile ``spec`` exactly as :meth:`SuiteRunner.profile` does."""
    workload = resolve_workload(spec.workload)
    inp = workload.make_input(spec.seed, spec.scale)
    return profile_program(workload.build_baseline(inp), workload.name)


def profile_entry_of(report: RedundancyReport) -> Dict:
    """The ledger entry of a finished profile, in its JSON round-trip
    form."""
    loads, slices = report.loads, report.slices
    entry = {
        "loads": loads.summary(),
        "slices": slices.summary(),
        "load_sites": [[s.pc, s.dynamic, s.redundant]
                       for s in loads.load_sites()],
        "store_sites": [[s.pc, s.dynamic, s.silent, s.triggering]
                        for s in loads.store_sites()],
        "redundant_by_class": {cls.value: n for cls, n
                               in slices.redundant_by_class.items()},
        "output": output_digest(report.output),
    }
    return json.loads(json.dumps(entry, sort_keys=True))


class EventDigest:
    """An :class:`EngineTrace` spill sink that hashes every event, every
    field of it, in the order the engine records them."""

    def __init__(self):
        self.events = 0
        self._hash = hashlib.sha256()

    def append(self, event: EngineEvent) -> None:
        """Hash one recorded event."""
        self.events += 1
        fields = [getattr(event, name) for name in EngineEvent.__slots__]
        self._hash.update(json.dumps(fields).encode("utf-8"))

    def hexdigest(self) -> str:
        """The digest of every event appended so far."""
        return self._hash.hexdigest()[:16]


def run_functional(workload: Workload) -> Tuple[Machine, EventDigest]:
    """Run ``workload``'s DTT build at the default seed and scale exactly
    as :meth:`Workload.run_dtt` does, digesting its engine's events."""
    machine = workload.dtt_machine(workload.make_input())
    digest = EventDigest()
    # no in-memory buffer: every event goes to the digest only
    EngineTrace(machine.dtt_engine, max_events=0, spill=digest)
    run_to_completion(machine)
    return machine, digest


def functional_entry_of(machine: Machine, digest: EventDigest) -> Dict:
    """The ledger entry of a finished functional run, in its JSON
    round-trip form."""
    entry = {
        "main_instructions": machine.main_instructions,
        "support_instructions": machine.support_instructions,
        "engine": machine.dtt_engine.summary(),
        "output": output_digest(machine.output),
        "events": digest.events,
        "event_digest": digest.hexdigest(),
    }
    return json.loads(json.dumps(entry, sort_keys=True))


def build_ledger(specs: Optional[Iterable[RunSpec]] = None,
                 profiles: Optional[Iterable[RunSpec]] = None,
                 functional: Optional[Iterable[str]] = None,
                 progress=None, coverage: Optional[Dict] = None) -> Dict:
    """Simulate ``specs`` (default: :func:`ledger_specs`), profile
    ``profiles`` (default: :func:`profile_specs`) and run the functional
    DTT runs named in ``functional`` (default: all of
    :func:`functional_runs`) into a ledger.

    ``coverage``, if given, accumulates the runs' ``instructions``,
    ``solo_instructions``, ``multi_instructions`` and
    ``compiled_instructions`` (instructions retired in all, by the solo
    and the multi-context run-ahead, and inside compiled blocks), and the
    profiles' ``profiled_instructions`` and
    ``compiled_profiled_instructions`` (instructions profiled, and those
    of them retired inside compiled blocks, analysed by inline shadow
    transfers).
    """
    runs = {}
    for spec in (ledger_specs() if specs is None else specs):
        if progress is not None:
            progress(spec.canonical())
        simulator, result, digest = simulate(spec)
        runs[spec.canonical()] = entry_of(simulator, result, digest)
        if coverage is not None:
            coverage["instructions"] = (coverage.get("instructions", 0)
                                        + result.instructions)
            for key in ("solo_instructions", "multi_instructions",
                        "compiled_instructions"):
                coverage[key] = (coverage.get(key, 0)
                                 + getattr(simulator, key))
    pinned = {}
    for spec in (profile_specs() if profiles is None else profiles):
        if progress is not None:
            progress(spec.canonical())
        report = profile(spec)
        pinned[spec.canonical()] = profile_entry_of(report)
        if coverage is not None:
            for key, count in (("profiled_instructions", report.instructions),
                               ("compiled_profiled_instructions",
                                report.compiled_instructions)):
                coverage[key] = coverage.get(key, 0) + count
    workloads = functional_runs()
    functional_entries = {}
    for name in (workloads if functional is None else functional):
        if progress is not None:
            progress(name)
        functional_entries[name] = functional_entry_of(
            *run_functional(workloads[name]))
    return {"schema": LEDGER_SCHEMA, "runs": runs, "profiles": pinned,
            "functional": functional_entries}


def diff_entries(expected: Dict, actual: Dict) -> List[str]:
    """Top-level fields on which two entries differ."""
    return sorted(key for key in set(expected) | set(actual)
                  if expected.get(key) != actual.get(key))
