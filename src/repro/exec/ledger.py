"""The cycle ledger: every timed run of the experiment plan, pinned exactly.

``results/cycle_ledger.json`` maps each timed run's canonical name
(:meth:`repro.exec.plan.RunSpec.canonical`) to what the timing model
computed for it: cycles, instruction counts, per-level cache statistics,
DRAM and coherence traffic, predictor counts, energy, the engine summary,
an output digest, and each core's issue counters.  A change that claims
to leave the timing model alone (a host-side speedup, a refactor) must
reproduce every entry exactly.

The runs are the deduplicated E1–E9 timed plan at the default seed and
scale, plus :data:`EXTRA_SPECS` (the E5 sensitivity subset on ``smt4``,
which no experiment times but which has the widest issue sharing).

Regenerate (after an intended model change) and check, from the
repository root::

    PYTHONPATH=src python3 tools/cycle_ledger.py            # rewrite
    PYTHONPATH=src python3 tools/cycle_ledger.py --check    # compare
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, Iterable, List, Optional, Tuple

from repro.exec.plan import RunSpec, build_plan, resolve_workload
from repro.timing.params import named_config
from repro.timing.stats import TimingResult
from repro.timing.system import TimingSimulator

#: ledger file format version
LEDGER_SCHEMA = 1

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


def output_digest(output) -> str:
    """Digest of an output stream; floats keep every digit."""
    text = json.dumps(list(output), separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def simulate(spec: RunSpec) -> Tuple[TimingSimulator, TimingResult]:
    """Run ``spec`` exactly as :meth:`SuiteRunner.timed` builds it; returns
    the finished simulator and its result."""
    workload = resolve_workload(spec.workload)
    inp = workload.make_input(spec.seed, spec.scale)
    system = named_config(spec.config_name)
    if spec.build == "baseline":
        simulator = TimingSimulator(workload.build_baseline(inp), system)
    else:
        build = (workload.build_dtt_watch(inp) if spec.build == "dtt-watch"
                 else workload.build_dtt(inp))
        engine = build.engine(config=spec.dtt_config(), deferred=True)
        simulator = TimingSimulator(build.program, system, engine=engine)
    return simulator, simulator.run()


def entry_of(simulator: TimingSimulator, result: TimingResult) -> Dict:
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
    return json.loads(json.dumps(entry, sort_keys=True))


def build_ledger(specs: Optional[Iterable[RunSpec]] = None,
                 progress=None) -> Dict:
    """Simulate ``specs`` (default: :func:`ledger_specs`) into a ledger."""
    runs = {}
    for spec in (ledger_specs() if specs is None else specs):
        if progress is not None:
            progress(spec.canonical())
        runs[spec.canonical()] = entry_of(*simulate(spec))
    return {"schema": LEDGER_SCHEMA, "runs": runs}


def diff_entries(expected: Dict, actual: Dict) -> List[str]:
    """Top-level fields on which two entries differ."""
    return sorted(key for key in set(expected) | set(actual)
                  if expected.get(key) != actual.get(key))
