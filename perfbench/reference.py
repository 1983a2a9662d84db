"""The committed reference of simulated statistics, and how to regenerate it.

Every run the benchmark makes is keyed by its canonical run name
(:meth:`repro.exec.plan.RunSpec.canonical`; functional verify runs use the
same form with machine configuration ``functional``).  Each entry holds the
run's simulated statistics and a digest of its output.  A change that only
makes the simulator faster on the host must leave every entry identical;
the benchmark counts the runs that differ as ``model_drift``.

Regenerate after an intended model change, from the repository root::

    python3 perfbench/reference.py

That runs every workload on every input set in fresh interpreters, one at
a time (about eight minutes on a 2-core host), and rewrites
``perfbench/reference.json``.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from typing import Dict

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")


def output_digest(output) -> str:
    """Digest of an output stream; floats keep every digit."""
    text = json.dumps(list(output), separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _normal(stats: Dict) -> Dict:
    """The form an entry takes after a JSON round trip (tuples become
    lists), so live statistics compare equal to stored ones."""
    return json.loads(json.dumps(stats, sort_keys=True))


def timed_stats(result) -> Dict:
    """Simulated statistics of one timed run's
    :class:`~repro.timing.stats.TimingResult`."""
    return _normal({
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
    })


def profile_stats(report) -> Dict:
    """Statistics of one :class:`~repro.profiling.report.RedundancyReport`."""
    return _normal({
        "instructions": report.instructions,
        "loads": report.loads.summary(),
        "slices": report.slices.summary(),
        "output": output_digest(report.output),
    })


def machine_stats(machine) -> Dict:
    """Statistics of one functional :class:`~repro.machine.Machine` run."""
    engine = machine.dtt_engine
    return _normal({
        "instructions": machine.instructions_executed,
        "main_instructions": machine.main_instructions,
        "support_instructions": machine.support_instructions,
        "engine": engine.summary() if engine is not None else None,
        "output": output_digest(machine.output),
    })


def load(path: str = REFERENCE_PATH) -> Dict[str, Dict]:
    """The committed entries, keyed by canonical run name (none before
    the first regeneration)."""
    if not os.path.exists(path):
        return {}
    with open(path) as handle:
        return json.load(handle)["entries"]


def drift(stats: Dict[str, Dict], reference: Dict[str, Dict]) -> list:
    """Canonical names of runs whose statistics differ from (or are
    missing in) the reference."""
    return sorted(key for key, value in stats.items()
                  if reference.get(key) != value)


def regenerate(path: str = REFERENCE_PATH) -> int:
    """Rerun every workload on every input set and rewrite the reference."""
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, here)
    from run import INPUT_SETS, WORKLOADS, child_env

    entries: Dict[str, Dict] = {}
    for workload in WORKLOADS:
        for seed in range(INPUT_SETS):
            command = [sys.executable, os.path.join(here, "iteration.py"),
                       "--workload", workload, "--seed", str(seed),
                       "--emit-stats"]
            done = subprocess.run(command, stdout=subprocess.PIPE,
                                  env=child_env(), check=True, text=True)
            payload = json.loads(done.stdout.splitlines()[-1])
            if payload["runs_failed"] or payload["outputs_failed"]:
                print(f"{workload} seed {seed}: failures, not written: "
                      f"{payload['errors']}", file=sys.stderr)
                return 1
            for key, value in payload["stats"].items():
                if entries.setdefault(key, value) != value:
                    print(f"{key}: two runs disagree", file=sys.stderr)
                    return 1
            print(f"{workload} seed {seed}: {len(payload['stats'])} runs, "
                  f"{payload['shape_failed']} of {payload['shape_checks']} "
                  "shape checks failed", flush=True)
    compact = {"sort_keys": True, "separators": (",", ":")}
    lines = [f"{json.dumps(key)}: {json.dumps(entries[key], **compact)}"
             for key in sorted(entries)]
    with open(path, "w") as handle:
        handle.write('{"regenerate": "python3 perfbench/reference.py",\n'
                     '"entries": {\n' + ",\n".join(lines) + "\n}}\n")
    print(f"wrote {len(entries)} entries to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(regenerate())
