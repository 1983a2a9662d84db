"""The benchmark: the simulator's host time, end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload figures --seed 0 --seconds 20 --trace 0

Each measured run is one workload iteration in a fresh interpreter
(``iteration.py``), executed serially by one client: a closed loop with no
result store, so every cache starts cold.  ``--trace 0`` repeats iterations
until ``--seconds`` is spent (at least one), adds a few set-up-only
iterations, and prints the end-to-end metrics.  ``--trace 1`` makes one
untraced and one traced iteration and prints the per-layer metrics.  Every
metric is printed as ``name value unit``; the last line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

See ``perfbench/README.md`` for the metric catalog and the workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("figures", "ablations", "profile", "verify")

#: number of input sets; ``--seed n`` selects set ``n % INPUT_SETS``
INPUT_SETS = 8

#: set-up-only iterations per untraced run; with the measured iterations
#: they give the median ``setup_s``
SETUP_PROBES = 5

#: a run stops starting iterations this long after it began, so it ends
#: well inside the three minutes a run may take
DEADLINE_S = 150.0

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "instr_per_s": "instr/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "machine.step.calls": "count",
    "machine.step.self_s": "s",
    "machine.instructions": "instr",
    "machine.support_instructions": "instr",
    "machine.run.self_s": "s",
    "timing.cycle.calls": "count",
    "timing.cycle.self_s": "s",
    "timing.run.self_s": "s",
    "timing.cycles": "cycles",
    "timing.skipped_cycles": "cycles",
    "timing.solo_cycle_frac": "ratio",
    "timing.branch.calls": "count",
    "timing.branch.self_s": "s",
    "timing.branch.mispredict_frac": "ratio",
    "cache.access.calls": "count",
    "cache.access.self_s": "s",
    "cache.L1.miss_frac": "ratio",
    "cache.L2.miss_frac": "ratio",
    "cache.dram_accesses": "count",
    "cache.coherence_invalidations": "count",
    "core.tstore.calls": "count",
    "core.tstore.self_s": "s",
    "core.dispatch.calls": "count",
    "core.dispatch.self_s": "s",
    "core.fired_frac": "ratio",
    "core.consume_skip_frac": "ratio",
    "core.overflow_runs": "count",
    "core.queue_high_water": "count",
    "profiling.observer.calls": "count",
    "profiling.observer.self_s": "s",
    "workloads.build.calls": "count",
    "workloads.build.self_s": "s",
    "harness.self_s": "s",
    "harness.memo_hits": "count",
    "harness.memo_misses": "count",
    "trace.overhead_frac": "ratio",
    "trace.machine.step.coverage": "ratio",
    "trace.cache.access.coverage": "ratio",
    "trace.timing.branch.coverage": "ratio",
    "trace.core.tstore.coverage": "ratio",
    "model_drift": "count",
    "failed_frac": "ratio",
    "speedup_geomean_err": "ratio",
    "speedup_max_err": "ratio",
    "redundant_load_err": "ratio",
}


def child_env() -> Dict[str, str]:
    """Environment for an iteration process: ``src`` of the checkout the
    benchmark runs in on the import path."""
    env = dict(os.environ)
    src = os.path.join(os.getcwd(), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


class IterationFailed(Exception):
    """An iteration process crashed or ran out of time."""


def run_child(workload: str, seed: int, deadline: float, trace: int = 0,
              setup_only: bool = False) -> Dict:
    """Run one iteration process; its payload plus host wall and set-up."""
    command = [sys.executable, os.path.join(HERE, "iteration.py"),
               "--workload", workload, "--seed", str(seed),
               "--trace", str(trace)]
    if setup_only:
        command.append("--setup-only")
    timeout = deadline + 25.0 - time.monotonic()
    started = time.monotonic()
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, env=child_env(),
                              timeout=max(timeout, 1.0), text=True)
    except subprocess.TimeoutExpired as error:
        raise IterationFailed(f"{workload}: iteration timed out") from error
    wall = time.monotonic() - started
    if done.returncode != 0:
        raise IterationFailed(
            f"{workload}: iteration exited {done.returncode}:\n"
            f"{done.stderr[-2000:]}")
    payload = json.loads(done.stdout.splitlines()[-1])
    payload["wall_s"] = wall
    payload["setup_s"] = payload["ready"] - started + payload["build_s"]
    return payload


def end_to_end(iterations: List[Dict], probes: List[Dict]) -> Dict[str, float]:
    """Medians over the measured iterations (set-up over probes too), in
    reference-host seconds (see ``hostspeed.py``)."""
    return {
        "wall_s": statistics.median(
            p["wall_s"] * p["host_speed"] for p in iterations),
        "setup_s": statistics.median(
            p["setup_s"] * p["host_speed"] for p in iterations + probes),
        "instr_per_s": statistics.median(
            p["instructions"] / ((p["wall_s"] - p["setup_s"])
                                 * p["host_speed"])
            for p in iterations),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"]
                                         for p in iterations),
    }


def per_layer(untraced: Dict, traced: Dict) -> Dict[str, float]:
    """The traced iteration's layer metrics, completed with the harness
    remainder, tracing overhead and correctness counts."""
    metrics = dict(traced["layers"])
    # everything outside a wrapped layer: interpreter start, imports,
    # runner memo, experiments, rendering, manifests, analysis summaries
    metrics["harness.self_s"] = traced["wall_s"] - traced["spanned_s"]
    metrics["trace.overhead_frac"] = (
        traced["wall_s"] * traced["host_speed"]
        / (untraced["wall_s"] * untraced["host_speed"]) - 1)
    metrics["model_drift"] = traced["model_drift"]
    # failed operations plus failed shape checks, over both attempted
    attempted, failed = tally([traced])
    metrics["failed_frac"] = (failed + traced["shape_failed"]) / (
        attempted + traced["shape_checks"])
    for name in ("speedup_geomean_err", "speedup_max_err",
                 "redundant_load_err"):
        # 0 where the workload does not run the experiment behind it
        metrics[name] = traced["model_error"].get(name, 0.0)
    return metrics


def tally(payloads: List[Dict]):
    """(attempted, failed) operations: runs plus output checks, and the
    runs that raised or never ran plus the outputs that differ."""
    attempted = sum(p["runs"] + p["outputs_checked"] for p in payloads)
    failed = sum(p["runs_failed"] + p["outputs_failed"] for p in payloads)
    return attempted, failed


def measure(workload: str, seed: int, seconds: float, trace: bool):
    """Run the iterations one benchmark run needs; (payloads, metrics)."""
    began = time.monotonic()
    deadline = began + DEADLINE_S
    if trace:
        untraced = run_child(workload, seed, deadline)
        traced = run_child(workload, seed, deadline, trace=1)
        return [untraced, traced], per_layer(untraced, traced)
    iterations: List[Dict] = []
    while True:
        iterations.append(run_child(workload, seed, deadline))
        typical = statistics.median(p["wall_s"] for p in iterations)
        now = time.monotonic()
        if now - began + typical > seconds or now + typical > deadline:
            break
    probes = []
    while len(probes) < SETUP_PROBES and time.monotonic() < deadline:
        probes.append(run_child(workload, seed, deadline, setup_only=True))
    return iterations, end_to_end(iterations, probes)


def report(workload: str, payloads: List[Dict], metrics: Dict[str, float],
           units: Dict[str, str]) -> Dict:
    """Print every metric by name with its unit; the result object."""
    label = ("in-sample: default seed" if payloads[0]["input_seed"] is None
             else f"held-out: workload seed {payloads[0]['input_seed']}")
    print(f"workload {workload}, input set {label}, "
          f"{len(payloads)} iteration(s)")
    walls = sorted(p["wall_s"] * p["host_speed"] for p in payloads)
    if len(walls) > 10:
        print(f"wall_s p{100 * (len(walls) - 10) // len(walls)} "
              f"{walls[len(walls) - 11]:.4f} s (n={len(walls)})")
    for payload in payloads:
        print(f"iteration: {payload['wall_s']:.4f} s on this host, "
              f"host speed {payload['host_speed']:.4f} x reference")
    for name, unit in units.items():
        print(f"{name} {metrics[name]:.6g} {unit}")
    for payload in payloads:
        for error in payload["errors"]:
            print(f"failure: {error}")
        for key in payload["drifted"]:
            print(f"model drift: {key}")
    attempted, failed = tally(payloads)
    drift = sum(p["model_drift"] for p in payloads)
    return {
        "correct": failed == 0 and drift == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0,
                        help=f"input set (seed mod {INPUT_SETS}; "
                             "0 = each workload's default seed)")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "repro", "__init__.py")):
        print("perfbench: no source tree at src/repro; run from the "
              "repository root", file=sys.stderr)
        return 2
    try:
        payloads, metrics = measure(args.workload, args.seed, args.seconds,
                                    bool(args.trace))
    except IterationFailed as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    units = PER_LAYER if args.trace else END_TO_END
    result = report(args.workload, payloads, metrics, units)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
