"""One benchmark iteration: one workload run, in a fresh interpreter.

``run.py`` starts this script once per measured run, so the superblock code
cache, the runner memo and the modelled caches start cold, as they do for
``dtt-harness run``.  The last line of standard output is a JSON payload:
timestamps, counts, correctness results and, with ``--trace 1``, per-layer
calls and self times.

    python3 perfbench/iteration.py --workload figures --seed 0 [--trace 1]
    python3 perfbench/iteration.py --workload figures --seed 0 --setup-only
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from typing import Dict, Iterable, List, Optional

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from repro.exec.plan import (RunSpec, build_plan,  # noqa: E402
                             canonical_run_name, resolve_workload)
from repro.harness.experiments import (geometric_mean,  # noqa: E402
                                       run_experiment)
from repro.harness.runner import SuiteRunner  # noqa: E402
from repro.machine.machine import Machine  # noqa: E402
from repro.workloads.base import verify_workload  # noqa: E402
from repro.workloads.suite import SUITE  # noqa: E402

import reference  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402
from run import INPUT_SETS, WORKLOADS  # noqa: E402
from spans import Tracer  # noqa: E402

#: workload -> the experiments it runs (``verify`` runs ``dtt-harness
#: verify`` instead).  E5 is left out: figures and ablations cover its layers.
EXPERIMENTS_OF = {
    "figures": ("E3", "E4", "E6", "E7"),
    "ablations": ("E8", "E9"),
    "profile": ("E1", "E2"),
    "verify": (),
}

#: ``verify`` at the default scale takes about 2 s, too little to measure
#: the compiled tier against interpreter start; scale 3 takes about 8 s
VERIFY_SCALE = 3

#: the paper's reported values the model is calibrated against
PAPER_SPEEDUP_GEOMEAN = 1.46
PAPER_SPEEDUP_MAX = 5.9
PAPER_REDUNDANT_LOADS = 0.78


def workload_seed(seed: int) -> Optional[int]:
    """The workload seed of input set ``seed % INPUT_SETS``.

    Set 0 is every workload's ``default_seed``, the inputs the goldens and
    the paper calibration use; sets 1 to 7 are held out from calibration.
    The committed reference covers exactly these sets.
    """
    index = seed % INPUT_SETS
    return None if index == 0 else index


class FunctionalRuns:
    """Records each functional machine's statistics after ``Machine.run``.

    Timed runs report through their ``TimingResult``; functional runs
    (profiles, ``verify``) return only their output, so the statistics are
    read off the machine when its run call returns.  ``run_to_completion``
    calls ``Machine.run`` once per machine: it returns only when the main
    context halts or blocks, and a blocked main context raises.
    """

    def __init__(self):
        self.records: List[Dict] = []
        self._original = None

    def install(self) -> "FunctionalRuns":
        original = self._original = Machine.run
        records = self.records

        def run(machine, *args, **kwargs):
            try:
                return original(machine, *args, **kwargs)
            finally:
                records.append(reference.machine_stats(machine))

        Machine.run = run
        return self

    def uninstall(self) -> None:
        Machine.run = self._original


class _SubsetRunner(SuiteRunner):
    """A runner whose suite is a subset (reduced-scale tests)."""

    def __init__(self, names: Iterable[str], **kwargs):
        super().__init__(**kwargs)
        self._names = list(names)

    def suite(self):
        return [SUITE[name] for name in self._names]


class Outcome:
    """What one iteration ran and checked."""

    def __init__(self):
        self.stats: Dict[str, Dict] = {}
        self.runs = 0
        self.runs_failed = 0
        #: output comparisons: against the workload's pure-Python
        #: reference, or a DTT run against its baseline
        self.outputs_checked = 0
        self.outputs_failed = 0
        #: the experiments' shape checks: claims about the model's
        #: calibration, not about a run's correctness
        self.shape_checks = 0
        self.shape_failed = 0
        self.errors: List[str] = []
        self.timed_results: List = []
        #: instructions executed one ``Machine.step`` at a time
        self.stepped_instructions = 0
        self.memo_hits = 0
        self.memo_misses = 0
        self.model_error: Dict[str, float] = {}

    def check_output(self, passed: bool, what: str) -> None:
        self.outputs_checked += 1
        if not passed:
            self.outputs_failed += 1
            self.errors.append(what)

    def check_shape(self, passed: bool, what: str) -> None:
        self.shape_checks += 1
        if not passed:
            self.shape_failed += 1
            self.errors.append(f"shape check failed: {what}")


def planned(experiments, seed, names: Optional[List[str]] = None):
    """The runs ``experiments`` make (their deduplicated plan), without
    suite programs outside a reduced suite ``names``."""
    for spec in build_plan(experiments, seed=seed):
        if names is None or spec.workload in names \
                or spec.workload not in SUITE:
            yield spec


def _reference_outputs(seed, scale):
    cache: Dict[str, List] = {}

    def expected(name: str) -> List:
        if name not in cache:
            workload = resolve_workload(name)
            cache[name] = workload.reference_output(
                workload.make_input(seed, scale))
        return cache[name]

    return expected


def run_experiments(experiments, seed, outcome: Outcome,
                    names: Optional[List[str]] = None) -> None:
    """Run experiments serially through one runner, as ``dtt-harness run
    --jobs 1 --no-store`` does, then check every planned run."""
    if names is None:
        runner = SuiteRunner(seed=seed)
    else:
        runner = _SubsetRunner(names, seed=seed)
    for experiment_id in experiments:
        try:
            result = run_experiment(experiment_id, runner)
        except Exception as error:  # counted as failed runs below
            outcome.errors.append(f"{experiment_id}: {error!r}")
            continue
        print(result.render())
        print()
        for check in result.checks:
            outcome.check_shape(check.passed,
                                f"{experiment_id}: {check.name}")
    memo = runner.cache_stats()
    outcome.memo_hits, outcome.memo_misses = memo["hits"], memo["misses"]

    expected = _reference_outputs(seed, None)
    for spec in planned(experiments, seed, names):
        outcome.runs += 1
        if not runner.is_cached(spec):
            outcome.runs_failed += 1
            continue
        result = runner.result_for(spec)
        if spec.kind == "profile":
            outcome.stats[spec.canonical()] = reference.profile_stats(result)
            outcome.stepped_instructions += result.instructions
            outcome.check_output(result.output == expected(spec.workload),
                                 f"{spec.canonical()}: output != reference")
            continue
        outcome.stats[spec.canonical()] = reference.timed_stats(result)
        outcome.timed_results.append(result)
        outcome.stepped_instructions += result.instructions
        baseline = spec.baseline_spec()
        if baseline is None:
            outcome.check_output(result.output == expected(spec.workload),
                                 f"{spec.canonical()}: output != reference")
        elif runner.is_cached(baseline):
            outcome.check_output(
                result.output == runner.result_for(baseline).output,
                f"{spec.canonical()}: output != baseline")

    suite = [workload.name for workload in runner.suite()]
    if "E3" in experiments:
        speedups = []
        for name in suite:
            specs = [RunSpec.for_timed(name, build, seed=seed)
                     for build in ("baseline", "dtt")]
            if all(runner.is_cached(spec) for spec in specs):
                base, dtt = (runner.result_for(spec) for spec in specs)
                speedups.append(dtt.speedup_over(base))
        if len(speedups) == len(suite):
            outcome.model_error["speedup_geomean_err"] = abs(
                geometric_mean(speedups) - PAPER_SPEEDUP_GEOMEAN
            ) / PAPER_SPEEDUP_GEOMEAN
            outcome.model_error["speedup_max_err"] = abs(
                max(speedups) - PAPER_SPEEDUP_MAX) / PAPER_SPEEDUP_MAX
    if "E1" in experiments:
        specs = [RunSpec.for_profile(name, seed) for name in suite]
        if all(runner.is_cached(spec) for spec in specs):
            fractions = [runner.result_for(spec).redundant_load_fraction
                         for spec in specs]
            average = sum(fractions) / len(fractions)
            outcome.model_error["redundant_load_err"] = abs(
                average - PAPER_REDUNDANT_LOADS) / PAPER_REDUNDANT_LOADS


def run_verify(seed, outcome: Outcome, functional: FunctionalRuns,
               names: Optional[List[str]] = None,
               scale: int = VERIFY_SCALE) -> None:
    """``dtt-harness verify``: baseline == DTT == reference per workload,
    functionally, on the default (superblock) tier."""
    for name in (list(SUITE) if names is None else names):
        first = len(functional.records)
        try:
            verify_workload(SUITE[name], seed=seed, scale=scale)
            passed = True
        except Exception as error:  # counted, then the sweep goes on
            outcome.errors.append(f"verify {name}: {error!r}")
            passed = False
        outcome.check_output(passed, f"verify {name}")
        by_build = {("baseline" if record["engine"] is None else "dtt"):
                    record for record in functional.records[first:]}
        for build in ("baseline", "dtt"):
            outcome.runs += 1
            if build not in by_build:
                outcome.runs_failed += 1
                continue
            record = by_build[build]
            key = canonical_run_name(name, build, "functional", (), seed,
                                     scale)
            outcome.stats[key] = record
            # support threads of a synchronous engine single-step
            outcome.stepped_instructions += record["support_instructions"]


def run_setup(workload: str, seed, names: Optional[List[str]] = None,
              scale: int = VERIFY_SCALE) -> None:
    """Make the inputs and builds an iteration of ``workload`` makes,
    without simulating: the set-up part of an iteration, on its own."""
    if workload == "verify":
        for name in (list(SUITE) if names is None else names):
            work = SUITE[name]
            inp = work.make_input(seed, scale)
            work.reference_output(inp)
            work.build_baseline(inp)
            work.build_dtt(inp)
        return
    checked = set()
    for spec in planned(EXPERIMENTS_OF[workload], seed, names):
        work = resolve_workload(spec.workload)
        inp = work.make_input(seed, None)
        if spec.build in ("baseline", "profile"):
            work.build_baseline(inp)
            if spec.workload not in checked:
                checked.add(spec.workload)
                work.reference_output(work.make_input(seed, None))
        elif spec.build == "dtt-watch":
            work.build_dtt_watch(inp)
        else:
            work.build_dtt(inp)


def _sum_engine(engines: List[Dict], field: str) -> int:
    return sum(engine[field] for engine in engines)


def layer_metrics(tracer: Tracer, outcome: Outcome,
                  functional: FunctionalRuns) -> Dict[str, float]:
    """Per-layer calls and self times, plus the simulated counts that say
    how much work each layer had."""
    metrics: Dict[str, float] = {}
    for layer in ("machine.step", "timing.cycle", "timing.branch",
                  "cache.access", "core.tstore", "core.dispatch",
                  "profiling.observer", "workloads.build"):
        metrics[f"{layer}.calls"] = tracer.calls(layer)
        metrics[f"{layer}.self_s"] = tracer.self_seconds(layer)
    metrics["machine.run.self_s"] = tracer.self_seconds("machine.run")
    metrics["timing.run.self_s"] = tracer.self_seconds("timing.run")

    timed = outcome.timed_results
    records = functional.records
    metrics["machine.instructions"] = (
        sum(r.instructions for r in timed)
        + sum(r["instructions"] for r in records))
    metrics["machine.support_instructions"] = (
        sum(r.support_instructions for r in timed)
        + sum(r["support_instructions"] for r in records))

    cycles = sum(r.cycles for r in timed)
    metrics["timing.cycles"] = cycles
    metrics["timing.skipped_cycles"] = cycles - tracer.iterated_cycles
    metrics["timing.solo_cycle_frac"] = _ratio(tracer.solo_cycles,
                                               tracer.iterated_cycles)
    lookups = sum(r.branch_lookups for r in timed)
    metrics["timing.branch.mispredict_frac"] = _ratio(
        sum(r.branch_mispredicts for r in timed), lookups)

    level_totals: Dict[str, List[int]] = {"L1": [0, 0], "L2": [0, 0]}
    for result in timed:
        for name, stats in result.cache_stats.items():
            level = name.split(".")[0]
            if level in level_totals:
                level_totals[level][0] += stats["hits"] + stats["misses"]
                level_totals[level][1] += stats["misses"]
    for level, (accesses, misses) in level_totals.items():
        metrics[f"cache.{level}.miss_frac"] = _ratio(misses, accesses)
    metrics["cache.dram_accesses"] = sum(r.dram_accesses for r in timed)
    metrics["cache.coherence_invalidations"] = sum(
        r.coherence_invalidations for r in timed)

    engines = [r.engine_summary for r in timed if r.engine_summary] + [
        r["engine"] for r in records if r["engine"]]
    matched = _sum_engine(engines, "triggering_stores")
    metrics["core.fired_frac"] = _ratio(
        _sum_engine(engines, "triggers_fired"), matched)
    metrics["core.consume_skip_frac"] = _ratio(
        _sum_engine(engines, "clean_consumes"),
        _sum_engine(engines, "consumes"))
    metrics["core.overflow_runs"] = _sum_engine(engines,
                                                "overflow_inline_runs")
    metrics["core.queue_high_water"] = max(
        (engine["queue_depth_high_water"] for engine in engines), default=0)

    metrics["harness.memo_hits"] = outcome.memo_hits
    metrics["harness.memo_misses"] = outcome.memo_misses

    # wrapper-seen calls over the program's own counters; 0/0 reads 1.0
    # (nothing to see, nothing missed)
    metrics["trace.machine.step.coverage"] = _ratio(
        tracer.calls("machine.step"), outcome.stepped_instructions, 1.0)
    metrics["trace.cache.access.coverage"] = _ratio(
        tracer.calls("cache.access"), level_totals["L1"][0], 1.0)
    metrics["trace.timing.branch.coverage"] = _ratio(
        tracer.calls("timing.branch"), lookups, 1.0)
    metrics["trace.core.tstore.coverage"] = _ratio(
        tracer.calls("core.tstore"),
        matched + _sum_engine(engines, "unmatched_tstores"), 1.0)
    return metrics


def _ratio(numerator, denominator, empty: float = 0.0) -> float:
    """numerator / denominator; 0/0 reads ``empty`` and n/0 reads n, so
    the payload stays valid JSON (no infinities)."""
    if not denominator:
        return float(numerator) if numerator else empty
    return numerator / denominator


def run_iteration(workload: str, seed: int, trace: bool,
                  names: Optional[List[str]] = None,
                  ref: Optional[Dict[str, Dict]] = None,
                  emit_stats: bool = False) -> Dict:
    """Run one iteration of ``workload`` in this process; the payload."""
    wseed = workload_seed(seed)
    outcome = Outcome()
    functional = FunctionalRuns().install()
    tracer = Tracer(layers=None if trace else ()).install()
    try:
        if workload == "verify":
            run_verify(wseed, outcome, functional, names)
        else:
            run_experiments(EXPERIMENTS_OF[workload], wseed, outcome, names)
    finally:
        tracer.uninstall()
        functional.uninstall()
    if ref is None:
        ref = reference.load()
    drifted = reference.drift(outcome.stats, ref)
    timed = outcome.timed_results
    payload = {
        "workload": workload,
        "input_seed": wseed,
        "build_s": tracer.self_seconds("workloads.build"),
        "instructions": (sum(r.instructions for r in timed)
                         + sum(r["instructions"]
                               for r in functional.records)),
        "runs": outcome.runs,
        "runs_failed": outcome.runs_failed,
        "outputs_checked": outcome.outputs_checked,
        "outputs_failed": outcome.outputs_failed,
        "shape_checks": outcome.shape_checks,
        "shape_failed": outcome.shape_failed,
        "model_drift": len(drifted),
        "drifted": drifted[:5],
        "errors": outcome.errors[:10],
        "model_error": outcome.model_error,
    }
    if trace:
        payload["layers"] = layer_metrics(tracer, outcome, functional)
        payload["spanned_s"] = tracer.spanned_seconds()
    if emit_stats:
        payload["stats"] = outcome.stats
    return payload


def execute(workload: str, seed: int, trace: bool = False,
            setup_only: bool = False, names: Optional[List[str]] = None,
            emit_stats: bool = False) -> Dict:
    """One iteration's payload: a full run, or only its set-up."""
    if setup_only:
        with Tracer(layers=()) as tracer:
            run_setup(workload, workload_seed(seed), names)
        payload = {"build_s": tracer.self_seconds("workloads.build")}
    else:
        payload = run_iteration(workload, seed, trace, names=names,
                                emit_stats=emit_stats)
    payload["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    return payload


def main(argv=None) -> int:
    ready = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--emit-stats", action="store_true",
                        help="include every run's statistics (reference.py)")
    args = parser.parse_args(argv)
    # one CPU for the whole process, so the host-speed sampler thread
    # measures the CPU the simulation runs on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    speed = HostSpeed().start()
    payload = execute(args.workload, args.seed, bool(args.trace),
                      args.setup_only, emit_stats=args.emit_stats)
    payload["host_speed"] = speed.stop()
    payload["ready"] = ready
    sys.stdout.flush()
    print(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
