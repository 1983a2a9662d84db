"""The process-pool scheduler: execute a :class:`~repro.exec.plan.RunPlan`
across N worker processes.

The parent process first serves every planned run it can from the
runner's in-memory memo and the persistent result store; only the
remainder is simulated.  With ``jobs > 1`` that remainder is sharded
across a :class:`~concurrent.futures.ProcessPoolExecutor` in
longest-job-first order (fed by the store's per-phase EWMA timings, so a
long pole starts first and the tail stays short), with a per-task
timeout, one pool rebuild + retry when a worker process dies, and a
serial fallback if the rebuilt pool dies too.  With ``jobs = 1`` (or
when engine tracing is on, which needs live engines in the parent) the
plan executes serially through the ordinary runner path.

Workers are deliberately dumb: each builds a private ``SuiteRunner`` and
``MetricsRegistry``, executes exactly one :class:`RunSpec`, and returns
the encoded payload plus its metrics and phase timings.  The parent
installs payloads into its own runner (which also persists them to the
store), merges worker metrics into the shared registry, and re-checks
every DTT output against its baseline — so parallel runs go through the
same correctness gate as serial ones and the final runner state is
byte-identical to a serial execution.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import CorrectnessError, ExecError
from repro.exec.plan import RunPlan, RunSpec

#: default per-task wall-clock budget, seconds
DEFAULT_TASK_TIMEOUT = 600.0


def _worker(spec_dict: Dict, seed: Optional[int],
            scale: Optional[int]) -> Dict:
    """Execute one run in a worker process; module-level for pickling.

    Baseline checking is disabled here — the baseline is its own planned
    run, and the parent re-verifies every DTT output after installation —
    so no simulation is ever duplicated across workers.
    """
    from repro.harness.runner import SuiteRunner
    from repro.obs.metrics import MetricsRegistry

    spec = RunSpec.from_dict(spec_dict)
    registry = MetricsRegistry()
    runner = SuiteRunner(seed=seed, scale=scale, metrics=registry)
    started = time.perf_counter()
    runner.execute_spec(spec, check_against_baseline=False)
    return {
        "spec": spec_dict,
        "payload": runner.payload_for(spec),
        "elapsed": time.perf_counter() - started,
        "metrics": registry.as_dict(),
        "phases": runner.phase_seconds(),
    }


def _ordered_longest_first(specs: Sequence[RunSpec],
                           store) -> List[RunSpec]:
    """Specs sorted longest-job-first by stored phase timings.

    Runs with no recorded timing sort first (they might be the long
    pole); ties keep plan order so scheduling stays deterministic.
    """
    if store is None:
        return list(specs)

    def sort_key(pair: Tuple[int, RunSpec]):
        index, spec = pair
        hint = store.timing_hint(spec.phase_name())
        return (-(float("inf") if hint is None else hint), index)

    return [spec for _, spec in sorted(enumerate(specs), key=sort_key)]


def _run_batch(specs: Sequence[RunSpec], jobs: int, seed: Optional[int],
               scale: Optional[int],
               timeout: float) -> Tuple[List[Dict], List[RunSpec]]:
    """Run ``specs`` through one pool; returns (results, crashed_specs).

    A worker *crash* (BrokenProcessPool) marks the affected specs for
    retry; a deterministic workload exception propagates unchanged, and
    a task exceeding ``timeout`` raises :class:`ExecError` — retrying
    either would just fail again.
    """
    results: List[Dict] = []
    crashed: List[RunSpec] = []
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        futures = [(pool.submit(_worker, spec.as_dict(), seed, scale), spec)
                   for spec in specs]
        for future, spec in futures:
            try:
                results.append(future.result(timeout=timeout))
            except BrokenProcessPool:
                crashed.append(spec)
            except FutureTimeoutError:
                for other, _spec in futures:
                    other.cancel()
                raise ExecError(
                    f"run {spec.canonical()} exceeded the per-task "
                    f"timeout of {timeout:g}s"
                ) from None
    return results, crashed


def execute_plan(plan: RunPlan, runner, jobs: int = 1,
                 task_timeout: float = DEFAULT_TASK_TIMEOUT) -> Dict:
    """Execute every run in ``plan`` into ``runner``; returns stats.

    After this returns, every planned run is memoized in the runner, so
    the experiments that stated the plan re-simulate nothing.  The
    returned dict reports where each run came from::

        {"jobs", "mode", "planned", "memo_hits", "store_hits",
         "parallel_executed", "serial_executed", "worker_retries"}
    """
    if jobs < 1:
        raise ExecError(f"jobs must be >= 1, got {jobs}")
    stats = {
        "jobs": jobs,
        "mode": "serial",
        "planned": len(plan),
        "memo_hits": 0,
        "store_hits": 0,
        "parallel_executed": 0,
        "serial_executed": 0,
        "worker_retries": 0,
    }

    # live telemetry: declare the plan size up front so the heartbeat's
    # ETA has a denominator; serial-path runs tick themselves inside
    # the runner's one execution path, the parallel path ticks on install
    status = runner.status
    if status is not None:
        status.set_total(len(plan))
        status.begin_phase("plan")

    # 1. serve what we can without simulating: memo first, then store
    # (the one store read of each run: a spec that misses here is never
    # read again, whichever path executes it)
    pending: List[RunSpec] = []
    for spec in plan:
        if runner.is_cached(spec):
            stats["memo_hits"] += 1
        elif runner.load_from_store(spec):
            stats["store_hits"] += 1
        else:
            pending.append(spec)
    if status is not None:
        cached = stats["memo_hits"] + stats["store_hits"]
        if cached:
            status.note_cached(cached)
    if not pending:
        return stats

    # 2. tracing needs live engines in the parent process
    parallel_ok = jobs > 1 and not runner.trace_enabled

    executed_parallel: List[RunSpec] = []
    if parallel_ok:
        stats["mode"] = "parallel"
        ordered = _ordered_longest_first(pending, runner.store)
        remaining = ordered
        for attempt in (1, 2):  # one pool rebuild after a worker crash
            try:
                results, crashed = _run_batch(remaining, jobs, runner.seed,
                                              runner.scale, task_timeout)
            except OSError:
                # the pool could not even start (sandboxed host, missing
                # semaphores); fall back to serial for everything left
                break
            for outcome in results:
                spec = RunSpec.from_dict(outcome["spec"])
                runner.install_payload(spec, outcome["payload"],
                                       outcome["elapsed"])
                runner.merge_worker_run(outcome["metrics"],
                                        outcome["phases"])
                executed_parallel.append(spec)
                if status is not None:
                    status.complete_run(spec.phase_name(),
                                        outcome["elapsed"])
            remaining = crashed
            if not crashed:
                break
            stats["worker_retries"] += len(crashed)
        pending = remaining  # anything still here falls back to serial

    # 3. serial path: the runner's one execution path (with its built-in
    # baseline checking), used for jobs=1, tracing, and crash fallback
    for spec in pending:
        runner.execute_spec(spec)
        stats["serial_executed"] += 1
    stats["parallel_executed"] = len(executed_parallel)

    # 4. pool-executed DTT runs skipped in-worker baseline checking;
    # apply the same correctness gate here
    _verify_outputs(runner, executed_parallel)

    if runner.metrics is not None:
        runner.metrics.counter(
            "pool.tasks_executed",
            "plan runs executed by the pool scheduler").inc(
                stats["parallel_executed"] + stats["serial_executed"])
        if stats["worker_retries"]:
            runner.metrics.counter(
                "pool.worker_retries",
                "runs resubmitted after a worker crash").inc(
                    stats["worker_retries"])
    return stats


def _verify_outputs(runner, specs: Sequence[RunSpec]) -> None:
    """Check every executed DTT run's output against its baseline."""
    for spec in specs:
        baseline_spec = spec.baseline_spec()
        if baseline_spec is None:
            continue
        result = runner.result_for(spec)
        baseline = runner.result_for(baseline_spec)
        if result.output != baseline.output:
            raise CorrectnessError(
                f"{spec.workload}: {spec.build} output diverges from "
                f"baseline under {spec.config_name}"
            )
