"""Pool scheduler: dedup, ordering, fallback ladders, determinism."""

from collections import Counter

import pytest

from repro.errors import CorrectnessError, ExecError
from repro.exec import pool as pool_module
from repro.exec.plan import RunPlan, RunSpec, build_plan
from repro.exec.pool import (_ordered_longest_first, _worker, execute_plan)
from repro.exec.store import ResultStore
from repro.harness.runner import SuiteRunner


def test_execute_plan_serial_populates_runner():
    runner = SuiteRunner()
    plan = build_plan(["E9"])
    stats = execute_plan(plan, runner, jobs=1)
    assert stats["mode"] == "serial"
    assert stats["serial_executed"] == len(plan)
    for spec in plan:
        assert runner.is_cached(spec)
    # re-executing is all memo hits
    again = execute_plan(plan, runner, jobs=1)
    assert again["memo_hits"] == len(plan)
    assert again["serial_executed"] == 0


def test_execute_plan_rejects_bad_jobs():
    with pytest.raises(ExecError):
        execute_plan(build_plan(["E9"]), SuiteRunner(), jobs=0)


def test_worker_executes_one_spec():
    spec = RunSpec.for_timed("perlbmk", "dtt")
    outcome = _worker(spec.as_dict(), None, None)
    assert outcome["spec"] == spec.as_dict()
    assert outcome["elapsed"] > 0
    assert "engine_status" in outcome["payload"]
    assert outcome["metrics"]["runner.cache_misses"]["value"] == 1
    assert list(outcome["phases"]) == [spec.phase_name()]


def test_longest_job_first_ordering(tmp_path):
    store = ResultStore(str(tmp_path / "store"))
    fast = RunSpec.for_timed("art")
    slow = RunSpec.for_timed("mcf")
    unknown = RunSpec.for_timed("twolf")
    store.record_timing(fast.phase_name(), 0.1)
    store.record_timing(slow.phase_name(), 9.0)
    ordered = _ordered_longest_first([fast, slow, unknown], store)
    # unknown runs first (it might be the long pole), then longest known
    assert ordered == [unknown, slow, fast]
    # without a store, plan order is preserved
    assert _ordered_longest_first([fast, slow], None) == [fast, slow]


def test_parallel_matches_serial_and_second_pass_is_stored(tmp_path):
    plan = build_plan(["E9"])
    serial = SuiteRunner()
    execute_plan(plan, serial, jobs=1)

    store_dir = str(tmp_path / "store")
    parallel = SuiteRunner(store=store_dir)
    stats = execute_plan(plan, parallel, jobs=2)
    assert stats["mode"] == "parallel"
    assert stats["parallel_executed"] == len(plan)
    for spec in plan:
        assert parallel.result_for(spec).output \
            == serial.result_for(spec).output
        assert parallel.result_for(spec).cycles \
            == serial.result_for(spec).cycles

    warm = SuiteRunner(store=store_dir)
    warm_stats = execute_plan(plan, warm, jobs=2)
    assert warm_stats["store_hits"] == len(plan)
    assert warm_stats["parallel_executed"] == 0
    assert warm_stats["serial_executed"] == 0


@pytest.mark.parametrize("jobs", [1, 2])
def test_each_planned_run_reads_the_store_once(tmp_path, monkeypatch, jobs):
    """A cold pass, then a warm one: one ``ResultStore.get`` per planned
    run per pass, and each run counted once as a store hit or miss."""
    reads = Counter()
    real_get = ResultStore.get

    def counted_get(self, spec):
        reads[spec] += 1
        return real_get(self, spec)

    monkeypatch.setattr(ResultStore, "get", counted_get)
    plan = RunPlan(["E3"])
    for name in ("perlbmk", "gzip"):
        plan.add(RunSpec.for_timed(name, "dtt"), "E3")
    expected = {
        # serially a DTT run executes its baseline for the output check,
        # so the baseline's own planned turn is a memo hit
        "cold": {"store_hits": 0, "store_misses": 4,
                 "hits": 2 if jobs == 1 else 0, "misses": 4},
        "warm": {"store_hits": 4, "store_misses": 0, "hits": 0, "misses": 0},
    }
    store_dir = str(tmp_path / "store")
    for name, counts in expected.items():
        reads.clear()
        runner = SuiteRunner(store=store_dir)
        execute_plan(plan, runner, jobs=jobs)
        assert reads == Counter(plan), name
        stats = runner.cache_stats()
        assert {key: stats[key] for key in counts} == counts, name


def test_sampling_runner_stores_no_adopted_profile(tmp_path):
    """A sampling runner keeps profiles memo-only on every path: a
    profile adopted from a worker is not written to its store."""
    spec = RunSpec.for_profile("perlbmk")
    exact = SuiteRunner()
    exact.execute_spec(spec)
    runner = SuiteRunner(store=str(tmp_path / "store"), sample_rate=64)
    runner.install_payload(spec, exact.payload_for(spec), 0.0)
    assert runner.is_cached(spec)
    assert len(runner.store) == 0


def test_task_timeout_raises(monkeypatch):
    plan = build_plan(["E9"])
    runner = SuiteRunner()
    with pytest.raises(ExecError, match="timeout"):
        execute_plan(plan, runner, jobs=2, task_timeout=1e-9)


def test_worker_crash_retries_then_falls_back(monkeypatch):
    """First batch 'crashes' every spec; the retry crashes again; the
    scheduler then finishes the whole plan serially."""
    calls = []

    def crashing_batch(specs, jobs, seed, scale, timeout):
        calls.append(list(specs))
        return [], list(specs)  # no results, everything crashed

    monkeypatch.setattr(pool_module, "_run_batch", crashing_batch)
    plan = build_plan(["E9"])
    runner = SuiteRunner()
    stats = execute_plan(plan, runner, jobs=2)
    assert len(calls) == 2                       # one retry, not more
    assert stats["worker_retries"] == 2 * len(plan)
    assert stats["serial_executed"] == len(plan)  # serial fallback ran
    for spec in plan:
        assert runner.is_cached(spec)


def test_pool_unavailable_falls_back_to_serial(monkeypatch):
    def no_pool(*args, **kwargs):
        raise OSError("no semaphores in this sandbox")

    monkeypatch.setattr(pool_module, "_run_batch", no_pool)
    plan = build_plan(["E9"])
    runner = SuiteRunner()
    stats = execute_plan(plan, runner, jobs=2)
    assert stats["serial_executed"] == len(plan)


def test_tracing_forces_serial():
    plan = build_plan(["E9"])
    runner = SuiteRunner(trace=True)
    stats = execute_plan(plan, runner, jobs=4)
    assert stats["mode"] == "serial"
    assert stats["serial_executed"] == len(plan)
    assert len(runner.traces()) > 0


def test_parent_side_output_verification(monkeypatch):
    """A diverging worker payload must fail the correctness gate."""
    plan = build_plan(["E9"])
    runner = SuiteRunner()

    real_install = SuiteRunner.install_payload

    def corrupting_install(self, spec, payload, elapsed):
        if spec.build != "baseline":
            payload = dict(payload)
            payload["output"] = list(payload["output"]) + [999]
        real_install(self, spec, payload, elapsed)

    monkeypatch.setattr(SuiteRunner, "install_payload", corrupting_install)
    with pytest.raises(CorrectnessError):
        execute_plan(plan, runner, jobs=2)
