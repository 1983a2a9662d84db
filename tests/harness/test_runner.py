"""SuiteRunner memoization and correctness cross-checks."""

import pytest

from repro.core.config import DttConfig
from repro.harness.runner import SuiteRunner
from repro.workloads.suite import SUITE


@pytest.fixture(scope="module")
def runner():
    return SuiteRunner()


def test_timed_results_are_memoized(runner):
    workload = SUITE["perlbmk"]
    first = runner.timed(workload, "baseline")
    second = runner.timed(workload, "baseline")
    assert first is second


def test_distinct_kinds_not_aliased(runner):
    workload = SUITE["perlbmk"]
    baseline = runner.timed(workload, "baseline")
    dtt = runner.timed(workload, "dtt")
    assert baseline is not dtt
    assert dtt.engine_summary is not None
    assert baseline.engine_summary is None


def test_dtt_config_fingerprint_distinguishes(runner):
    workload = SUITE["perlbmk"]
    default = runner.timed(workload, "dtt")
    unfiltered = runner.timed(workload, "dtt",
                              dtt_config=DttConfig(same_value_filter=False))
    assert default is not unfiltered
    assert (unfiltered.engine_summary["triggers_fired"]
            > default.engine_summary["triggers_fired"])


def test_dtt_output_checked_against_baseline(runner):
    workload = SUITE["perlbmk"]
    baseline = runner.timed(workload, "baseline")
    dtt = runner.timed(workload, "dtt")
    assert dtt.output == baseline.output


def test_speedup_and_engine_access(runner):
    workload = SUITE["perlbmk"]
    speedup = runner.speedup(workload)
    assert speedup > 0.9
    engine = runner.engine_for(workload, "dtt")
    assert engine.summary()["consumes"] > 0


def test_profile_memoized(runner):
    workload = SUITE["perlbmk"]
    assert runner.profile(workload) is runner.profile(workload)


def test_suite_iterates_canonical_order(runner):
    assert [w.name for w in runner.suite()] == list(SUITE)


def test_different_seed_runner_is_distinct():
    a = SuiteRunner(seed=1)
    b = SuiteRunner(seed=2)
    workload = SUITE["perlbmk"]
    ra = a.timed(workload, "baseline")
    rb = b.timed(workload, "baseline")
    assert ra.output != rb.output


def test_cache_stats_counts_hits_and_misses():
    runner = SuiteRunner()
    workload = SUITE["perlbmk"]
    runner.timed(workload, "baseline")            # miss
    runner.timed(workload, "baseline")            # hit
    runner.profile(workload)                      # miss
    runner.profile(workload)                      # hit
    stats = runner.cache_stats()
    assert stats["misses"] == 2
    assert stats["hits"] == 2
    assert stats["timed_entries"] == 1
    assert stats["profile_entries"] == 1
    # keys are the documented canonical strings, serialization-safe
    assert sorted(stats["keys"]) == [
        "perlbmk:baseline:smt2:seed=default:scale=default",
        "perlbmk:profile:-:seed=default:scale=default",
    ]


def test_clear_drops_memoized_runs():
    runner = SuiteRunner()
    workload = SUITE["perlbmk"]
    first = runner.timed(workload, "baseline")
    runner.clear()
    stats = runner.cache_stats()
    assert stats == {"hits": 0, "misses": 0, "store_hits": 0,
                     "store_misses": 0, "timed_entries": 0,
                     "profile_entries": 0, "inputs": 0, "builds": 0,
                     "analysis_rows": 0, "keys": []}
    assert runner.phase_seconds() == {}
    second = runner.timed(workload, "baseline")
    assert second is not first  # genuinely re-run
    assert second.output == first.output


def test_runner_records_phase_seconds_and_peak_depth():
    runner = SuiteRunner()
    workload = SUITE["perlbmk"]
    runner.timed(workload, "dtt")
    phases = runner.phase_seconds()
    assert "perlbmk:dtt:smt2" in phases
    assert "perlbmk:baseline:smt2" in phases  # run by the correctness check
    assert all(seconds > 0 for seconds in phases.values())
    assert runner.peak_queue_depth() >= 0


def test_runner_metrics_and_traces_opt_in():
    from repro.obs.metrics import MetricsRegistry

    registry = MetricsRegistry()
    runner = SuiteRunner(metrics=registry, trace=True)
    workload = SUITE["perlbmk"]
    runner.timed(workload, "dtt")
    runner.timed(workload, "dtt")
    assert registry.counter("runner.cache_hits").value >= 1
    assert registry.counter("runner.cache_misses").value == 2
    assert registry.counter("engine.triggering_stores").value > 0
    assert registry.gauge("timing.cycles").value > 0
    (label, trace), = runner.traces()
    assert label == "perlbmk:dtt:smt2"
    assert len(trace) > 0


# -- one input, build and analysis row per key ---------------------------------

SHARED = ("perlbmk", "mcf", "gzip")


class _ReducedRunner(SuiteRunner):
    def suite(self):
        return [SUITE[name] for name in SHARED]


def _count_calls(monkeypatch, workload, method, counts):
    original = getattr(workload, method)

    def counted(*args, **kwargs):
        counts[(workload.name, method)] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(workload, method, counted)


def test_runner_makes_each_input_build_and_row_once(monkeypatch):
    from collections import Counter

    from repro.analysis.checks import summarize_workload
    from repro.harness.experiments import run_experiment

    counts = Counter()
    for name in SHARED:
        for method in ("make_input", "build_baseline", "build_dtt",
                       "build_dtt_watch"):
            _count_calls(monkeypatch, SUITE[name], method, counts)
    runner = _ReducedRunner()
    experiments = ("E3", "E4", "E6", "E7")
    results = [run_experiment(eid, runner) for eid in experiments]
    assert counts == Counter({(name, method): 1 for name in SHARED
                              for method in ("make_input", "build_baseline",
                                             "build_dtt")})
    stats = runner.cache_stats()
    assert (stats["inputs"], stats["builds"], stats["analysis_rows"]) == \
        (len(SHARED), 2 * len(SHARED), len(SHARED))
    monkeypatch.undo()

    fresh = [summarize_workload(name, "dtt") for name in sorted(SHARED)]
    for result in results:
        assert result.manifest.analysis == fresh
    # rows are handed out as copies: editing one leaves the next intact
    runner.analysis_summaries()[0]["codes"]["edited"] = 1
    assert runner.analysis_summaries() == fresh

    runner.clear()
    again = [run_experiment(eid, runner) for eid in experiments]
    assert runner.cache_stats()["builds"] == 2 * len(SHARED)
    for first, second in zip(results, again):
        assert second.rows == first.rows
        assert second.manifest.analysis == fresh
