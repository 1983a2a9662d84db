"""Experiment functions: structure and shape checks.

The full experiments are the repository's acceptance tests: each one's
shape checks must pass.  A single module-scoped runner shares the timed
runs, so this module costs roughly one full harness run.
"""

import pytest

from repro.errors import UnknownExperimentError
from repro.harness.experiments import (
    EXPERIMENTS,
    geometric_mean,
    run_experiment,
)
from repro.harness.runner import SuiteRunner
from repro.workloads.suite import SUITE


@pytest.fixture(scope="module")
def runner():
    return SuiteRunner()


def test_geometric_mean():
    assert geometric_mean([2.0, 8.0]) == pytest.approx(4.0)
    assert geometric_mean([3.0]) == pytest.approx(3.0)
    assert geometric_mean([]) == 0.0


def test_registry_lists_all_nine():
    assert sorted(EXPERIMENTS) == [f"E{i}" for i in range(1, 10)]


def test_unknown_experiment_rejected():
    with pytest.raises(UnknownExperimentError):
        run_experiment("E99")


def test_run_experiment_is_case_insensitive(runner):
    result = run_experiment("e6", runner)
    assert result.experiment_id == "E6"


@pytest.mark.parametrize("experiment_id", sorted(EXPERIMENTS))
def test_experiment_passes_its_shape_checks(experiment_id, runner):
    result = run_experiment(experiment_id, runner)
    failing = [c for c in result.checks if not c.passed]
    assert not failing, f"{experiment_id} failing checks: {failing}"
    assert result.rows
    assert result.checks


def test_e1_has_a_row_per_benchmark_plus_average(runner):
    result = run_experiment("E1", runner)
    assert len(result.rows) == len(SUITE) + 1
    assert result.rows[-1][0] == "average"


def test_e3_reports_both_means(runner):
    result = run_experiment("E3", runner)
    labels = [row[0] for row in result.rows]
    assert "geo-mean" in labels
    assert "arith-mean" in labels


def test_e6_one_row_per_benchmark(runner):
    result = run_experiment("E6", runner)
    assert [row[0] for row in result.rows] == list(SUITE)


def test_e7_includes_config_rows(runner):
    result = run_experiment("E7", runner)
    config_rows = [row for row in result.rows if str(row[0]).startswith("[config]")]
    assert len(config_rows) >= 10


def test_headline_results_match_goldens(runner):
    """E1/E3 reproduce the committed golden rows exactly (determinism +
    calibration lock at full fidelity; see results/README.md)."""
    import json
    import pathlib

    results_dir = pathlib.Path(__file__).resolve().parents[2] / "results"
    for experiment_id, golden_name in (("E1", "golden_e1"),
                                       ("E3", "golden_e3")):
        fresh = run_experiment(experiment_id, runner).as_dict()
        golden = json.loads((results_dir / f"{golden_name}.json").read_text())
        assert fresh["rows"] == golden["rows"], experiment_id
        assert fresh["headers"] == golden["headers"], experiment_id


def test_run_plan_lists_exactly_the_runs_the_experiments_make(runner):
    """``build_plan`` repeats each experiment's runner calls by hand; a run
    it plans that no experiment makes, or one it misses, shows here.
    After the tests above every run is a memo hit."""
    from repro.exec.plan import build_plan

    for experiment_id in sorted(EXPERIMENTS):
        run_experiment(experiment_id, runner)
    made = set(runner.cache_stats()["keys"])
    assert made == set(build_plan(["all"]).canonical_names())
