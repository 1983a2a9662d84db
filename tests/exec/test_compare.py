"""Regression compare: loaders, direction rules, and gating."""

import json

import pytest

from repro.errors import CompareError
from repro.exec.compare import (CompareReport, ResultSet, compare_paths,
                                compare_sets, load_result_set,
                                metric_direction)
from repro.exec.plan import RunSpec
from repro.exec.store import ResultStore, encode_timed
from repro.harness.runner import SuiteRunner
from repro.workloads.suite import SUITE


def test_metric_directions():
    assert metric_direction("speedup") == "down_bad"
    assert metric_direction("checks_passed") == "down_bad"
    assert metric_direction("cycles") == "up_bad"
    assert metric_direction("energy") == "up_bad"
    assert metric_direction("total_seconds") == "info"
    assert metric_direction("phase:mcf:dtt:smt2") == "info"
    assert metric_direction("cache_hits") == "info"
    assert metric_direction("redundant_load_fraction") == "drift"


def _rows(**rows):
    return ResultSet("x", "store", rows)


def test_within_tolerance_is_quiet():
    old = _rows(mcf={"cycles": 100.0, "speedup": 1.5})
    new = _rows(mcf={"cycles": 103.0, "speedup": 1.47})
    report = compare_sets(old, new, tolerance=0.05)
    assert report.deltas == []
    assert not report.has_regressions


def test_direction_awareness():
    old = _rows(mcf={"cycles": 100.0, "speedup": 1.5,
                     "total_seconds": 10.0})
    new = _rows(mcf={"cycles": 90.0, "speedup": 1.9,
                     "total_seconds": 30.0})
    report = compare_sets(old, new, tolerance=0.05)
    # cycles fell and speedup rose: improvements, not regressions.
    # wall clock tripled: informational change only.
    assert not report.has_regressions
    assert {d.metric for d in report.deltas} \
        == {"cycles", "speedup", "total_seconds"}

    worse = compare_sets(new, old, tolerance=0.05)
    assert {d.metric for d in worse.regressions} == {"cycles", "speedup"}


def test_drift_regresses_both_ways():
    old = _rows(mcf={"redundant_load_fraction": 0.5})
    for value in (0.3, 0.7):
        new = _rows(mcf={"redundant_load_fraction": value})
        assert compare_sets(old, new).has_regressions


def test_check_flip_always_gates():
    old = ResultSet("a", "results", {"E3": {"checks_passed": 2.0}},
                    {"E3 :: holds": True, "E3 :: other": False})
    new = ResultSet("b", "results", {"E3": {"checks_passed": 2.0}},
                    {"E3 :: holds": False, "E3 :: other": True})
    report = compare_sets(old, new, tolerance=0.5)
    (flip,) = report.regressions
    assert flip.metric == "holds"
    assert flip.note == "check flipped"
    # the pass->fail and fail->pass both surface; only the former gates
    assert len(report.deltas) == 2


def test_missing_row_gates():
    report = compare_sets(_rows(mcf={"cycles": 1.0}, art={"cycles": 1.0}),
                          _rows(mcf={"cycles": 1.0}))
    assert report.missing == ["art"]
    assert report.has_regressions
    assert "MISSING art" in report.render()


def test_mixed_kinds_rejected():
    with pytest.raises(CompareError):
        compare_sets(ResultSet("a", "store", {"r": {}}),
                     ResultSet("b", "results", {"r": {}}))
    with pytest.raises(CompareError):
        compare_sets(_rows(r={}), _rows(r={}), tolerance=-1.0)


def test_load_results_file(tmp_path):
    path = tmp_path / "results.json"
    path.write_text(json.dumps([{
        "experiment": "E3",
        "checks": [{"name": "a", "passed": True},
                   {"name": "b", "passed": False}],
        "manifest": {"total_seconds": 1.25},
    }]))
    loaded = load_result_set(str(path))
    assert loaded.kind == "results"
    assert loaded.cells["E3"] == {"checks_passed": 1, "checks_total": 2,
                                  "total_seconds": 1.25}
    assert loaded.checks == {"E3 :: a": True, "E3 :: b": False}


def test_load_manifest_file(tmp_path):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({
        "experiment": "E3", "total_seconds": 2.5, "cache_hits": 4,
        "phase_seconds": {"mcf:dtt:smt2": 1.5},
    }))
    loaded = load_result_set(str(path))
    assert loaded.kind == "manifest"
    assert loaded.cells["E3"]["phase:mcf:dtt:smt2"] == 1.5


def test_manifest_analysis_rows_gate(tmp_path):
    # schema v4: per-build analysis summaries become their own rows;
    # a new analyzer error regresses, and warning drift flags both ways
    def write(name, errors, warnings):
        path = tmp_path / name
        path.write_text(json.dumps({
            "experiment": "E3", "total_seconds": 1.0,
            "phase_seconds": {},
            "analysis": [{"workload": "mcf", "kind": "dtt",
                          "errors": errors, "warnings": warnings,
                          "codes": {}}],
        }))
        return str(path)

    clean = write("clean.json", 0, 0)
    loaded = load_result_set(clean)
    assert loaded.cells["analysis:mcf:dtt"] == {"analysis_errors": 0,
                                                "analysis_warnings": 0}
    assert metric_direction("analysis_errors") == "up_bad"
    report = compare_paths(clean, write("racy.json", 1, 2))
    flagged = {d.metric for d in report.regressions
               if d.row == "analysis:mcf:dtt"}
    assert flagged == {"analysis_errors", "analysis_warnings"}
    # errors falling is an improvement, never a regression
    report = compare_paths(write("was_racy.json", 1, 0), clean)
    assert not [d for d in report.regressions
                if d.metric == "analysis_errors"]


def test_load_rejects_junk(tmp_path):
    bad = tmp_path / "junk.json"
    bad.write_text("{\"neither\": true}")
    with pytest.raises(CompareError):
        load_result_set(str(bad))
    with pytest.raises(CompareError):
        load_result_set(str(tmp_path / "missing.json"))
    with pytest.raises(CompareError):
        load_result_set(str(tmp_path))  # a dir, but not a store


def test_store_compare_round_trip_and_derived_speedup(tmp_path):
    runner = SuiteRunner()
    runner.timed(SUITE["perlbmk"], "dtt")
    dtt_spec = RunSpec.for_timed("perlbmk", "dtt")
    base_spec = dtt_spec.baseline_spec()

    old_store = ResultStore(str(tmp_path / "old"))
    new_store = ResultStore(str(tmp_path / "new"))
    for store in (old_store, new_store):
        for spec in (dtt_spec, base_spec):
            result = runner.result_for(spec)
            engine = runner.engine_for(SUITE["perlbmk"], spec.build) \
                if spec.build == "dtt" else None
            store.put(spec, encode_timed(result, engine), elapsed=0.1)

    loaded = load_result_set(str(tmp_path / "old"))
    assert loaded.kind == "store"
    assert "speedup" in loaded.cells[dtt_spec.canonical()]

    report = compare_paths(str(tmp_path / "old"), str(tmp_path / "new"))
    assert isinstance(report, CompareReport)
    assert report.deltas == []          # identical stores: no changes
    assert not report.has_regressions
    assert json.loads(json.dumps(report.as_dict()))["regressions"] == 0


# -- schema v6 / bench_autoconvert: conversion-gate rows -----------------------


def test_autoconvert_metric_directions():
    assert metric_direction("accepted") == "down_bad"
    assert metric_direction("elimination") == "down_bad"
    assert metric_direction("hand_elimination") == "down_bad"
    assert metric_direction("rejected") == "up_bad"


def test_load_bench_autoconvert_file(tmp_path):
    path = tmp_path / "bench.json"
    path.write_text(json.dumps({
        "kind": "bench_autoconvert", "config": "smt2",
        "rows": {"mcf": {"considered": 1, "accepted": 1,
                         "baseline_cycles": 455998, "cycles": 76295,
                         "speedup": 5.976774, "elimination": 0.918016,
                         "analysis_errors": 0,
                         "hand_elimination": 0.918016}},
    }))
    loaded = load_result_set(str(path))
    assert loaded.kind == "bench"
    assert loaded.cells["mcf"]["speedup"] == 5.976774
    assert loaded.cells["mcf"]["accepted"] == 1


def test_manifest_autoconvert_rows_gate(tmp_path):
    def write(name, accepted, rejected, speedup, elimination):
        path = tmp_path / name
        path.write_text(json.dumps({
            "experiment": "convert", "total_seconds": 1.0,
            "phase_seconds": {},
            "autoconvert": [{
                "workload": "mcf", "considered": 2,
                "accepted": [{"region_start": 10}] * accepted,
                "rejected": rejected,
                "baseline_cycles": 455998, "cycles": 76295,
                "speedup": speedup, "elimination": elimination,
                "conversions": [],  # ignored: not numeric
            }],
        }))
        return str(path)

    good = write("good.json", 1, {}, 5.98, 0.918)
    loaded = load_result_set(good)
    row = loaded.cells["autoconvert:mcf"]
    assert row["accepted"] == 1 and row["rejected"] == 0
    worse = write("worse.json", 0, {"no-cycle-win": 1, "analysis-errors": 1},
                  1.0, 0.0)
    report = compare_paths(good, worse)
    flagged = {d.metric for d in report.regressions
               if d.row == "autoconvert:mcf"}
    assert {"accepted", "rejected", "speedup", "elimination"} <= flagged


def test_future_manifest_with_unknown_autoconvert_fields_loads(tmp_path):
    # forward compatibility: a v7 manifest whose audit rows carry fields
    # this version has never heard of must load, not crash
    path = tmp_path / "future.json"
    path.write_text(json.dumps({
        "experiment": "convert", "schema_version": 7,
        "total_seconds": 1.0, "phase_seconds": {},
        "autoconvert": [
            {"workload": "mcf", "speedup": 2.0,
             "novel_field": {"nested": [1, 2]}, "accepted": "not-a-list",
             "rejected": {"weird": "non-numeric"}},
            "not-even-a-dict",
        ],
    }))
    loaded = load_result_set(str(path))
    assert loaded.cells["autoconvert:mcf"] == {"speedup": 2.0, "rejected": 0}


def test_partial_autoconvert_disappearance_still_gates(tmp_path):
    """One workload's autoconvert rows vanishing is a conversion
    regression and gates as a missing row."""
    def write(name, workloads):
        path = tmp_path / name
        path.write_text(json.dumps({
            "experiment": "convert", "total_seconds": 1.0,
            "phase_seconds": {"p": 1.0},
            "autoconvert": [
                {"workload": w, "considered": 1, "accepted": [{}],
                 "rejected": {}, "speedup": 2.0, "elimination": 0.5}
                for w in workloads],
        }))
        return str(path)

    both = write("both.json", ["mcf", "equake"])
    one = write("one.json", ["mcf"])
    report = compare_paths(both, one)
    assert "autoconvert:equake" in report.missing
    assert report.has_regressions
