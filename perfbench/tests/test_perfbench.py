"""The benchmark's own tests, on a reduced suite so they run in seconds.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import iteration  # noqa: E402
import run  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402

#: a reduced suite: small, and covering baseline and DTT builds
NAMES = ["gzip", "perlbmk"]

LAYERS = ("machine.step", "machine.run", "timing.run", "timing.cycle",
          "timing.branch", "cache.access", "core.tstore", "core.dispatch",
          "profiling.observer", "workloads.build")


def in_process_child(workload, seed, deadline, trace=0, setup_only=False):
    """``run.run_child`` on the reduced suite, in this process."""
    started = time.monotonic()
    speed = HostSpeed().start()
    payload = iteration.execute(workload, seed, bool(trace), setup_only,
                                names=NAMES)
    payload["host_speed"] = speed.stop()
    payload["wall_s"] = time.monotonic() - started
    payload["setup_s"] = payload["build_s"]
    return payload


@pytest.fixture
def reduced(monkeypatch):
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(run, "run_child", in_process_child)


def last_json(text):
    return json.loads(text.strip().splitlines()[-1])


def test_benchmark_json_matches_the_printed_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == run.PER_LAYER
    assert set(iteration.EXPERIMENTS_OF) == set(run.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_with_its_unit(reduced, capsys, trace):
    assert run.main(["--workload", "verify", "--seconds", "0",
                     "--trace", str(trace)]) == 0
    out = capsys.readouterr().out
    result = last_json(out)
    units = run.PER_LAYER if trace else run.END_TO_END
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["metrics"] == {
        name: {"value": result["metrics"][name]["value"], "unit": unit}
        for name, unit in units.items()}
    lines = set(out.splitlines())
    for name, unit in units.items():
        value = result["metrics"][name]["value"]
        assert isinstance(value, (int, float))
        assert f"{name} {value:.6g} {unit}" in lines
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1


@pytest.mark.parametrize("workload", ["figures", "profile", "verify"])
def test_tracing_sees_every_call_the_program_counts(workload):
    payload = iteration.execute(workload, 0, trace=True, names=NAMES)
    layers = payload["layers"]
    for name in ("machine.step", "cache.access", "timing.branch",
                 "core.tstore"):
        assert layers[f"trace.{name}.coverage"] == 1.0, name


def test_self_times_and_harness_remainder_add_up_to_the_traced_wall():
    started = time.perf_counter()
    payload = iteration.execute("figures", 0, trace=True, names=NAMES)
    wall = time.perf_counter() - started
    layers = payload["layers"]
    selfs = [layers[f"{layer}.self_s"] for layer in LAYERS]
    assert all(value >= 0 for value in selfs)
    # no time is counted twice: the self times sum to the time inside
    # spans, and that fits inside the wall the harness remainder fills
    assert sum(selfs) == pytest.approx(payload["spanned_s"], rel=1e-9)
    assert payload["spanned_s"] <= wall
    assert layers["machine.step.calls"] > 0
    assert layers["timing.cycle.calls"] > 0


def test_statistics_repeat_and_match_the_committed_reference():
    first = iteration.execute("verify", 0, names=NAMES, emit_stats=True)
    again = iteration.run_iteration("verify", 0, False, names=NAMES,
                                    ref=first["stats"])
    assert again["model_drift"] == 0
    assert first["model_drift"] == 0, first["drifted"]
    tampered = json.loads(json.dumps(first["stats"]))
    key = sorted(tampered)[0]
    tampered[key]["instructions"] += 1
    drifted = iteration.run_iteration("verify", 0, False, names=NAMES,
                                      ref=tampered)
    assert drifted["model_drift"] == 1 and drifted["drifted"] == [key]


def test_a_diverging_output_is_counted_and_does_not_crash(monkeypatch):
    gzip = type(iteration.SUITE["gzip"])
    perlbmk = iteration.SUITE["perlbmk"]
    # a DTT build of another program: its output differs from the
    # baseline's, which the runner refuses mid-experiment
    monkeypatch.setattr(
        gzip, "build_dtt",
        lambda self, inp: perlbmk.build_dtt(perlbmk.make_input()))
    payload = iteration.run_iteration("figures", 0, False, names=NAMES)
    assert payload["runs_failed"] > 0
    assert any("diverges" in error for error in payload["errors"])
    attempted, failed = run.tally([payload])
    assert 0 < failed < attempted

    monkeypatch.undo()
    monkeypatch.setattr(gzip, "reference_output", lambda self, inp: [0])
    payload = iteration.run_iteration("verify", 0, True, names=NAMES)
    assert payload["outputs_failed"] == 1
    metrics = run.per_layer(dict(payload, wall_s=1.0, host_speed=1.0),
                            dict(payload, wall_s=1.0, host_speed=1.0))
    assert metrics["failed_frac"] > 0


def test_iteration_process_prints_its_payload_last():
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH, "iteration.py"),
         "--workload", "verify", "--setup-only"],
        cwd=ROOT, env=run.child_env(), stdout=subprocess.PIPE, text=True,
        check=True, timeout=120)
    payload = last_json(done.stdout)
    assert payload["build_s"] > 0 and payload["ready"] > 0


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    env = {key: value for key, value in os.environ.items()
           if key != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, stdout=subprocess.PIPE, text=True,
        timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
