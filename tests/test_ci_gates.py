"""The CI result gates in ``tools/ci_gates.py`` pass good files and fail bad ones."""

import importlib.util
import json
import pathlib

import pytest

GATES_PATH = (pathlib.Path(__file__).resolve().parents[1]
              / "tools" / "ci_gates.py")
_spec = importlib.util.spec_from_file_location("ci_gates", GATES_PATH)
ci_gates = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ci_gates)


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def interpreter_bench(tmp_path, speedup, observed_speedup=1.5):
    return write_json(tmp_path, "bench.json", {
        "kind": "bench_interpreter", "schema": 2,
        "rows": {"mcf:superblock": {"speedup": speedup,
                                    "observed_speedup": observed_speedup,
                                    "build_seconds": 0.01}},
    })


def test_strict_parser_accepts_balanced_html():
    ci_gates.check_balanced_html(
        "<html><head><meta charset='utf-8'></head>"
        "<body><p>a<br>b</p></body></html>")


@pytest.mark.parametrize("text", [
    "<html><body><p>never closed</body></html>",
    "<div><span></div></span>",
    "<div>",
    "</p>",
])
def test_strict_parser_rejects_unbalanced_html(text):
    with pytest.raises(ci_gates.GateFailure):
        ci_gates.check_balanced_html(text)


def test_interpreter_gate_passes_at_the_floor(tmp_path):
    assert ci_gates.main(
        ["interpreter", interpreter_bench(tmp_path, 4.0)]) == 0


def test_interpreter_gate_fails_on_a_3x_row(tmp_path, capsys):
    assert ci_gates.main(
        ["interpreter", interpreter_bench(tmp_path, 3.0)]) == 1
    assert "gate interpreter failed" in capsys.readouterr().err


def test_interpreter_gate_fails_on_a_slow_observed_run(tmp_path, capsys):
    assert ci_gates.main(
        ["interpreter", interpreter_bench(tmp_path, 4.0, 1.4)]) == 1
    assert "observed Machine.run only 1.40x" in capsys.readouterr().err


def test_interpreter_gate_needs_the_observed_column(tmp_path):
    path = write_json(tmp_path, "bench.json", {
        "kind": "bench_interpreter", "schema": 2,
        "rows": {"mcf:superblock": {"speedup": 4.0,
                                    "build_seconds": 0.01}},
    })
    assert ci_gates.main(["interpreter", path]) == 1


def test_dashboard_gate_rejects_scripts(tmp_path):
    html = tmp_path / "trends.html"
    html.write_text("<html><body><h2>Verdict catalog</h2>"
                    "<script>x()</script></body></html>")
    assert ci_gates.main(["dashboard", str(html)]) == 1
    html.write_text("<html><body><h2>Verdict catalog</h2></body></html>")
    assert ci_gates.main(["dashboard", str(html)]) == 0


def test_heartbeat_gate_needs_every_run_completed(tmp_path):
    status = {"status": "done", "runs_completed": 3, "runs_total": 4,
              "instructions_retired": 10}
    assert ci_gates.main(
        ["heartbeat", write_json(tmp_path, "s.json", status)]) == 1
    status["runs_completed"] = 4
    assert ci_gates.main(
        ["heartbeat", write_json(tmp_path, "s.json", status)]) == 0



def engine_metrics(**overrides):
    counts = {"triggering_stores": 10, "same_value_suppressed": 4,
              "triggers_fired": 6, "duplicates_suppressed": 1,
              "overflow_inline_runs": 1, "executions_started": 5,
              "executions_completed": 3, "cancels": 2}
    counts.update(overrides)
    return {f"engine.{name}": {"type": "counter", "value": value}
            for name, value in counts.items()}


@pytest.mark.parametrize("overrides, reason", [
    ({}, None),
    ({"same_value_suppressed": 3}, "not filtered + fired"),
    ({"executions_started": 6}, "starts are not between"),
    ({"overflow_inline_runs": 6}, "starts are not between"),
    ({"cancels": 3}, "more executions ended than started"),
    ({"triggering_stores": 0, "same_value_suppressed": 0,
      "triggers_fired": 0, "duplicates_suppressed": 0,
      "overflow_inline_runs": 0, "executions_started": 0,
      "executions_completed": 0, "cancels": 0}, "no trigger fired"),
])
def test_trace_gate_checks_the_engine_counting_laws(
        tmp_path, capsys, overrides, reason):
    trace = write_json(tmp_path, "trace.json",
                       {"traceEvents": [{"ts": 1}, {"ts": 2}]})
    metrics = write_json(tmp_path, "m9.json", engine_metrics(**overrides))
    assert ci_gates.main(["trace", trace, metrics]) == (reason is not None)
    if reason is not None:
        assert reason in capsys.readouterr().err


def test_trace_gate_needs_every_engine_counter(tmp_path, capsys):
    trace = write_json(tmp_path, "trace.json", {"traceEvents": [{"ts": 1}]})
    metrics = engine_metrics()
    del metrics["engine.cancels"]
    assert ci_gates.main(
        ["trace", trace, write_json(tmp_path, "m9.json", metrics)]) == 1
    assert "engine.cancels" in capsys.readouterr().err


def store_manifest(store_hits, store_misses, cache_misses):
    return [{"manifest": {"store_hits": store_hits,
                          "store_misses": store_misses,
                          "cache_misses": cache_misses}}]


@pytest.mark.parametrize("cold_misses, reason", [
    (36, None),
    (72, "did not miss the store exactly once"),
])
def test_store_compare_gate_counts_one_miss_per_executed_run(
        tmp_path, capsys, cold_misses, reason):
    compare = write_json(tmp_path, "compare.json",
                         {"regressions": 0, "missing_rows": []})
    cold = write_json(tmp_path, "cold.json",
                      store_manifest(0, cold_misses, 36))
    warm = write_json(tmp_path, "warm.json", store_manifest(36, 0, 0))
    assert ci_gates.main(["store-compare", compare, cold, warm]) \
        == (reason is not None)
    if reason is not None:
        assert reason in capsys.readouterr().err
