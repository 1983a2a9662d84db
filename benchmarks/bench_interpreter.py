"""Interpreter — instructions/sec, legacy stepping vs ``Machine.run``.

Regenerates the BENCH_interpreter rows (the same measurement behind
``dtt-harness bench``) and times the regeneration; the rendered table is
printed into the benchmark output (captured with -s or in CI logs).

The speedup assertions are deliberately looser than the committed
baseline in ``benchmarks/BENCH_interpreter.json`` — the regression *gate*
is ``dtt-harness compare`` against that file; these bounds only catch
the batch driver being turned off entirely (speedup collapsing toward
1x).
"""

from repro.harness.bench import (BENCH_SCHEMA, BENCH_WORKLOADS,
                                 render_bench, run_bench)


def test_interpreter_fast_path(benchmark):
    result = benchmark.pedantic(
        lambda: run_bench(repeat=2), rounds=1, iterations=1
    )
    print()
    print(render_bench(result))
    assert result["schema"] == BENCH_SCHEMA
    rows = result["rows"]
    assert set(rows) == {f"{name}:superblock" for name in BENCH_WORKLOADS}
    for name, row in rows.items():
        assert row["instructions"] > 0, name
        assert row["speedup"] >= 2.0, (
            f"{name}: only {row['speedup']:.2f}x over legacy stepping "
            "(expected well above 2x; is run() falling back?)"
        )
    # the paper-headline pointer-chasing workload is the acceptance bar
    # (the committed baseline records about 18x; 3x tolerates noise)
    assert rows["mcf:superblock"]["speedup"] >= 3.0
    assert rows["mcf:superblock"]["build_seconds"] >= 0.0
    # observed runs (both redundancy observers) share the batch loop
    assert rows["mcf:superblock"]["observed_speedup"] >= 1.2
