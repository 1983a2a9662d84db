"""Interpreter benchmark: instructions/sec of the batch driver.

``dtt-harness bench`` (and ``benchmarks/bench_interpreter.py``) measure
:meth:`~repro.machine.machine.Machine.run` — exec-compiled superblocks
with the per-PC closure thunks as fallback — against legacy
per-instruction stepping, on three workload classes:

* ``mcf`` — pointer-chasing integer code, the paper's headline workload
  and the worst case for per-instruction interpreter overhead;
* ``equake`` — floating-point kernel code;
* ``perlbmk`` — control/branch-heavy code.

Each row also times an **observed** run: the same program with both
redundancy observers attached (``RedundantLoadProfiler`` and
``RedundancyTaintAnalyzer``, as E1/E2 profile it), under ``Machine.run``
and under the ``step()`` loop.  The two must agree on the fingerprint and
on both observers' summaries; ``observed_seconds`` is the ``run`` time
and ``observed_speedup`` its rate over stepping.

Each measurement runs the workload's *baseline* program to completion on
a fresh machine per attempt (the program object is reused, so the
superblock code cache behaves as in a long-lived harness process), and
verifies the batch driver retired the same instructions and produced
byte-identical output/memory/counters.  One **warmup repetition is run
and discarded** before timing — it absorbs the superblock compiler's
first-run compile cost (reported separately as ``build_seconds``) so
steady-state ``instructions_per_sec`` is not polluted; the timed
repetitions report both min (``seconds``, the rate basis) and
``mean_seconds``.

The result dict is written as ``BENCH_interpreter.json`` (kind
``bench_interpreter``, schema 2: one ``workload:superblock`` row per
workload), which ``dtt-harness compare`` understands:
``instructions_per_sec``, ``speedup`` and ``observed_speedup`` (vs legacy
stepping) gate regressions (they may only fall); the legacy rate and all
wall-clock cells are informational.

``dtt-harness bench --trace`` runs the companion **trace-overhead
benchmark** (:func:`run_trace_bench`, written as
``BENCH_trace_overhead.json``, kind ``bench_trace_overhead``): ctrace
bytes/event and compression ratio over the JSON Chrome export, codec
events/sec, and the sampled profiler's absolute error against the exact
profiler with its 95 % CI width.  ``compare`` gates ``bytes_per_event``
and ``sampled_abs_error`` (may only rise) and ``compression_ratio``
(may only fall); wall-clock throughput (``events_per_sec``,
``encode_seconds``, ``decode_seconds``) is informational only.
"""

from __future__ import annotations

import json
import time
from typing import Dict, List, Optional

from repro.errors import MachineError
from repro.machine.context import ContextState
from repro.machine.machine import Machine
from repro.workloads.suite import SUITE

#: workload class -> why it is in the benchmark set
BENCH_WORKLOADS = {
    "mcf": "pointer-chasing integer (paper headline)",
    "equake": "floating-point kernel",
    "perlbmk": "control/branch-heavy",
}

#: schema version of BENCH_interpreter.json (2: rows keyed
#: ``workload:superblock``, min+mean timings, build_seconds column)
BENCH_SCHEMA = 2

#: schema version of BENCH_trace_overhead.json (unchanged by schema 2
#: of the interpreter bench — the trace rows kept their shape)
TRACE_BENCH_SCHEMA = 1


def _run_legacy(machine: Machine) -> None:
    """Drive the main context with per-instruction step() calls."""
    main = machine.main_context
    step = machine.step
    while main.state is ContextState.RUNNING:
        step(main)


def _run_batch(machine: Machine) -> None:
    """Drive the main context with one ``Machine.run`` call."""
    machine.run(machine.main_context)


def _fingerprint(machine: Machine) -> Dict:
    """Everything two equivalent runs must agree on."""
    memory = machine.memory
    lo, hi = memory.written_range()
    return {
        "output": list(machine.output),
        "instructions_executed": machine.instructions_executed,
        "main_instructions": machine.main_instructions,
        "support_instructions": machine.support_instructions,
        "load_count": memory.load_count,
        "store_count": memory.store_count,
        "final_pc": machine.main_context.pc,
        # counted batched readback of the whole written span; runs after
        # the counters above were captured, so it never perturbs them
        "memory_words": memory.load_range(lo, hi - lo + 1) if memory else [],
    }


def _measure(program, driver, repeat: int, max_instructions: int,
             observed: bool = False):
    """Warmup (discarded) + ``repeat`` timed runs; (min, mean, fingerprint).

    ``observed`` runs every attempt under both redundancy observers, whose
    summaries join the fingerprint.
    """
    from repro.profiling import RedundancyTaintAnalyzer, RedundantLoadProfiler

    timings: List[float] = []
    for attempt in range(max(repeat, 1) + 1):
        machine = Machine(program, max_instructions=max_instructions)
        observers = ((RedundantLoadProfiler(), RedundancyTaintAnalyzer())
                     if observed else ())
        for observer in observers:
            machine.add_observer(observer)
        started = time.perf_counter()
        driver(machine)
        if attempt:  # attempt 0 is the warmup: compiles caches, warms dicts
            timings.append(time.perf_counter() - started)
    fingerprint = _fingerprint(machine)
    fingerprint["profiles"] = [observer.summary() for observer in observers]
    return min(timings), sum(timings) / len(timings), fingerprint


def _diverged(name: str, what: str, expected: Dict, got: Dict) -> MachineError:
    return MachineError(
        f"{what} diverged from legacy stepping on {name!r}: "
        + ", ".join(key for key in expected if expected[key] != got[key]))


def bench_workload(name: str, repeat: int = 3,
                   seed: Optional[int] = None, scale: Optional[int] = None,
                   max_instructions: int = 50_000_000) -> Dict[str, Dict]:
    """Measure one workload class; returns its BENCH row."""
    from repro.machine.superblock import cache_stats

    workload = SUITE[name]
    inp = workload.make_input(seed=seed, scale=scale)
    program = workload.build_baseline(inp)
    legacy_seconds, _legacy_mean, legacy_fp = _measure(
        program, _run_legacy, repeat, max_instructions)
    instructions = legacy_fp["instructions_executed"]
    legacy_ips = instructions / legacy_seconds if legacy_seconds else 0.0
    build_before = cache_stats()["build_seconds"]
    seconds, mean_seconds, fp = _measure(
        program, _run_batch, repeat, max_instructions)
    if fp != legacy_fp:
        raise _diverged(name, "Machine.run", legacy_fp, fp)
    observed_legacy_seconds, _mean, observed_legacy_fp = _measure(
        program, _run_legacy, repeat, max_instructions, observed=True)
    observed_seconds, _mean, observed_fp = _measure(
        program, _run_batch, repeat, max_instructions, observed=True)
    if observed_fp != observed_legacy_fp:
        raise _diverged(name, "observed Machine.run", observed_legacy_fp,
                        observed_fp)
    ips = instructions / seconds if seconds else 0.0
    return {f"{name}:superblock": {
        "description": BENCH_WORKLOADS.get(name, ""),
        "workload": name,
        "tier": "superblock",
        "instructions": instructions,
        "legacy_seconds": legacy_seconds,
        "legacy_instructions_per_sec": legacy_ips,
        "seconds": seconds,
        "mean_seconds": mean_seconds,
        "build_seconds": cache_stats()["build_seconds"] - build_before,
        "instructions_per_sec": ips,
        "speedup": ips / legacy_ips if legacy_ips else 0.0,
        "observed_seconds": observed_seconds,
        "observed_speedup": (observed_legacy_seconds / observed_seconds
                             if observed_seconds else 0.0),
    }}


def run_bench(workloads: Optional[List[str]] = None, repeat: int = 3,
              seed: Optional[int] = None, scale: Optional[int] = None,
              max_instructions: int = 50_000_000) -> Dict:
    """Benchmark every requested workload class; returns the BENCH dict."""
    names = list(workloads) if workloads else list(BENCH_WORKLOADS)
    for name in names:
        if name not in SUITE:
            raise MachineError(
                f"unknown bench workload {name!r} (suite has: "
                f"{', '.join(sorted(SUITE))})"
            )
    rows: Dict[str, Dict] = {}
    for name in names:
        rows.update(bench_workload(name, repeat=repeat, seed=seed,
                                   scale=scale,
                                   max_instructions=max_instructions))
    return {
        "kind": "bench_interpreter",
        "schema": BENCH_SCHEMA,
        "repeat": repeat,
        "rows": rows,
    }


# ---------------------------------------------------------------------------
# trace-overhead benchmark (``dtt-harness bench --trace``)
# ---------------------------------------------------------------------------

#: workload class -> why it is in the trace benchmark set (same classes
#: as the interpreter bench: the event mix differs with the code style)
TRACE_BENCH_WORKLOADS = dict(BENCH_WORKLOADS)


def bench_trace_workload(name: str, repeat: int = 3,
                         seed: Optional[int] = None,
                         scale: Optional[int] = None,
                         sample_rate: int = 64) -> Dict:
    """Measure the observability costs of one workload class.

    Three questions, one row:

    * **compressed-trace density** — bytes/event of the ctrace encoding
      of a real DTT run's event stream, and the compression ratio over
      the JSON Chrome export of the same events;
    * **codec throughput** — events/sec through encode (best of
      ``repeat`` attempts; decode wall-clock is reported as an
      informational ``decode_seconds``);
    * **sampling accuracy** — absolute error of the 1/``sample_rate``
      sampled redundant-load estimate against the exact profiler, plus
      the estimate's 95 % CI width (the error should sit inside it).
    """
    import os
    import tempfile

    from repro.core.trace import EngineTrace
    from repro.obs.ctrace import CTraceReader, write_trace
    from repro.obs.timeline import traces_to_chrome
    from repro.profiling.report import profile_program
    from repro.timing.params import named_config
    from repro.timing.system import TimingSimulator

    workload = SUITE[name]
    inp = workload.make_input(seed=seed, scale=scale)
    build = workload.build_dtt(inp)
    engine = build.engine(deferred=True)
    trace = EngineTrace(engine)
    TimingSimulator(build.program, named_config("smt2"), engine=engine).run()
    events = len(trace.events)
    if events == 0:
        raise MachineError(f"{name!r} produced no trace events to measure")

    best_encode = best_decode = None
    ctrace_bytes = 0
    with tempfile.TemporaryDirectory() as tmpdir:
        path = os.path.join(tmpdir, "bench.ctrace")
        for _attempt in range(max(repeat, 1)):
            started = time.perf_counter()
            footer = write_trace(path, (name, trace))
            elapsed = time.perf_counter() - started
            if best_encode is None or elapsed < best_encode:
                best_encode = elapsed
            ctrace_bytes = footer["bytes"]
            started = time.perf_counter()
            decoded = sum(1 for _ in CTraceReader(path).stream(name).events)
            elapsed = time.perf_counter() - started
            if best_decode is None or elapsed < best_decode:
                best_decode = elapsed
        if decoded != events:
            raise MachineError(
                f"ctrace round-trip lost events on {name!r}: "
                f"{events} written, {decoded} read back")
    chrome_bytes = len(json.dumps(traces_to_chrome([(name, trace)]),
                                  indent=1).encode("utf-8"))

    exact = profile_program(workload.build_baseline(inp), name)
    sampled = profile_program(workload.build_baseline(inp), name,
                              sample_rate=sample_rate)
    estimate = sampled.loads.load_estimate
    exact_fraction = exact.loads.redundant_load_fraction
    return {
        "description": TRACE_BENCH_WORKLOADS.get(name, ""),
        "events": events,
        "ctrace_bytes": ctrace_bytes,
        "chrome_json_bytes": chrome_bytes,
        "bytes_per_event": ctrace_bytes / events,
        "compression_ratio": (chrome_bytes / ctrace_bytes
                              if ctrace_bytes else 0.0),
        "encode_seconds": best_encode,
        "decode_seconds": best_decode,
        "events_per_sec": events / best_encode if best_encode else 0.0,
        "sample_rate": sample_rate,
        "redundant_load_fraction": exact_fraction,
        "sampled_fraction": estimate.fraction,
        "sampled_abs_error": abs(estimate.fraction - exact_fraction),
        "sampled_fraction_ci_width": estimate.ci_width,
        "sampled_in_ci": bool(estimate.contains(exact_fraction)),
    }


def run_trace_bench(workloads: Optional[List[str]] = None, repeat: int = 3,
                    seed: Optional[int] = None, scale: Optional[int] = None,
                    sample_rate: int = 64) -> Dict:
    """The trace-overhead benchmark; result is ``BENCH_trace_overhead.json``."""
    names = list(workloads) if workloads else list(TRACE_BENCH_WORKLOADS)
    for name in names:
        if name not in SUITE:
            raise MachineError(
                f"unknown bench workload {name!r} (suite has: "
                f"{', '.join(sorted(SUITE))})"
            )
    rows = {
        name: bench_trace_workload(name, repeat=repeat, seed=seed,
                                   scale=scale, sample_rate=sample_rate)
        for name in names
    }
    return {
        "kind": "bench_trace_overhead",
        "schema": TRACE_BENCH_SCHEMA,
        "repeat": repeat,
        "rows": rows,
    }


def render_trace_bench(result: Dict) -> str:
    """Terminal table of one ``run_trace_bench`` result."""
    lines = ["trace-overhead benchmark (best of "
             f"{result.get('repeat', '?')})"]
    lines.append(
        f"  {'workload':<10} {'events':>8} {'B/event':>8} {'ratio':>7} "
        f"{'encode':>12} {'sample err':>10} {'CI width':>9}")
    for name, row in result.get("rows", {}).items():
        lines.append(
            f"  {name:<10} {row['events']:>8,} "
            f"{row['bytes_per_event']:>8.2f} "
            f"{row['compression_ratio']:>6.1f}x "
            f"{row['events_per_sec']:>10,.0f}/s "
            f"{row['sampled_abs_error']:>10.4f} "
            f"{row['sampled_fraction_ci_width']:>9.4f}"
        )
    return "\n".join(lines)


def render_bench(result: Dict) -> str:
    """Terminal table of one ``run_bench`` result."""
    lines = ["interpreter benchmark (instructions/sec, min of "
             f"{result.get('repeat', '?')} after warmup)"]
    header = (f"  {'workload:driver':<22} {'instructions':>12} "
              f"{'rate':>12} {'build':>8} {'speedup':>8} {'observed':>8}")
    lines.append(header)
    for name, row in result.get("rows", {}).items():
        lines.append(
            f"  {name:<22} {row['instructions']:>12,} "
            f"{row['instructions_per_sec']:>11,.0f}/s "
            f"{row['build_seconds'] * 1e3:>6.1f}ms "
            f"{row['speedup']:>7.2f}x "
            f"{row['observed_speedup']:>7.2f}x"
        )
    return "\n".join(lines)


def write_bench(result: Dict, path: str) -> None:
    """Write ``BENCH_interpreter.json`` atomically."""
    from repro.obs.ioutil import atomic_write_text

    atomic_write_text(path, json.dumps(result, indent=2, sort_keys=True) + "\n")
