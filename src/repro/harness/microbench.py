"""Mechanism-overhead microbenchmarks.

The paper argues the DTT hardware additions are cheap; this module
measures the mechanism costs of *this* implementation in isolation, each
as a per-event cycle figure obtained by differencing two timed runs that
differ only in the mechanism under test:

* **silent triggering store** vs a plain store — what a ``tst`` costs when
  the value filter suppresses it (the common case);
* **clean consume point** — what a ``tcheck`` costs when nothing fired;
* **trigger-to-result** — cycles from a firing trigger to the consume
  point unblocking, for a minimal support thread (spawn latency + queue +
  dispatch + body + barrier), against the same computation inlined;
* **superblock code cache** — compile cost per block shape and the
  hit rate across machine re-runs of one program, so a cache regression
  (recompiling per run) shows up in history trends.

Used by ``benchmarks/bench_micro_overheads.py`` and the overhead tests.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.engine import DttEngine
from repro.core.registry import ThreadRegistry, TriggerSpec
from repro.harness.results import ExperimentResult
from repro.isa.builder import ProgramBuilder
from repro.timing.params import named_config
from repro.timing.system import TimingSimulator

ITERATIONS = 600


def _timed(program, specs=None):
    engine = None
    if specs is not None:
        engine = DttEngine(ThreadRegistry(specs), deferred=True)
    return TimingSimulator(program, named_config("smt2"), engine=engine).run()


def _store_loop(triggering: bool, with_thread: bool) -> Tuple:
    """A loop of silent stores; optionally tst, optionally a dummy thread."""
    b = ProgramBuilder()
    b.data("cell", [7])
    if with_thread:
        with b.thread("noop"):
            b.treturn()
    pc_box: List[int] = []
    with b.function("main"):
        t = b.global_reg("t")
        with b.for_range(t, 0, ITERATIONS):
            with b.scratch(2) as (base, v):
                b.la(base, "cell")
                b.li(v, 7)  # always the value already there
                if triggering:
                    pc_box.append(b.tst(v, base, 0))
                else:
                    pc_box.append(b.st(v, base, 0))
        b.halt()
    program = b.build()
    specs = None
    if with_thread:
        specs = [TriggerSpec("noop", store_pcs=[pc_box[0]],
                             per_address_dedupe=False)]
    return program, specs


def silent_tstore_overhead() -> float:
    """Extra cycles per silent triggering store vs a plain store."""
    plain, _ = _store_loop(triggering=False, with_thread=False)
    tstores, specs = _store_loop(triggering=True, with_thread=True)
    baseline = _timed(plain)
    filtered = _timed(tstores, specs)
    return (filtered.cycles - baseline.cycles) / ITERATIONS


def _tcheck_loop(with_tcheck: bool) -> Tuple:
    b = ProgramBuilder()
    b.data("cell", [7])
    with b.thread("noop"):
        b.treturn()
    with b.function("main"):
        t = b.global_reg("t")
        with b.for_range(t, 0, ITERATIONS):
            if with_tcheck:
                b.tcheck_thread("noop")
            else:
                b.nop()  # same instruction count either way
        b.halt()
    program = b.build()
    specs = [TriggerSpec("noop", store_pcs=[0], per_address_dedupe=False)]
    return program, specs


def clean_tcheck_overhead() -> float:
    """Extra cycles per consume point that skips clean, vs a nop."""
    nops, specs = _tcheck_loop(with_tcheck=False)
    tchecks, specs2 = _tcheck_loop(with_tcheck=True)
    return (_timed(tchecks, specs2).cycles - _timed(nops, specs).cycles) \
        / ITERATIONS


def _compute_body(b: ProgramBuilder, work: int) -> None:
    """sum <- cell * work-ish; a small deterministic computation."""
    with b.scratch(3) as (base, acc, i):
        b.la(base, "cell")
        b.ld(acc, base, 0)
        with b.for_range(i, 0, work):
            b.addi(acc, acc, 1)
        with b.scratch(1) as (p,):
            b.la(p, "sum")
            b.st(acc, p, 0)


def _trigger_roundtrip(as_thread: bool, work: int = 8) -> Tuple:
    """Per iteration: a firing store, then (thread+tcheck | inline body)."""
    b = ProgramBuilder()
    b.data("cell", [0])
    b.data("sum", [0])
    if as_thread:
        with b.thread("compute"):
            _compute_body(b, work)
            b.treturn()
    pc_box: List[int] = []
    with b.function("main"):
        t = b.global_reg("t")
        with b.for_range(t, 0, ITERATIONS):
            with b.scratch(2) as (base, v):
                b.la(base, "cell")
                b.addi(v, t, 1)  # always changes
                if as_thread:
                    pc_box.append(b.tst(v, base, 0))
                else:
                    pc_box.append(b.st(v, base, 0))
            if as_thread:
                b.tcheck_thread("compute")
            else:
                _compute_body(b, work)
        b.halt()
    program = b.build()
    specs = None
    if as_thread:
        specs = [TriggerSpec("compute", store_pcs=[pc_box[0]],
                             per_address_dedupe=False)]
    return program, specs


def trigger_roundtrip_overhead(work: int = 8) -> float:
    """Extra cycles per fire-dispatch-execute-barrier round trip, versus
    executing the same tiny body inline (positive: the mechanism costs
    more than it overlaps for a body this small)."""
    inline, _ = _trigger_roundtrip(as_thread=False, work=work)
    threaded, specs = _trigger_roundtrip(as_thread=True, work=work)
    return (_timed(threaded, specs).cycles - _timed(inline).cycles) \
        / ITERATIONS


def instrumentation_overhead(repeats: int = 3) -> Tuple[float, float, float]:
    """Wall-clock cost of attaching the metrics registry to an engine run.

    Runs the same DTT timed run ``repeats`` times bare and ``repeats``
    times with a :class:`~repro.obs.metrics.MetricsRegistry` attached,
    taking the minimum of each (noise rejection).  Returns
    ``(bare_seconds, metered_seconds, ratio)``.  The observability layer
    must never become the hot path: the guard asserted by the overhead
    benchmark is ratio < 2.
    """
    import time

    from repro.obs.metrics import MetricsRegistry
    from repro.workloads.suite import SUITE

    workload = SUITE["perlbmk"]
    inp = workload.make_input(None, None)

    def one_run(metrics) -> float:
        build = workload.build_dtt(inp)
        engine = build.engine(deferred=True)
        simulator = TimingSimulator(build.program, named_config("smt2"),
                                    engine=engine, metrics=metrics)
        started = time.perf_counter()
        simulator.run()
        return time.perf_counter() - started

    bare = min(one_run(None) for _ in range(repeats))
    metered = min(one_run(MetricsRegistry()) for _ in range(repeats))
    return bare, metered, metered / bare if bare else 1.0


def superblock_cache_overhead(runs_per_program: int = 4) -> Dict[str, float]:
    """Compile cost and hit rate of the block code cache.

    Runs each interpreter-bench workload ``runs_per_program`` times with
    ``Machine.run`` on fresh machines sharing one program object (the
    long-lived-harness shape), after resetting the cache counters.
    Returns the :func:`~repro.machine.superblock.cache_stats` snapshot
    plus ``build_seconds_per_shape`` and ``rerun_misses``, the shapes
    compiled by the runs after each program's first, which must be 0.
    """
    from repro.harness.bench import BENCH_WORKLOADS
    from repro.machine import superblock
    from repro.machine.machine import Machine, run_to_completion
    from repro.workloads.suite import SUITE

    superblock.reset_cache_stats()
    rerun_misses = 0
    for name in BENCH_WORKLOADS:
        workload = SUITE[name]
        program = workload.build_baseline(workload.make_input(None, None))
        run_to_completion(Machine(program))
        misses = superblock.cache_stats()["cache_misses"]
        for _run in range(runs_per_program - 1):
            run_to_completion(Machine(program))
        rerun_misses += superblock.cache_stats()["cache_misses"] - misses
    stats = dict(superblock.cache_stats())
    stats["rerun_misses"] = rerun_misses
    stats["build_seconds_per_shape"] = (
        stats["build_seconds"] / stats["cache_misses"]
        if stats["cache_misses"] else 0.0)
    return stats


def run_micro_overheads() -> ExperimentResult:
    """The mechanism-overhead table (appendix-style; not a paper figure)."""
    silent = silent_tstore_overhead()
    clean = clean_tcheck_overhead()
    roundtrip = trigger_roundtrip_overhead()
    cache = superblock_cache_overhead()
    rows = [
        ["silent triggering store (vs plain store)", f"{silent:.2f} cycles"],
        ["clean consume point (vs nop)", f"{clean:.2f} cycles"],
        ["fire->dispatch->execute->barrier round trip, 8-op body "
         "(vs inline)", f"{roundtrip:.2f} cycles"],
        ["superblock compile (per block shape)",
         f"{cache['build_seconds_per_shape'] * 1000:.2f} ms"],
        ["superblock code-cache hit rate (4 runs/program)",
         f"{cache['hit_rate']:.2f}"],
    ]
    result = ExperimentResult(
        "M1",
        "DTT mechanism overheads in isolation (per event)",
        ["mechanism", "overhead"],
        rows,
        paper_claim="the DTT hardware additions are cheap; the common cases "
                    "(silent store, clean consume) must cost ~nothing",
        notes="appendix-style microbenchmarks; not one of the paper's figures",
    )
    result.add_check("silent triggering stores are essentially free",
                     abs(silent) < 0.5, f"{silent:.2f} cycles/store")
    result.add_check("clean consume points are essentially free",
                     abs(clean) < 2.0, f"{clean:.2f} cycles/consume")
    result.add_check(
        "thread round trip costs tens of cycles, not hundreds",
        -5.0 < roundtrip < 100.0,
        f"{roundtrip:.2f} cycles/round-trip",
    )
    result.add_check(
        "superblock compile stays far under one benchmark repetition",
        cache["build_seconds_per_shape"] < 0.05,
        f"{cache['build_seconds_per_shape'] * 1000:.2f} ms/shape",
    )
    result.add_check(
        "code cache hits every re-run of a cached program",
        cache["rerun_misses"] == 0 and cache["hit_rate"] >= 0.7,
        f"hit rate {cache['hit_rate']:.2f} "
        f"({cache['cache_hits']:g} hits / {cache['cache_misses']:g} misses)",
    )
    return result
