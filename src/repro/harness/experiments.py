"""The experiments: E1–E8, one per paper table/figure, plus the E9
parallelism extension.

Every function takes an optional :class:`~repro.harness.runner.SuiteRunner`
(sharing one across experiments reuses the timed runs) and returns an
:class:`~repro.harness.results.ExperimentResult` whose shape checks encode
DESIGN.md's mechanically-checkable claims.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional

from repro.core.config import DttConfig
from repro.errors import UnknownExperimentError
from repro.harness.results import ExperimentResult
from repro.harness.runner import SuiteRunner
from repro.timing.params import named_config
from repro.workloads.ablation import BurstyEquakeWorkload, LineFalseWorkload
from repro.workloads.suite import SUITE
from repro.isa.instructions import is_triggering_store

#: subset used by the machine-configuration sensitivity study (E5) and the
#: ablations (E8) — the suite's clearest winners, as the paper's
#: sensitivity sections also focus on the benchmarks with headroom
SENSITIVITY_SUBSET = ("mcf", "equake", "art", "twolf")


def geometric_mean(values: List[float]) -> float:
    """Geometric mean (0.0 for an empty list) — the speedup headline."""
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


# ---------------------------------------------------------------------------
# E1 — redundant loads (the paper's 78 % motivation figure)
# ---------------------------------------------------------------------------


def run_e1_redundant_loads(runner: Optional[SuiteRunner] = None) -> ExperimentResult:
    """per-benchmark redundant-load fractions (paper: 78% average).

    With a sampling runner (``--sample-rate``) the fractions are
    bounded-memory estimates, so the shape checks become interval
    checks: the expected band must *overlap* the suite-average 95 % CI
    band rather than contain the point estimate — the same
    tolerance-is-CI-width treatment ``compare`` gives sampled metrics.
    """
    runner = runner or SuiteRunner()
    sampled = getattr(runner, "sample_rate", None) is not None
    rows = []
    fractions = []
    silent = []
    ci_lows: List[float] = []
    ci_highs: List[float] = []
    for workload in runner.suite():
        report = runner.profile(workload)
        fractions.append(report.redundant_load_fraction)
        silent.append(report.silent_store_fraction)
        load_cell = f"{report.redundant_load_fraction:.1%}"
        if sampled:
            estimate = report.loads.load_estimate
            ci_lows.append(estimate.ci_low)
            ci_highs.append(estimate.ci_high)
            load_cell += f" [{estimate.ci_low:.0%}, {estimate.ci_high:.0%}]"
        rows.append([
            workload.name,
            report.loads.total_loads,
            load_cell,
            f"{report.silent_store_fraction:.1%}",
        ])
    average = sum(fractions) / len(fractions)
    avg_silent = sum(silent) / len(silent)
    rows.append(["average", "", f"{average:.1%}", f"{avg_silent:.1%}"])
    labels = [row[0] for row in rows]
    result = ExperimentResult(
        "E1",
        "Fraction of dynamic loads fetching redundant data",
        ["benchmark", "dynamic loads", "redundant loads", "silent stores"],
        rows,
        paper_claim="78% of all loads fetch redundant data (suite average)",
        notes=(f"sampled estimates (1/{runner.sample_rate} of addresses); "
               "cells show the 95% CI" if sampled else ""),
    )
    result.set_figure(labels, [f * 100 for f in fractions] + [average * 100],
                      unit="%")
    if sampled:
        avg_low = sum(ci_lows) / len(ci_lows)
        avg_high = sum(ci_highs) / len(ci_highs)
        result.add_check(
            "suite-average redundant-load fraction (CI overlap)",
            avg_high >= 0.70 and avg_low <= 0.86,
            f"estimate={average:.4g} CI=[{avg_low:.4g}, {avg_high:.4g}], "
            f"expected band [0.7, 0.86] must overlap the CI",
        )
        result.add_check(
            "every benchmark consistent with redundancy",
            min(ci_highs) > 0.10,
            f"min benchmark CI upper bound = {min(ci_highs):.1%}",
        )
    else:
        result.check_range("suite-average redundant-load fraction",
                           average, 0.70, 0.86)
        result.add_check(
            "every benchmark exhibits redundancy",
            min(fractions) > 0.10,
            f"min benchmark fraction = {min(fractions):.1%}",
        )
    return result


# ---------------------------------------------------------------------------
# E2 — redundant computation (forward slice of redundant loads)
# ---------------------------------------------------------------------------


def run_e2_redundant_computation(
    runner: Optional[SuiteRunner] = None,
) -> ExperimentResult:
    """redundant-computation fractions via taint slicing (shape-only)."""
    runner = runner or SuiteRunner()
    rows = []
    fractions = []
    for workload in runner.suite():
        report = runner.profile(workload)
        fractions.append(report.redundant_computation_fraction)
        rows.append([
            workload.name,
            report.slices.total_instructions,
            f"{report.redundant_computation_fraction:.1%}",
        ])
    average = sum(fractions) / len(fractions)
    rows.append(["average", "", f"{average:.1%}"])
    result = ExperimentResult(
        "E2",
        "Fraction of dynamic instructions that are redundant computation",
        ["benchmark", "dynamic instructions", "redundant computation"],
        rows,
        paper_claim=("redundant loads lead to a 'high incidence of redundant "
                     "computation' (shape-only; exact series unpublished)"),
        notes="taint-propagation operationalization; see profiling.slices",
    )
    if getattr(runner, "sample_rate", None) is not None:
        # taint propagation needs every load's classification; a sampled
        # profile cannot estimate it (see profiling.report), so the
        # fractions above are all zero by construction — record that
        # honestly instead of failing a claim the data cannot test
        result.add_check(
            "slice analysis sampled out",
            True,
            f"--sample-rate 1/{runner.sample_rate} profiles skip taint "
            "slicing; rerun without sampling for E2's fractions",
        )
        return result
    result.add_check(
        "redundant computation is substantial on average",
        average > 0.10,
        f"average = {average:.1%}",
    )
    result.add_check(
        "computation fraction below load fraction (slices are subsets)",
        all(runner.profile(w).redundant_computation_fraction
            <= runner.profile(w).redundant_load_fraction + 1e-9
            for w in runner.suite()),
        "per-benchmark computation <= load redundancy",
    )
    return result


# ---------------------------------------------------------------------------
# E3 — speedup (the headline figure)
# ---------------------------------------------------------------------------


def run_e3_speedup(runner: Optional[SuiteRunner] = None) -> ExperimentResult:
    """the headline speedup figure (paper: max 5.9x, mean 1.46x)."""
    runner = runner or SuiteRunner()
    rows = []
    speedups = {}
    for workload in runner.suite():
        baseline = runner.timed(workload, "baseline")
        dtt = runner.timed(workload, "dtt")
        speedup = dtt.speedup_over(baseline)
        speedups[workload.name] = speedup
        rows.append([
            workload.name, baseline.cycles, dtt.cycles, f"{speedup:.2f}x",
        ])
    geo = geometric_mean(list(speedups.values()))
    arith = sum(speedups.values()) / len(speedups)
    rows.append(["geo-mean", "", "", f"{geo:.2f}x"])
    rows.append(["arith-mean", "", "", f"{arith:.2f}x"])
    best = max(speedups, key=speedups.get)
    result = ExperimentResult(
        "E3",
        "DTT speedup over baseline (simulated cycles, smt2 machine)",
        ["benchmark", "baseline cycles", "DTT cycles", "speedup"],
        rows,
        paper_claim="speedup up to 5.9x, averaging 46%",
    )
    result.set_figure(list(speedups) + ["geo-mean"],
                      list(speedups.values()) + [geo], unit="x")
    result.check_range("maximum speedup (paper: 5.9x on mcf)",
                       max(speedups.values()), 4.5, 7.0)
    result.add_check("maximum achieved on mcf", best == "mcf",
                     f"best benchmark = {best}")
    result.check_range("mean speedup (paper: 1.46x)", geo, 1.25, 1.70)
    result.add_check(
        "DTT never materially hurts",
        min(speedups.values()) >= 0.97,
        f"min speedup = {min(speedups.values()):.3f}",
    )
    return result


# ---------------------------------------------------------------------------
# E4 — committed-instruction reduction
# ---------------------------------------------------------------------------


def run_e4_committed_instructions(
    runner: Optional[SuiteRunner] = None,
) -> ExperimentResult:
    """committed-instruction reduction under DTT (shape-only)."""
    runner = runner or SuiteRunner()
    rows = []
    reductions = {}
    for workload in runner.suite():
        baseline = runner.timed(workload, "baseline")
        dtt = runner.timed(workload, "dtt")
        reduction = 1.0 - dtt.instructions / baseline.instructions
        reductions[workload.name] = reduction
        rows.append([
            workload.name,
            baseline.instructions,
            dtt.main_instructions,
            dtt.support_instructions,
            f"{reduction:.1%}",
        ])
    average = sum(reductions.values()) / len(reductions)
    rows.append(["average", "", "", "", f"{average:.1%}"])
    result = ExperimentResult(
        "E4",
        "Committed dynamic instructions: baseline vs DTT (main + support)",
        ["benchmark", "baseline insts", "DTT main", "DTT support",
         "reduction"],
        rows,
        paper_claim="DTT eliminates committed instructions in proportion to "
                    "skipped computation (shape-only)",
    )
    result.add_check(
        "mcf eliminates most of its instructions",
        reductions["mcf"] > 0.5,
        f"mcf reduction = {reductions['mcf']:.1%}",
    )
    result.add_check(
        "no benchmark executes materially more instructions under DTT",
        min(reductions.values()) > -0.05,
        f"min reduction = {min(reductions.values()):.1%}",
    )
    return result


# ---------------------------------------------------------------------------
# E5 — where support threads run (machine-configuration sensitivity)
# ---------------------------------------------------------------------------


def run_e5_context_sensitivity(
    runner: Optional[SuiteRunner] = None,
) -> ExperimentResult:
    """speedup vs where support threads run (smt2/cmp2/serial)."""
    runner = runner or SuiteRunner()
    configs = ("smt2", "cmp2", "serial")
    rows = []
    table: Dict[str, Dict[str, float]] = {}
    for name in SENSITIVITY_SUBSET:
        workload = SUITE[name]
        per_config = {}
        for config_name in configs:
            baseline = runner.timed(workload, "baseline", config_name)
            dtt = runner.timed(workload, "dtt", config_name)
            per_config[config_name] = dtt.speedup_over(baseline)
        table[name] = per_config
        rows.append([name] + [f"{per_config[c]:.2f}x" for c in configs])
    for config_name in configs:
        values = [table[n][config_name] for n in SENSITIVITY_SUBSET]
        geo = geometric_mean(values)
        if config_name == configs[0]:
            geo_row = ["geo-mean", f"{geo:.2f}x"]
        else:
            geo_row.append(f"{geo:.2f}x")
    rows.append(geo_row)
    result = ExperimentResult(
        "E5",
        "Speedup vs where support threads run: spare SMT context (smt2), "
        "idle CMP core (cmp2), none/serialized (serial)",
        ["benchmark", "smt2", "cmp2", "serial"],
        rows,
        paper_claim="spare SMT context is the paper's main configuration; an "
                    "idle core also works; with no spare context only the "
                    "skip benefit survives (shape-only ordering)",
    )
    for name in SENSITIVITY_SUBSET:
        result.add_check(
            f"{name}: spare-context >= serialized",
            table[name]["smt2"] >= table[name]["serial"] - 0.02,
            f"smt2={table[name]['smt2']:.2f}, serial={table[name]['serial']:.2f}",
        )
        result.add_check(
            f"{name}: serialized still profits from skipping",
            table[name]["serial"] >= 0.95,
            f"serial={table[name]['serial']:.2f}",
        )
    return result


# ---------------------------------------------------------------------------
# E6 — benchmark characteristics table
# ---------------------------------------------------------------------------


def run_e6_benchmark_table(
    runner: Optional[SuiteRunner] = None,
) -> ExperimentResult:
    """the benchmark-characteristics table of the DTT conversions."""
    runner = runner or SuiteRunner()
    rows = []
    for workload in runner.suite():
        build = runner.build_for(workload, "dtt")
        static_tstores = sum(
            1 for instruction in build.program
            if is_triggering_store(instruction.op)
        )
        runner.timed(workload, "dtt")  # ensure the engine exists
        engine = runner.engine_for(workload, "dtt")
        summary = engine.summary()
        dynamic = summary["triggering_stores"]
        fired = summary["triggers_fired"]
        clean = summary["clean_consumes"]
        consumes = summary["consumes"]
        rows.append([
            workload.name,
            workload.converted_region,
            len(build.program.threads),
            static_tstores,
            dynamic,
            f"{fired / dynamic:.1%}" if dynamic else "n/a",
            f"{clean / consumes:.1%}" if consumes else "n/a",
        ])
    result = ExperimentResult(
        "E6",
        "Benchmark characteristics of the DTT conversions",
        ["benchmark", "converted region", "threads", "static tstores",
         "dynamic tstores", "trigger rate", "consumes skipped"],
        rows,
        paper_claim="per-benchmark conversion characteristics (table form)",
    )
    skip_rates = []
    for row in rows:
        if row[6] != "n/a":
            skip_rates.append(float(row[6].rstrip("%")) / 100.0)
    result.add_check(
        "most consume points are skipped on average",
        sum(skip_rates) / len(skip_rates) > 0.5,
        f"average skip rate = {sum(skip_rates) / len(skip_rates):.1%}",
    )
    return result


# ---------------------------------------------------------------------------
# E7 — machine configuration + energy proxy
# ---------------------------------------------------------------------------


def run_e7_machine_energy(
    runner: Optional[SuiteRunner] = None,
) -> ExperimentResult:
    """machine-parameter table plus the energy-proxy reductions."""
    runner = runner or SuiteRunner()
    config = named_config("smt2")
    rows = [["[config] " + key, value, "", ""]
            for key, value in config.parameter_table().items()]
    reductions = {}
    for workload in runner.suite():
        baseline = runner.timed(workload, "baseline")
        dtt = runner.timed(workload, "dtt")
        reduction = 1.0 - dtt.energy / baseline.energy
        reductions[workload.name] = reduction
        rows.append([
            workload.name,
            f"{baseline.energy:.0f}",
            f"{dtt.energy:.0f}",
            f"{reduction:.1%}",
        ])
    average = sum(reductions.values()) / len(reductions)
    rows.append(["average", "", "", f"{average:.1%}"])
    result = ExperimentResult(
        "E7",
        "Simulated machine configuration and event-weighted energy proxy",
        ["item / benchmark", "baseline energy", "DTT energy", "reduction"],
        rows,
        paper_claim="energy savings track eliminated work (shape-only)",
    )
    result.add_check(
        "mcf energy reduction is large",
        reductions["mcf"] > 0.4,
        f"mcf = {reductions['mcf']:.1%}",
    )
    result.add_check(
        "energy never materially increases",
        min(reductions.values()) > -0.05,
        f"min = {min(reductions.values()):.1%}",
    )
    return result


# ---------------------------------------------------------------------------
# E8 — design-choice ablations
# ---------------------------------------------------------------------------


def run_e8_ablations(runner: Optional[SuiteRunner] = None) -> ExperimentResult:
    """value-filter, granularity, and queue-depth ablations."""
    runner = runner or SuiteRunner()
    rows = []

    # (a) same-value filter off: every triggering store fires
    mcf = SUITE["mcf"]
    normal = runner.speedup(mcf)
    no_filter = runner.speedup(
        mcf, dtt_config=DttConfig(same_value_filter=False)
    )
    rows.append(["a: same-value filter", "mcf on", f"{normal:.2f}x"])
    rows.append(["a: same-value filter", "mcf OFF", f"{no_filter:.2f}x"])

    # (b) trigger granularity: word vs cache line (false triggers).
    # Through the runner: memoized, store-persisted, and the output is
    # checked against the baseline inside timed() — granularity is a
    # performance knob, not a correctness knob.
    linefalse = LineFalseWorkload()
    by_granularity = {}
    fired = {}
    for granularity in (1, 16):
        config = DttConfig(granularity=granularity)
        by_granularity[granularity] = runner.speedup(linefalse,
                                                     dtt_config=config)
        engine = runner.engine_for(linefalse, "dtt", "smt2", config)
        fired[granularity] = engine.summary()["triggers_fired"]
        rows.append([
            "b: granularity", f"linefalse {granularity}-word watch",
            f"{by_granularity[granularity]:.2f}x "
            f"({fired[granularity]} triggers)",
        ])

    # (c) thread-queue capacity, on the deliberately bursty equake
    # variant (several activations pending at once, so a shallow queue
    # overflows; see BurstyEquakeWorkload)
    bursty = BurstyEquakeWorkload()
    by_capacity = {}
    overflow = {}
    for capacity in (1, 2, 16):
        config = DttConfig(queue_capacity=capacity)
        by_capacity[capacity] = runner.speedup(bursty, dtt_config=config)
        engine = runner.engine_for(bursty, "dtt", "smt2", config)
        overflow[capacity] = engine.summary()["overflow_inline_runs"]
        rows.append([
            "c: queue depth", f"bursty-equake capacity={capacity}",
            f"{by_capacity[capacity]:.2f}x ({overflow[capacity]} overflow runs)",
        ])

    result = ExperimentResult(
        "E8",
        "Design-choice ablations: value filter, granularity, queue depth",
        ["ablation", "configuration", "result"],
        rows,
        paper_claim="the same-value filter provides the benefit; line-granular "
                    "triggering causes false triggers; queue overflow degrades "
                    "to inline execution (design discussion, shape-only)",
    )
    result.add_check(
        "a: disabling the value filter collapses the benefit",
        no_filter < 0.6 * normal,
        f"on={normal:.2f}x, off={no_filter:.2f}x",
    )
    result.add_check(
        "b: line granularity causes false triggers and loses the benefit",
        by_granularity[16] < by_granularity[1] - 0.25
        and fired[16] > 10 * fired[1],
        f"word={by_granularity[1]:.2f}x ({fired[1]} fired), "
        f"line={by_granularity[16]:.2f}x ({fired[16]} fired)",
    )
    result.add_check(
        "c: a tiny queue forces overflow runs but stays correct",
        overflow[1] > 0 and overflow[1] > overflow[16]
        and by_capacity[16] >= by_capacity[1] - 0.02,
        f"overflows: cap1={overflow[1]}, cap2={overflow[2]}, "
        f"cap16={overflow[16]}",
    )
    return result


# ---------------------------------------------------------------------------
# E9 (extension) — the abstract's parallelism claim
# ---------------------------------------------------------------------------


def run_e9_parallelism(runner: Optional[SuiteRunner] = None) -> ExperimentResult:
    """Extension experiment (not a paper artifact): isolate the
    *parallelism* benefit the abstract claims but the paper's evaluation
    does not separate out.  The overlap workload's watched data changes
    every iteration, so skipping contributes nothing; all speedup comes
    from running the support thread under the main thread's independent
    work."""
    from repro.workloads.overlap import OverlapWorkload

    runner = runner or SuiteRunner()
    workload = OverlapWorkload()
    rows = []
    speedups: Dict[str, float] = {}
    clean_consumes = None
    for config_name in ("smt2", "cmp2", "serial"):
        # through the runner: memoized, correctness-checked, and metered
        baseline = runner.timed(workload, "baseline", config_name)
        timed = runner.timed(workload, "dtt", config_name)
        engine = runner.engine_for(workload, "dtt", config_name)
        speedups[config_name] = timed.speedup_over(baseline)
        row = engine.status["coeffthr"]
        clean_consumes = row.clean_consumes
        rows.append([
            config_name,
            f"{speedups[config_name]:.2f}x",
            row.triggers_fired,
            row.clean_consumes,
        ])
    result = ExperimentResult(
        "E9",
        "Parallelism extension: always-changing trigger, overlap-only benefit",
        ["machine", "speedup", "triggers fired", "consumes skipped"],
        rows,
        paper_claim="DTT 'enables increased parallelism and the elimination "
                    "of redundant computation' (abstract); the evaluation "
                    "covers the latter, this extension isolates the former",
        notes="extension experiment — not one of the paper's figures",
    )
    result.add_check(
        "no skipping is available (every trigger fires)",
        clean_consumes == 0,
        f"clean consumes = {clean_consumes}",
    )
    result.add_check(
        "a spare context converts overlap into speedup",
        speedups["smt2"] > 1.25 and speedups["cmp2"] > 1.25,
        f"smt2={speedups['smt2']:.2f}x, cmp2={speedups['cmp2']:.2f}x",
    )
    result.add_check(
        "without a spare context there is (correctly) no benefit",
        0.9 <= speedups["serial"] <= 1.05,
        f"serial={speedups['serial']:.2f}x",
    )
    return result


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


EXPERIMENTS: Dict[str, Callable[[Optional[SuiteRunner]], ExperimentResult]] = {
    "E1": run_e1_redundant_loads,
    "E2": run_e2_redundant_computation,
    "E3": run_e3_speedup,
    "E4": run_e4_committed_instructions,
    "E5": run_e5_context_sensitivity,
    "E6": run_e6_benchmark_table,
    "E7": run_e7_machine_energy,
    "E8": run_e8_ablations,
    "E9": run_e9_parallelism,
}


def run_experiment(experiment_id: str,
                   runner: Optional[SuiteRunner] = None) -> ExperimentResult:
    """Run one experiment by id ('E1'..'E9'), manifest attached."""
    from repro.obs.manifest import RunManifest

    key = experiment_id.upper()
    if key not in EXPERIMENTS:
        raise UnknownExperimentError(
            f"unknown experiment {experiment_id!r}; "
            f"available: {sorted(EXPERIMENTS)}"
        )
    runner = runner or SuiteRunner()
    result = EXPERIMENTS[key](runner)
    result.manifest = RunManifest.from_runner(runner, key)
    return result
