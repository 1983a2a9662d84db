"""Sampled redundancy profiler: CI containment, determinism, memory bound.

The acceptance bar for bounded-memory profiling: at a sampling rate of
1/64, every suite workload's *exact* E1 fractions must fall inside the
sampled profiler's own 95 % confidence intervals, and the profiler's
state must stay within a fixed budget regardless of footprint.
"""

import functools
import json
import subprocess
import sys

import pytest

from repro.isa.builder import ProgramBuilder
from repro.machine.machine import Machine, run_to_completion
from repro.profiling.redundancy import RedundantLoadProfiler
from repro.profiling.sampled import SampledRedundantLoadProfiler
from repro.profiling.report import profile_program
from repro.workloads.suite import SUITE


def run_profiler(profiler, build_body, data=None):
    b = ProgramBuilder()
    for name, values in (data or {}).items():
        b.data(name, values)
    with b.function("main"):
        build_body(b)
        b.halt()
    machine = Machine(b.build())
    machine.add_observer(profiler)
    run_to_completion(machine)
    return profiler


def sweep_body(b):
    """Load a 64-word array three times without changing it."""
    with b.scratch(3) as (base, i, v):
        b.la(base, "xs")
        for _ in range(3):
            with b.for_range(i, 0, 64):
                b.ldx(v, base, i)


def test_rate_one_matches_exact_profiler():
    exact = run_profiler(RedundantLoadProfiler(), sweep_body,
                         {"xs": list(range(64))})
    sampled = run_profiler(SampledRedundantLoadProfiler(sample_rate=1),
                           sweep_body, {"xs": list(range(64))})
    assert sampled.total_loads == exact.total_loads
    assert sampled.sampled_loads == exact.total_loads
    assert sampled.sampled_redundant == exact.redundant_loads
    assert sampled.redundant_load_fraction == \
        pytest.approx(exact.redundant_load_fraction)
    assert sampled.load_estimate.contains(exact.redundant_load_fraction)


def test_sampled_classification_is_exact_per_address():
    # for sampled addresses the redundancy decision must equal the exact
    # profiler's: same-value reload redundant, first load never
    sampled = run_profiler(SampledRedundantLoadProfiler(sample_rate=1),
                           sweep_body, {"xs": list(range(64))})
    # three sweeps of 64 addresses: first sweep cold, two fully redundant
    assert sampled.total_loads == 192
    assert sampled.sampled_redundant == 128
    assert sampled.tracked_addresses == 64


def test_memory_budget_is_enforced():
    profiler = run_profiler(
        SampledRedundantLoadProfiler(sample_rate=1,
                                     max_tracked_addresses=10),
        sweep_body, {"xs": list(range(64))})
    assert profiler.tracked_addresses == 10
    assert profiler.tracked_addresses_capped > 0
    # capped loads are excluded from trials, not misclassified
    assert profiler.sampled_loads + profiler.tracked_addresses_capped == \
        profiler.total_loads


@pytest.mark.parametrize("workload", sorted(SUITE))
def test_exact_fraction_inside_sampled_ci(workload):
    wl = SUITE[workload]
    inp = wl.make_input()
    exact = profile_program(wl.build_baseline(inp), workload)
    sampled = profile_program(wl.build_baseline(inp), workload,
                              sample_rate=64)
    loads = sampled.loads
    assert loads.load_estimate.contains(exact.loads.redundant_load_fraction), (
        f"{workload}: exact={exact.loads.redundant_load_fraction:.4f} "
        f"outside {loads.load_estimate!r}")
    assert loads.store_estimate.contains(exact.loads.silent_store_fraction), (
        f"{workload}: exact silent-store fraction outside "
        f"{loads.store_estimate!r}")


def test_sampled_summary_is_superset_of_exact_summary():
    wl = SUITE["gzip"]
    inp = wl.make_input()
    exact_keys = set(profile_program(wl.build_baseline(inp),
                                     "gzip").loads.summary())
    sampled = profile_program(wl.build_baseline(inp), "gzip",
                              sample_rate=64).loads
    summary = sampled.summary()
    assert exact_keys <= set(summary)
    assert summary["sample_rate"] == 64
    for key in ("redundant_load_fraction_ci_low",
                "redundant_load_fraction_ci_high",
                "redundant_load_fraction_ci_width",
                "silent_store_fraction_ci_width"):
        assert key in summary
    provenance = sampled.provenance()
    assert provenance["estimator"] == "cluster-coverage"
    assert 0.0 <= provenance["load_coverage"] <= 1.0


def test_site_estimates_carry_cluster_aware_cis():
    profiler = run_profiler(SampledRedundantLoadProfiler(sample_rate=1),
                            sweep_body, {"xs": list(range(64))})
    sites = profiler.load_sites()  # one static ldx per unrolled sweep
    assert len(sites) == 3
    assert sum(site.dynamic for site in sites) == 192
    for site in sites:
        assert site.sampled_addresses == 64
        estimate = site.estimate
        assert estimate.contains(site.redundant_fraction)
        # count consumers see a scaled estimate
        assert site.redundant == round(site.dynamic * site.redundant_fraction)


def test_sampled_profile_is_deterministic_across_processes():
    wl = SUITE["mcf"]
    inp = wl.make_input()
    local = profile_program(wl.build_baseline(inp), "mcf",
                            sample_rate=64, sample_seed=11).loads.summary()
    script = (
        "import json\n"
        "from repro.profiling.report import profile_program\n"
        "from repro.workloads.suite import SUITE\n"
        "wl = SUITE['mcf']\n"
        "p = profile_program(wl.build_baseline(wl.make_input()), 'mcf',\n"
        "                    sample_rate=64, sample_seed=11)\n"
        "print(json.dumps(p.loads.summary(), sort_keys=True))\n"
    )
    output = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        check=True).stdout
    assert json.loads(output) == json.loads(json.dumps(local))


def _sampled_state(profiler):
    """Everything the sampled profiler keeps, sites in their map order."""
    def site(stats):
        return {slot: getattr(stats, slot)
                for cls in type(stats).__mro__
                for slot in getattr(cls, "__slots__", ())}

    return {
        "summary": profiler.summary(),
        "provenance": profiler.provenance(),
        "loads": [site(stats) for stats in profiler._loads.values()],
        "stores": [site(stats) for stats in profiler._stores.values()],
        "last_loaded": profiler._last_loaded,
        "load_counts": profiler._load_counts,
        "store_counts": profiler._store_counts,
    }


@functools.lru_cache(maxsize=None)
def _stepped(workload, budget):
    """``(program, the step() loop's sampled state)``: the reference
    every run path is compared against, made once per module."""
    from repro.machine.context import ContextState

    wl = SUITE[workload]
    program = wl.build_baseline(wl.make_input(scale=2))
    machine = Machine(program)
    profiler = _sampled_profiler(budget)
    machine.add_observer(profiler)
    main = machine.main_context
    while main.state is ContextState.RUNNING:
        machine.step(main)
    return program, _sampled_state(profiler)


def _sampled_profiler(budget):
    return SampledRedundantLoadProfiler(sample_rate=4, seed=3,
                                        max_tracked_addresses=budget)


@pytest.mark.parametrize("path", ["closure", "compiled", "superblock"])
@pytest.mark.parametrize("workload,budget", [("gzip", 1 << 20),
                                             ("mcf", 1 << 20),
                                             ("mcf", 40)])
def test_sampled_transfers_match_the_hooks(workload, budget, path):
    # Machine.run runs the declared transfer in compiled blocks and the
    # hooks elsewhere; a step() loop calls only the hooks.  Both must end
    # in the same state, the address budget's refusals included.
    from tests.conftest import RUN_PATHS

    program, expected = _stepped(workload, budget)
    machine = Machine(program)
    profiler = _sampled_profiler(budget)
    machine.add_observer(profiler)
    run_to_completion(RUN_PATHS[path](machine))
    assert (machine.compiled_instructions > 0) == (path != "closure")
    assert _sampled_state(profiler) == expected
    if budget < 1 << 20:  # the small budget refuses addresses
        assert expected["summary"]["tracked_addresses_capped"]
