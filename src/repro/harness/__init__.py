"""Experiment harness: regenerates every table and figure (E1–E8).

Each experiment function returns an
:class:`~repro.harness.results.ExperimentResult` carrying the rows of the
paper artifact it reconstructs plus mechanically-checked *shape claims*
(see DESIGN.md).  ``python -m repro.harness.cli run all`` prints them all;
the ``benchmarks/`` directory wraps one experiment per pytest-benchmark
target.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "results": ("ExperimentResult", "ShapeCheck"),
    "tables": ("ascii_table", "bar_series"),
    "runner": ("SuiteRunner",),
    "experiments": (
        "EXPERIMENTS", "run_experiment", "run_e1_redundant_loads",
        "run_e2_redundant_computation", "run_e3_speedup",
        "run_e4_committed_instructions", "run_e5_context_sensitivity",
        "run_e6_benchmark_table", "run_e7_machine_energy", "run_e8_ablations",
        "run_e9_parallelism"),
    "microbench": ("run_micro_overheads",),
    "sweeps": ("sweep_redundancy", "sweep_speedup"),
})
