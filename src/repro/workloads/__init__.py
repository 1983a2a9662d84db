"""The evaluation workload suite.

Fifteen kernels modeled on the C SPEC CPU2000 benchmarks the paper
evaluates, each re-implementing the specific computation pattern the
paper's DTT conversion targets (see DESIGN.md's workload table).  Every
workload provides a baseline build, a DTT build (program + trigger specs),
a seeded input generator, and a pure-Python reference implementation used
to verify that both builds compute exactly the same observable output.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "base": ("DttBuild", "Workload", "WorkloadInput", "verify_workload"),
    "suite": ("SUITE", "get_workload", "workload_names"),
})
