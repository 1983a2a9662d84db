"""Redundancy profiling — the paper's §2 motivation study.

Two analyses, both implemented as machine observers:

* :class:`~repro.profiling.redundancy.RedundantLoadProfiler` — the paper's
  headline measurement: the fraction of dynamic loads that fetch *redundant
  data* (same value from the same address as that static load's previous
  execution; the paper reports 78 % on average across the C SPEC
  benchmarks).  Also measures silent stores, which is what the DTT
  same-value filter exploits.

* :class:`~repro.profiling.slices.RedundancyTaintAnalyzer` — propagates
  redundancy forward through registers and memory to estimate the fraction
  of *all* dynamic instructions that constitute redundant computation
  (the computation DTT can skip).

Attached to a machine, both run under ``Machine.run``'s batch loop and
its compiled blocks, and so does the bounded-memory
:class:`~repro.profiling.sampled.SampledRedundantLoadProfiler`.  Each
declares its analysis as a shadow transfer
(:class:`~repro.machine.events.Shadow`), which the machine generates
inline after every instruction's effect in the compiled blocks, so a
profiled functional run calls no hook there: only the instructions no
block retires (uncompiled PCs, hand-backs and the engine opcodes) run on
the step handlers, which call the hooks, and the hooks make the same
update.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "redundancy": ("LoadSiteStats", "RedundantLoadProfiler", "StoreSiteStats"),
    "sampled": (
        "SampledLoadSiteStats", "SampledRedundantLoadProfiler",
        "SampledStoreSiteStats"),
    "slices": ("RedundancyTaintAnalyzer",),
    "report": ("RedundancyReport", "profile_program"),
})
