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

Attached to a machine, both run under ``Machine.run``'s batch loop: each
PC's observed thunk calls their hooks directly, and the taint analyzer
decodes each static instruction once, so a profiled functional run costs
a few hook calls per instruction rather than a full ``Machine.step``.
"""

from repro.profiling.redundancy import (
    LoadSiteStats,
    RedundantLoadProfiler,
    SampledLoadSiteStats,
    SampledRedundantLoadProfiler,
    SampledStoreSiteStats,
    StoreSiteStats,
)
from repro.profiling.slices import RedundancyTaintAnalyzer
from repro.profiling.report import RedundancyReport, profile_program

__all__ = [
    "LoadSiteStats",
    "RedundantLoadProfiler",
    "SampledLoadSiteStats",
    "SampledRedundantLoadProfiler",
    "SampledStoreSiteStats",
    "StoreSiteStats",
    "RedundancyTaintAnalyzer",
    "RedundancyReport",
    "profile_program",
]
