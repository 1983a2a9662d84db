"""Cycle-approximate SMT/CMP timing model.

The timing model drives the functional machine one instruction at a time
and charges cycles around it: shared per-core issue bandwidth across SMT
contexts, per-class functional-unit latencies, cache-hierarchy latencies
for memory operations, and branch-misprediction penalties from a gshare
predictor, over LRU caches and ideal instruction fetch.  The named
configurations of :mod:`repro.timing.params` differ only in core and
context counts.  It is the substrate on which the paper's speedups are
measured (simulated cycles, immune to host-interpreter overhead).

It is deliberately *approximate* — an in-order issue model with hidden
L1-hit latency rather than a full out-of-order pipeline — because the
paper's conclusions rest on relative cycle counts between the baseline and
DTT builds of the same kernel, which this model preserves (see DESIGN.md,
"Substitutions").
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "params": ("CoreParams", "SystemConfig", "named_config"),
    "branch": ("BranchPredictor",),
    "core": ("SmtCore",),
    "stats": ("EnergyModel", "TimingResult"),
    "system": ("TimingSimulator",),
})
