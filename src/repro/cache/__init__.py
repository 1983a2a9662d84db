"""Cache-hierarchy substrate for the timing model.

Set-associative LRU caches (:mod:`repro.cache.cache`) compose into a CMP
hierarchy (:mod:`repro.cache.hierarchy`): one L1D per core, a shared L2,
and DRAM, with write-invalidate coherence between the private L1s.
Instruction fetch is modeled as ideal (the machine's program store is
PC-indexed); this affects the paper's baseline and DTT configurations
identically and is noted in DESIGN.md.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "cache": ("Cache", "CacheParams", "CacheStats"),
    "hierarchy": ("CacheHierarchy", "HierarchyParams"),
})
