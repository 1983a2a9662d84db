"""CMP cache hierarchy: private L1Ds, shared L2, DRAM.

``access(core_id, address, is_write)`` returns the latency in cycles of
the access and updates all level stats.  Coherence between private L1s is
a simple write-invalidate protocol: a write that hits or fills in one
core's L1 invalidates the line from every other core's L1.  That is the
effect that matters for the paper's CMP configuration (E5b): support
threads running on another core pull shared lines away from the main
thread and start cold.
"""

from __future__ import annotations

from typing import Dict, List

from repro.cache.cache import Cache, CacheParams


class HierarchyParams:
    """Geometry and latencies of the whole hierarchy.

    Defaults approximate the mid-2000s SMT/CMP machines of SMTSIM-era
    evaluations: 32 KiB 4-way L1, 2 MiB 8-way shared L2, ~200-cycle DRAM.
    Sizes are in lines of ``line_words`` words (a word being the DTIR
    memory unit); with 16-word lines the defaults give 512-line (8 K-word)
    L1s and 8192-line (128 K-word) L2 — scaled down ~4x from the real
    machines to match our scaled-down workload footprints, preserving the
    working-set-to-cache ratios that make misses happen.
    """

    __slots__ = (
        "line_words",
        "l1_lines",
        "l1_associativity",
        "l1_latency",
        "l2_lines",
        "l2_associativity",
        "l2_latency",
        "memory_latency",
    )

    def __init__(
        self,
        line_words: int = 16,
        l1_lines: int = 128,
        l1_associativity: int = 4,
        l1_latency: int = 2,
        l2_lines: int = 2048,
        l2_associativity: int = 8,
        l2_latency: int = 12,
        memory_latency: int = 200,
    ):
        self.line_words = line_words
        self.l1_lines = l1_lines
        self.l1_associativity = l1_associativity
        self.l1_latency = l1_latency
        self.l2_lines = l2_lines
        self.l2_associativity = l2_associativity
        self.l2_latency = l2_latency
        self.memory_latency = memory_latency

    def __repr__(self) -> str:
        return (
            f"HierarchyParams(L1 {self.l1_lines}x{self.l1_associativity} "
            f"@{self.l1_latency}cy, L2 {self.l2_lines}x{self.l2_associativity} "
            f"@{self.l2_latency}cy, mem @{self.memory_latency}cy)"
        )


class CacheHierarchy:
    """Private per-core L1s over a shared L2 over DRAM."""

    def __init__(self, num_cores: int, params: HierarchyParams = None):
        if num_cores < 1:
            raise ValueError("hierarchy needs at least one core")
        self.params = params or HierarchyParams()
        p = self.params
        self.l1: List[Cache] = [
            Cache(
                CacheParams(
                    f"L1.core{core}",
                    p.l1_lines,
                    p.l1_associativity,
                    p.line_words,
                )
            )
            for core in range(num_cores)
        ]
        self.l2 = Cache(
            CacheParams("L2", p.l2_lines, p.l2_associativity, p.line_words)
        )
        self.num_cores = num_cores
        self.dram_accesses = 0
        self.coherence_invalidations = 0

    def access(self, core_id: int, address: int, is_write: bool) -> int:
        """Perform one data access; returns its latency in cycles."""
        p = self.params
        l1 = self.l1[core_id]
        latency = p.l1_latency
        if not l1.access(address, is_write):
            latency += p.l2_latency
            if not self.l2.access(address, is_write):
                latency += p.memory_latency
                self.dram_accesses += 1
        if is_write and self.num_cores > 1:
            for other_core, other_l1 in enumerate(self.l1):
                if other_core != core_id and other_l1.invalidate(address):
                    self.coherence_invalidations += 1
        return latency

    # -- reporting ---------------------------------------------------------------

    def level_stats(self) -> Dict[str, Dict[str, int]]:
        """Per-cache stat dictionaries, keyed by cache name."""
        stats = {cache.params.name: cache.stats.as_dict() for cache in self.l1}
        stats["L2"] = self.l2.stats.as_dict()
        stats["DRAM"] = {"accesses": self.dram_accesses}
        return stats

    def total_l1_accesses(self) -> int:
        """Data accesses summed across every core's L1D."""
        return sum(cache.stats.accesses for cache in self.l1)

    def total_l1_misses(self) -> int:
        """Data misses summed across every core's L1D."""
        return sum(cache.stats.misses for cache in self.l1)

    def __repr__(self) -> str:
        return (
            f"CacheHierarchy({self.num_cores} cores, "
            f"L1 misses={self.total_l1_misses()}, "
            f"L2 misses={self.l2.stats.misses}, DRAM={self.dram_accesses})"
        )
