"""Hierarchy: latency composition, per-core L1s, write-invalidate coherence."""

import pytest

from repro.cache.hierarchy import CacheHierarchy, HierarchyParams


def tiny_params(**overrides):
    base = dict(line_words=4, l1_lines=4, l1_associativity=1, l1_latency=2,
                l2_lines=16, l2_associativity=2, l2_latency=10,
                memory_latency=100)
    base.update(overrides)
    return HierarchyParams(**base)


def test_requires_at_least_one_core():
    with pytest.raises(ValueError):
        CacheHierarchy(0)


def test_cold_access_pays_full_latency():
    h = CacheHierarchy(1, tiny_params())
    assert h.access(0, 0, False) == 2 + 10 + 100
    assert h.dram_accesses == 1


def test_l1_hit_latency():
    h = CacheHierarchy(1, tiny_params())
    h.access(0, 0, False)
    assert h.access(0, 0, False) == 2


def test_l2_hit_after_l1_eviction():
    h = CacheHierarchy(1, tiny_params())
    h.access(0, 0, False)      # line 0 -> L1 set 0, L2
    h.access(0, 16, False)     # line 4 -> same L1 set, evicts line 0 from L1
    latency = h.access(0, 0, False)
    assert latency == 2 + 10   # L1 miss, L2 hit
    assert h.dram_accesses == 2


def test_per_core_l1s_are_private():
    h = CacheHierarchy(2, tiny_params())
    h.access(0, 0, False)
    # core 1 misses its own L1 but hits the shared L2
    assert h.access(1, 0, False) == 2 + 10


def test_write_invalidates_other_cores_l1():
    h = CacheHierarchy(2, tiny_params())
    h.access(0, 0, False)  # core 0 caches line 0
    h.access(1, 0, False)  # core 1 caches it too
    h.access(1, 0, True)   # core 1 writes -> invalidate core 0's copy
    assert h.coherence_invalidations == 1
    assert h.access(0, 0, False) == 2 + 10  # core 0 must re-fetch


def test_single_core_skips_coherence():
    h = CacheHierarchy(1, tiny_params())
    h.access(0, 0, True)
    h.access(0, 0, True)
    assert h.coherence_invalidations == 0


def test_write_does_not_invalidate_own_l1():
    h = CacheHierarchy(2, tiny_params())
    h.access(0, 0, True)
    assert h.access(0, 0, False) == 2  # still resident locally


def test_level_stats_structure():
    h = CacheHierarchy(2, tiny_params())
    h.access(0, 0, False)
    stats = h.level_stats()
    assert set(stats) == {"L1.core0", "L1.core1", "L2", "DRAM"}
    assert stats["L1.core0"]["misses"] == 1
    assert stats["DRAM"]["accesses"] == 1


def test_totals():
    h = CacheHierarchy(2, tiny_params())
    h.access(0, 0, False)
    h.access(1, 4, False)
    h.access(0, 0, False)
    assert h.total_l1_accesses() == 3
    assert h.total_l1_misses() == 2


def test_default_params_are_sane():
    params = HierarchyParams()
    assert params.l1_latency < params.l2_latency < params.memory_latency
    assert params.l1_lines < params.l2_lines
