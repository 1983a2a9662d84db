"""Set-associative cache: geometry, hits/misses, LRU order, dirty lines,
invariants."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.cache import Cache, CacheParams


def small_cache(lines=8, assoc=2, line_words=4):
    return Cache(CacheParams("test", lines, assoc, line_words))


# -- geometry validation ------------------------------------------------------


def test_params_validate_power_of_two_line():
    with pytest.raises(ValueError):
        CacheParams("x", 8, 2, line_words=3)


def test_params_validate_assoc_divides_lines():
    with pytest.raises(ValueError):
        CacheParams("x", 9, 2)


def test_params_validate_power_of_two_sets():
    with pytest.raises(ValueError):
        CacheParams("x", 12, 2)  # 6 sets


def test_params_derived_sizes():
    p = CacheParams("x", 128, 4, 16)
    assert p.num_sets == 32
    assert p.size_words == 2048


# -- basic behavior -------------------------------------------------------------


def test_first_access_misses_then_hits():
    c = small_cache()
    assert c.access(0, False) is False
    assert c.access(0, False) is True
    assert c.stats.misses == 1
    assert c.stats.hits == 1


def test_same_line_words_share_a_hit():
    c = small_cache(line_words=4)
    c.access(0, False)
    assert c.access(3, False) is True  # same 4-word line
    assert c.access(4, False) is False  # next line


def test_lru_eviction_within_set():
    # direct-mapped: 4 lines, assoc 1, line 4 words -> sets index by line%4
    c = small_cache(lines=4, assoc=1)
    c.access(0, False)       # line 0 -> set 0
    c.access(16, False)      # line 4 -> set 0, evicts line 0
    assert c.stats.evictions == 1
    assert c.access(0, False) is False  # line 0 was evicted


def test_associativity_holds_conflicting_lines():
    c = small_cache(lines=8, assoc=2)  # 4 sets
    c.access(0, False)    # line 0, set 0
    c.access(16, False)   # line 4, set 0
    assert c.access(0, False) is True
    assert c.access(16, False) is True
    assert c.stats.evictions == 0


# -- LRU replacement -------------------------------------------------------------
# one set of three ways, 4-word lines: addresses 0, 4, 8, 12 are lines 0-3


def test_lru_evicts_least_recent():
    c = small_cache(lines=3, assoc=3)
    for address in (0, 4, 8):
        c.access(address, False)
    c.access(0, False)        # line 0 becomes most recent
    c.access(12, False)       # evicts line 1, the least recent
    assert c.stats.evictions == 1
    assert not c.contains(4)
    assert c.contains(0) and c.contains(8) and c.contains(12)


def test_fill_uses_free_ways_before_evicting():
    c = small_cache(lines=3, assoc=3)
    c.access(0, False)
    c.access(4, False)
    c.invalidate(0)           # frees a way
    c.access(8, False)
    c.access(12, False)       # both fill free ways
    assert c.stats.evictions == 0
    assert c.resident_lines() == 3


def test_refill_after_invalidate_is_most_recent():
    c = small_cache(lines=3, assoc=3)
    for address in (0, 4, 8):
        c.access(address, False)
    c.invalidate(0)
    c.access(0, False)        # refilled: now the most recent
    c.access(12, False)       # evicts line 1
    assert c.contains(0)
    assert not c.contains(4)


def test_sets_are_independent():
    c = small_cache(lines=4, assoc=2)  # 2 sets: even lines, odd lines
    c.access(0, False)        # line 0, set 0
    c.access(8, False)        # line 2, set 0
    c.access(4, False)        # line 1, set 1
    c.access(0, False)        # set 0: line 2 is now least recent
    c.access(12, False)       # line 3, set 1: fills without evicting
    assert c.stats.evictions == 0
    c.access(16, False)       # line 4, set 0: evicts line 2, not line 1
    assert not c.contains(8)
    assert c.contains(0) and c.contains(4) and c.contains(12)


def test_dirty_eviction_counts_writeback():
    c = small_cache(lines=4, assoc=1)
    c.access(0, True)     # write-allocate, dirty
    c.access(16, False)   # evicts dirty line
    assert c.stats.writebacks == 1


def test_clean_eviction_has_no_writeback():
    c = small_cache(lines=4, assoc=1)
    c.access(0, False)
    c.access(16, False)
    assert c.stats.writebacks == 0


def test_write_hit_marks_dirty():
    c = small_cache(lines=4, assoc=1)
    c.access(0, False)    # clean fill
    c.access(0, True)     # dirty on write hit
    c.access(16, False)
    assert c.stats.writebacks == 1


def test_invalidate_present_line():
    c = small_cache()
    c.access(0, False)
    assert c.invalidate(2) is True  # same line
    assert c.stats.invalidations == 1
    assert c.access(0, False) is False  # gone


def test_invalidate_absent_line():
    c = small_cache()
    assert c.invalidate(0) is False
    assert c.stats.invalidations == 0


def test_invalidate_dirty_line_writes_back():
    c = small_cache()
    c.access(0, True)
    c.invalidate(0)
    assert c.stats.writebacks == 1


def test_contains_is_side_effect_free():
    c = small_cache()
    c.access(0, False)
    before = c.stats.accesses
    assert c.contains(0)
    assert not c.contains(100)
    assert c.stats.accesses == before


def test_stats_as_dict_and_miss_rate():
    c = small_cache()
    c.access(0, False)
    c.access(0, False)
    assert c.stats.as_dict()["hits"] == 1
    assert c.stats.miss_rate == 0.5


def test_miss_rate_of_empty_cache_is_zero():
    assert small_cache().stats.miss_rate == 0.0


# -- invariants (property-based) ---------------------------------------------------


@given(st.lists(st.tuples(st.integers(0, 4095),
                          st.booleans()), max_size=300))
@settings(max_examples=50, deadline=None)
def test_cache_invariants_under_random_traffic(accesses):
    c = small_cache(lines=16, assoc=4, line_words=8)
    for address, is_write in accesses:
        c.access(address, is_write)
    # conservation: every access is a hit or a miss
    assert c.stats.hits + c.stats.misses == len(accesses)
    # occupancy never exceeds capacity
    assert c.resident_lines() <= c.params.num_lines
    # evictions can't exceed misses
    assert c.stats.evictions <= c.stats.misses
    # re-probing everything that's resident must hit
    for address, _ in accesses:
        if c.contains(address):
            assert c.access(address, False) is True


@given(st.lists(st.integers(0, 255), min_size=1, max_size=64))
@settings(max_examples=50, deadline=None)
def test_small_working_set_eventually_all_hits(addresses):
    """Any working set that fits must reach a 100%-hit steady state."""
    c = small_cache(lines=64, assoc=4, line_words=4)
    distinct_lines = {a // 4 for a in addresses}
    per_set = {}
    for line in distinct_lines:
        per_set[line % 16] = per_set.get(line % 16, 0) + 1
    if per_set and max(per_set.values()) > 4:
        return  # some set would thrash; steady state not guaranteed
    for a in addresses:
        c.access(a, False)
    for a in addresses:
        assert c.access(a, False) is True
