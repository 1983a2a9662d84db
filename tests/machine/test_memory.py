"""Memory semantics: sparse zero-default, counters, faults, snapshots."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import AlignmentFault, MemoryFault
from repro.machine.memory import Memory


def test_untouched_words_read_zero():
    m = Memory()
    assert m.load(123) == 0


def test_store_then_load():
    m = Memory()
    m.store(10, 42)
    assert m.load(10) == 42


def test_counters_track_counted_access_only():
    m = Memory()
    m.store(1, 5)
    m.load(1)
    m.load(2)
    m.peek(1)
    m.poke(3, 7)
    assert m.store_count == 1
    assert m.load_count == 2


def test_negative_address_faults():
    m = Memory()
    with pytest.raises(MemoryFault):
        m.load(-1)
    with pytest.raises(MemoryFault):
        m.store(-5, 0)


def test_address_beyond_limit_faults():
    m = Memory(limit=100)
    with pytest.raises(MemoryFault):
        m.load(100)
    m.load(99)  # in range


def test_non_integer_address_is_alignment_fault():
    m = Memory()
    with pytest.raises(AlignmentFault):
        m.load(1.5)
    with pytest.raises(AlignmentFault):
        m.store(2.0, 1)
    with pytest.raises(AlignmentFault):
        m.peek(True)


def test_block_round_trip():
    m = Memory()
    m.write_block(50, [1, 2.5, 3])
    assert m.read_block(50, 3) == [1, 2.5, 3]
    assert m.read_block(49, 1) == [0]


def _poked(limit, base, values):
    """The words, counters and fault of writing ``values`` one poke at a
    time, the reference for ``write_block``."""
    m = Memory(limit=limit)
    fault = None
    address = base
    try:
        for value in values:
            m.poke(address, value)
            address += 1
    except Exception as exc:  # noqa: BLE001 - the fault is the result
        fault = (type(exc), str(exc))
    return m.snapshot(), m.load_count, m.store_count, fault


@pytest.mark.parametrize("base, values", [
    (0, [1, 2.5, 3]),
    (97, (4, 5, 6)),          # the span ends exactly at the limit
    (98, [7, 8, 9]),          # runs past the limit after two words
    (-2, [1, 2, 3]),          # starts below zero
    (1.5, [1]),               # non-integer base
    (True, [1]),              # bool base
    (100, []),                # empty at the limit
    (150, []),                # empty past the limit
])
def test_write_block_matches_word_by_word_pokes(base, values):
    # the bulk path (a list or tuple) and the per-word path (any other
    # iterable) must leave exactly what per-word pokes leave, partial
    # writes before a fault included
    reference = _poked(100, base, values)
    for given in (values, iter(values)):
        m = Memory(limit=100)
        fault = None
        try:
            m.write_block(base, given)
        except Exception as exc:  # noqa: BLE001 - the fault is the result
            fault = (type(exc), str(exc))
        assert (m.snapshot(), m.load_count, m.store_count,
                fault) == reference


def test_load_range_reads_and_counts():
    m = Memory()
    m.store(10, 1)
    m.store(12, 2.5)
    before = m.load_count
    assert m.load_range(10, 4) == [1, 0, 2.5, 0]
    assert m.load_count == before + 4


def test_load_range_zero_count():
    m = Memory()
    assert m.load_range(5, 0) == []
    assert m.load_count == 0


def test_load_range_faults():
    m = Memory(limit=100)
    with pytest.raises(MemoryFault):
        m.load_range(-1, 2)  # starts below zero
    with pytest.raises(MemoryFault):
        m.load_range(98, 3)  # runs past the limit
    with pytest.raises(MemoryFault):
        m.load_range(5, -1)  # negative count
    with pytest.raises(AlignmentFault):
        m.load_range(1.5, 2)  # non-integer base
    assert m.load_count == 0  # faulting ranges count nothing
    assert m.load_range(98, 2) == [0, 0]  # last two words are in range


def test_restore_is_in_place():
    # the fast path binds the words dict into closures; restore must
    # mutate it rather than rebind a copy
    m = Memory()
    m.store(1, 10)
    snap = m.snapshot()
    words = m._words
    m.store(2, 5)
    m.restore(snap)
    assert m._words is words
    assert m.peek(2) == 0


def test_snapshot_restore():
    m = Memory()
    m.store(1, 10)
    snap = m.snapshot()
    m.store(1, 99)
    m.store(2, 5)
    m.restore(snap)
    assert m.peek(1) == 10
    assert m.peek(2) == 0


def test_snapshot_is_a_copy():
    m = Memory()
    m.store(1, 10)
    snap = m.snapshot()
    snap[1] = -1
    assert m.peek(1) == 10


def test_written_range():
    m = Memory()
    assert m.written_range() == (0, 0)
    m.store(5, 1)
    m.store(100, 1)
    assert m.written_range() == (5, 100)


def test_len_counts_written_words():
    m = Memory()
    m.store(1, 1)
    m.store(1, 2)  # overwrite, still one word
    m.store(2, 3)
    assert len(m) == 2


@given(st.dictionaries(st.integers(0, 1000), st.one_of(
    st.integers(-10**9, 10**9),
    st.floats(allow_nan=False, allow_infinity=False)), max_size=50))
@settings(max_examples=50, deadline=None)
def test_memory_behaves_like_a_dict_with_zero_default(contents):
    m = Memory()
    for address, value in contents.items():
        m.store(address, value)
    for address in range(0, 1001, 37):
        assert m.load(address) == contents.get(address, 0)
    assert len(m) == len(contents)
