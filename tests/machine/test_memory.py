"""Memory semantics: zero default, counters, faults, snapshots, and the
dense and sparse regions against a dict reference."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import AlignmentFault, MemoryFault
from repro.machine import memory as memory_module
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
    # compiled blocks and step handlers bind the word list and the
    # written flags; restore must mutate them rather than rebind copies
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


# -- the dense list and the sparse dict against a dict reference -------------

#: the address space and the dense cap of the reference comparison
LIMIT, CAP = 64, 40


class DictMemory:
    """The reference: every written word in one dict, each access
    checked the way the ISA description says."""

    def __init__(self):
        self.words = {}
        self.load_count = self.store_count = 0

    @staticmethod
    def check(address, limit=LIMIT):
        if not isinstance(address, int) or isinstance(address, bool):
            raise AlignmentFault(f"non-integer address {address!r}")
        if not 0 <= address < limit:
            raise MemoryFault(address, "outside address space")

    def load(self, address):
        self.check(address)
        self.load_count += 1
        return self.words.get(address, 0)

    def store(self, address, value):
        self.check(address)
        self.store_count += 1
        self.words[address] = value

    def peek(self, address):
        self.check(address)
        return self.words.get(address, 0)

    def poke(self, address, value):
        self.check(address)
        self.words[address] = value

    def write_block(self, base, values):
        address = base  # a bool base faults on its first word
        for value in values:
            self.poke(address, value)
            address += 1

    def read_block(self, base, count):
        return [self.peek(base + i) for i in range(count)]

    def load_range(self, base, count):
        if not isinstance(base, int) or isinstance(base, bool):
            raise AlignmentFault(f"non-integer address {base!r}")
        if count < 0 or not (0 <= base and base + count <= LIMIT):
            raise MemoryFault(base, "load_range outside address space")
        self.load_count += count
        return [self.words.get(base + i, 0) for i in range(count)]

    def snapshot(self):
        return dict(self.words)

    def restore(self, snapshot):
        self.words = dict(snapshot)


#: word values: ints and floats, the three zeros among them
VALUES = st.one_of(st.sampled_from([0, 0.0, -0.0, 1, -1, 2.5]),
                   st.integers(-10**6, 10**6))


def _addresses(dense):
    """Addresses around 0, the dense length ``dense``, the cap and the
    limit, and bad ones (negative, float, bool)."""
    return st.one_of(
        st.integers(0, 3), st.integers(max(dense - 2, 0), dense + 2),
        st.integers(CAP - 2, CAP + 2), st.integers(LIMIT - 2, LIMIT + 1),
        st.sampled_from([-1, -2, 1.0, 2.5, True, False]))


def _outcome(call):
    """``call()``'s result, or its fault's type, with values by ``repr``
    so ``0``, ``0.0`` and ``-0.0`` differ."""
    try:
        result = call()
    except (AlignmentFault, MemoryFault) as fault:
        return type(fault).__name__
    if isinstance(result, list):
        return [repr(value) for value in result]
    if isinstance(result, dict):
        return {address: repr(value) for address, value in result.items()}
    return repr(result)


def _state(memory):
    return ({a: repr(v) for a, v in memory.snapshot().items()},
            memory.load_count, memory.store_count)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_memory_matches_a_dict_reference_in_both_regions(data):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(memory_module, "DENSE_LIMIT", CAP)
        memory = Memory(limit=LIMIT)
    reference = DictMemory()
    words, written = memory._words, memory._written
    snapshots = [{}]
    for _ in range(data.draw(st.integers(1, 30))):
        op = data.draw(st.sampled_from(
            ["load", "store", "peek", "poke", "write_block", "read_block",
             "load_range", "snapshot", "restore"]))
        address = data.draw(_addresses(len(memory._words)))
        if op in ("store", "poke"):
            args = (address, data.draw(VALUES))
        elif op == "write_block":
            args = (address, data.draw(st.lists(VALUES, max_size=6)))
        elif op in ("read_block", "load_range"):
            args = (address, data.draw(st.integers(-1, 6)))
        elif op == "restore":
            args = (data.draw(st.sampled_from(snapshots)),)
        else:
            args = (address,) if op in ("load", "peek") else ()
        actual = _outcome(lambda: getattr(memory, op)(*args))
        expected = _outcome(lambda: getattr(reference, op)(*args))
        assert actual == expected, (op, args)
        if op == "snapshot":
            snapshots.append(memory.snapshot())
        assert _state(memory) == _state(reference), (op, args)
        assert len(memory) == len(reference.words)
        assert memory.written_range() == (
            (min(reference.words), max(reference.words))
            if reference.words else (0, 0))
        # the bound blocks take stays valid: neither object is replaced
        # and the list never shrinks below a word it held
        assert memory._words is words and memory._written is written
        assert len(words) == len(written) <= CAP
