"""Word-addressed flat data memory.

DTIR uses a Harvard organization: instructions live in the program object
and are addressed by PC; data memory is a flat, word-addressed space where
each word holds one Python number.  Unwritten words read as integer ``0``,
which matches the zero-initialized ``.bss`` convention the workload
kernels rely on.

Words below :data:`DENSE_LIMIT` live in a list indexed by address, with a
``bytearray`` of written flags beside it; both cover ``[0, n)`` and grow
in place to the extent of the highest word written there, so a program's
data (one range from word 0) costs one list slot per word, and the
generated code reads and writes a word by list index behind one guard on
``n``.  Neither ever shrinks, so a bound a compiled block took stays
valid.  Words from :data:`DENSE_LIMIT` up to :attr:`Memory.limit` (only
tests and wild programs reach them) live in a sparse dict.

Addresses must be non-negative integers below :attr:`Memory.limit`; any
other access raises :class:`~repro.errors.MemoryFault` (or
:class:`~repro.errors.AlignmentFault` for non-integer addresses, which in
this word-addressed model is the moral equivalent of a misaligned access).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple, Union

from repro.errors import AlignmentFault, MemoryFault

Number = Union[int, float]

#: words below this address are dense (a list grown to the written
#: extent); words from it up to the limit are sparse
DENSE_LIMIT = 1 << 20


class Memory:
    """Word-addressed memory with load/store counters: a dense list of
    words from address 0, a sparse dict above :data:`DENSE_LIMIT`."""

    __slots__ = ("_words", "_written", "_sparse", "_dense_limit", "limit",
                 "load_count", "store_count")

    #: default address-space size in words (1 Gi-words)
    DEFAULT_LIMIT = 1 << 30

    def __init__(self, limit: int = DEFAULT_LIMIT):
        #: word ``a`` for every ``a < len(_words)``; unwritten ones are 0
        self._words: List[Number] = []
        #: 1 at every written address of ``_words``, as long as it
        self._written = bytearray()
        #: the written words from :data:`DENSE_LIMIT` up
        self._sparse: Dict[int, Number] = {}
        self._dense_limit = min(DENSE_LIMIT, limit)
        self.limit = limit
        self.load_count = 0
        self.store_count = 0

    # -- single-word access ---------------------------------------------------

    def _checked(self, address, access: str) -> None:
        """Raise the fault of an ``access`` to a bad ``address`` (the
        generated code's guard sends every address it rejects here)."""
        # bool cannot be subclassed, so one class test excludes it
        if not isinstance(address, int) or address.__class__ is bool:
            raise AlignmentFault(f"non-integer address {address!r}")
        if not 0 <= address < self.limit:
            raise MemoryFault(address, f"{access} outside address space")

    def _read(self, address, access: str) -> Number:
        """The word at ``address``, faulting as ``access`` if it is bad."""
        words = self._words
        if not (address.__class__ is int and 0 <= address < len(words)):
            self._checked(address, access)
            if address >= len(words):
                return self._sparse.get(address, 0)
        return words[address]

    def _write(self, address, value: Number, access: str) -> None:
        """Write ``value`` at ``address``, faulting as ``access`` if it is
        bad; a dense address past the list grows it to the address."""
        words = self._words
        if not (address.__class__ is int and 0 <= address < len(words)):
            self._checked(address, access)
            if address >= self._dense_limit:
                self._sparse[address] = value
                return
            self._grow(address + 1)
        words[address] = value
        self._written[address] = 1

    def _grow(self, end: int) -> None:
        """Extend the dense words (unwritten zeros) to cover ``[0, end)``."""
        more = end - len(self._words)
        if more > 0:
            self._words.extend([0] * more)
            self._written.extend(bytes(more))

    def load(self, address: int) -> Number:
        """Read one word; untouched words read as 0."""
        value = self._read(address, "load")
        self.load_count += 1
        return value

    def store(self, address: int, value: Number) -> None:
        """Write one word."""
        self._write(address, value, "store")
        self.store_count += 1

    def peek(self, address: int) -> Number:
        """Read without counting (for engines, debuggers, and checkers)."""
        return self._read(address, "peek")

    def poke(self, address: int, value: Number) -> None:
        """Write without counting (for loaders and test fixtures)."""
        self._write(address, value, "poke")

    # -- block access ------------------------------------------------------------

    def write_block(self, base: int, values: Iterable[Number]) -> None:
        """Write consecutive words starting at ``base`` (uncounted); an
        in-range list or tuple in the dense region is one slice write."""
        if (base.__class__ is int and values.__class__ in (list, tuple)
                and values and 0 <= base
                and base + len(values) <= self._dense_limit):
            end = base + len(values)
            self._grow(end)
            self._words[base:end] = values
            self._written[base:end] = b"\x01" * len(values)
            return
        address = base
        for value in values:
            self.poke(address, value)
            address += 1

    def read_block(self, base: int, count: int) -> List[Number]:
        """Read ``count`` consecutive words starting at ``base`` (uncounted)."""
        if (base.__class__ is int and 0 <= base and count >= 0
                and base + count <= len(self._words)):
            return self._words[base:base + count]
        return [self.peek(base + i) for i in range(count)]

    def load_range(self, base: int, count: int) -> List[Number]:
        """Read ``count`` consecutive words starting at ``base``, *counted*.

        Batched counterpart of :meth:`load`: one bounds check covers the
        whole span and ``load_count`` advances by ``count`` in one update,
        so bulk readback (result verification after a fast-path run, the
        benchmark harness's final-memory checksum) does not pay the
        per-word guard.
        """
        if base.__class__ is not int:
            if not isinstance(base, int) or base.__class__ is bool:
                raise AlignmentFault(f"non-integer address {base!r}")
        if count < 0:
            raise MemoryFault(base, f"negative load_range count {count}")
        if not (0 <= base and base + count <= self.limit):
            raise MemoryFault(base, "load_range outside address space")
        self.load_count += count
        end = base + count
        words = self._words
        n = len(words)
        if end <= n:
            return words[base:end]
        get = self._sparse.get
        return words[base:n] + [get(address, 0)
                                for address in range(max(base, n), end)]

    # -- whole-memory operations --------------------------------------------------

    def snapshot(self) -> Dict[int, Number]:
        """A copy of all written words (for property tests / checkpoints)."""
        words = self._words
        snapshot = {address: words[address]
                    for address, written in enumerate(self._written)
                    if written}
        snapshot.update(self._sparse)
        return snapshot

    def restore(self, snapshot: Dict[int, Number]) -> None:
        """Replace contents with a snapshot taken earlier.

        In place: compiled blocks bind the word list and the written
        flags, and the length they cover, so both objects keep their
        identity and never shrink.
        """
        n = len(self._words)
        self._words[:] = [0] * n
        self._written[:] = bytes(n)
        self._sparse.clear()
        for address, value in snapshot.items():
            self.poke(address, value)

    def written_range(self) -> Tuple[int, int]:
        """(min, max) written addresses, or (0, 0) if nothing was written."""
        written, sparse = self._written, self._sparse
        lo, hi = written.find(1), written.rfind(1)
        if lo < 0:
            return (min(sparse), max(sparse)) if sparse else (0, 0)
        return (lo, max(sparse) if sparse else hi)

    def __len__(self) -> int:
        """Number of words ever written."""
        return self._written.count(1) + len(self._sparse)

    def __repr__(self) -> str:
        return (
            f"Memory({len(self)} words written, "
            f"{self.load_count} loads, {self.store_count} stores)"
        )
