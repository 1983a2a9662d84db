"""Word-addressed flat data memory.

DTIR uses a Harvard organization: instructions live in the program object
and are addressed by PC; data memory is a flat, word-addressed space where
each word holds one Python number.  Unwritten words read as integer ``0``
(the loader zero-fills nothing; sparse storage makes untouched regions
free), which matches the zero-initialized ``.bss`` convention the workload
kernels rely on.

Addresses must be non-negative integers below :attr:`Memory.limit`; any
other access raises :class:`~repro.errors.MemoryFault` (or
:class:`~repro.errors.AlignmentFault` for non-integer addresses, which in
this word-addressed model is the moral equivalent of a misaligned access).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple, Union

from repro.errors import AlignmentFault, MemoryFault

Number = Union[int, float]


class Memory:
    """Sparse word-addressed memory with load/store counters."""

    __slots__ = ("_words", "limit", "load_count", "store_count")

    #: default address-space size in words (1 Gi-words)
    DEFAULT_LIMIT = 1 << 30

    def __init__(self, limit: int = DEFAULT_LIMIT):
        self._words: Dict[int, Number] = {}
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

    def load(self, address: int) -> Number:
        """Read one word; untouched words read as 0."""
        self._checked(address, "load")
        self.load_count += 1
        return self._words.get(address, 0)

    def store(self, address: int, value: Number) -> None:
        """Write one word."""
        self._checked(address, "store")
        self.store_count += 1
        self._words[address] = value

    def peek(self, address: int) -> Number:
        """Read without counting (for engines, debuggers, and checkers)."""
        self._checked(address, "peek")
        return self._words.get(address, 0)

    def poke(self, address: int, value: Number) -> None:
        """Write without counting (for loaders and test fixtures)."""
        self._checked(address, "poke")
        self._words[address] = value

    # -- block access ------------------------------------------------------------

    def write_block(self, base: int, values: Iterable[Number]) -> None:
        """Write consecutive words starting at ``base`` (uncounted); an
        in-range list or tuple takes one bounds check and one update."""
        if (base.__class__ is int and values.__class__ in (list, tuple)
                and 0 <= base and base + len(values) <= self.limit):
            self._words.update(zip(range(base, base + len(values)), values))
            return
        address = base
        for value in values:
            self.poke(address, value)
            address += 1

    def read_block(self, base: int, count: int) -> List[Number]:
        """Read ``count`` consecutive words starting at ``base`` (uncounted)."""
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
        get = self._words.get
        return [get(address, 0) for address in range(base, base + count)]

    # -- whole-memory operations --------------------------------------------------

    def snapshot(self) -> Dict[int, Number]:
        """A copy of all written words (for property tests / checkpoints)."""
        return dict(self._words)

    def restore(self, snapshot: Dict[int, Number]) -> None:
        """Replace contents with a snapshot taken earlier.

        In place: compiled blocks bind the words dict, so the
        dict object's identity must survive a restore.
        """
        words = self._words
        words.clear()
        words.update(snapshot)

    def written_range(self) -> Tuple[int, int]:
        """(min, max) written addresses, or (0, 0) if nothing was written."""
        if not self._words:
            return (0, 0)
        return (min(self._words), max(self._words))

    def __len__(self) -> int:
        """Number of words ever written."""
        return len(self._words)

    def __repr__(self) -> str:
        return (
            f"Memory({len(self._words)} words written, "
            f"{self.load_count} loads, {self.store_count} stores)"
        )
