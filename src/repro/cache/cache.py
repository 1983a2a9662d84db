"""One set-associative, write-back, write-allocate cache.

Addresses are word addresses (the machine's unit); a line holds
``line_words`` words.  The cache stores only tags and dirty bits — data
lives in the functional machine's memory — because the timing model needs
hit/miss outcomes and writeback counts, not contents.
"""

from __future__ import annotations

from typing import Dict, List, Tuple


def _is_power_of_two(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


class CacheParams:
    """Geometry of one cache."""

    __slots__ = ("name", "num_lines", "associativity", "line_words")

    def __init__(
        self,
        name: str,
        num_lines: int,
        associativity: int,
        line_words: int = 16,
    ):
        if not _is_power_of_two(line_words):
            raise ValueError(f"line_words must be a power of two, got {line_words}")
        if num_lines % associativity != 0:
            raise ValueError(
                f"num_lines ({num_lines}) must be a multiple of associativity "
                f"({associativity})"
            )
        num_sets = num_lines // associativity
        if not _is_power_of_two(num_sets):
            raise ValueError(f"number of sets must be a power of two, got {num_sets}")
        self.name = name
        self.num_lines = num_lines
        self.associativity = associativity
        self.line_words = line_words

    @property
    def num_sets(self) -> int:
        return self.num_lines // self.associativity

    @property
    def size_words(self) -> int:
        return self.num_lines * self.line_words

    def __repr__(self) -> str:
        return (
            f"CacheParams({self.name!r}, lines={self.num_lines}, "
            f"assoc={self.associativity}, line={self.line_words}w)"
        )


class CacheStats:
    """Hit/miss/eviction counters for one cache."""

    __slots__ = ("hits", "misses", "evictions", "writebacks", "invalidations")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.writebacks = 0
        self.invalidations = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        total = self.accesses
        return self.misses / total if total else 0.0

    def as_dict(self) -> Dict[str, int]:
        """Counters as a plain dict (for reports and JSON export)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "writebacks": self.writebacks,
            "invalidations": self.invalidations,
        }

    def __repr__(self) -> str:
        return (
            f"CacheStats(hits={self.hits}, misses={self.misses}, "
            f"miss_rate={self.miss_rate:.3f})"
        )


class Cache:
    """Tag store of one cache level, with LRU replacement.

    Each set is a dict from resident tag to dirty bit, kept in recency
    order: the least-recently used line first, the most-recently used
    last.  A hit moves its tag to the end; a miss into a full set evicts
    the first.
    """

    def __init__(self, params: CacheParams):
        self.params = params
        self._set_mask = params.num_sets - 1
        self._line_words = params.line_words
        self._tag_shift = self._set_mask.bit_length()
        self._associativity = params.associativity
        self._sets: List[Dict[int, bool]] = [
            {} for _ in range(params.num_sets)
        ]
        self.stats = CacheStats()

    def _index_tag(self, address: int) -> Tuple[int, int]:
        line = address // self._line_words
        return (line & self._set_mask, line >> self._tag_shift)

    # -- operations ----------------------------------------------------------------

    def access(self, address: int, is_write: bool) -> bool:
        """Look up ``address``; fill on miss.  Returns True on hit.

        A miss that evicts a dirty line counts a writeback; the caller
        (hierarchy) charges the latency of the next level.
        """
        line = address // self._line_words  # _index_tag, inlined
        ways = self._sets[line & self._set_mask]
        tag = line >> self._tag_shift
        dirty = ways.pop(tag, None)
        if dirty is not None:
            self.stats.hits += 1
            ways[tag] = dirty or is_write  # now the most recently used
            return True
        self.stats.misses += 1
        self._fill(ways, tag, is_write)
        return False

    def _fill(self, ways: Dict[int, bool], tag: int, is_write: bool) -> None:
        if len(ways) == self._associativity:
            self.stats.evictions += 1
            if ways.pop(next(iter(ways))):  # the least recently used
                self.stats.writebacks += 1
        ways[tag] = is_write

    def contains(self, address: int) -> bool:
        """Tag-only probe (no stats, no state change)."""
        set_index, tag = self._index_tag(address)
        return tag in self._sets[set_index]

    def invalidate(self, address: int) -> bool:
        """Drop the line holding ``address`` if present (coherence).

        Returns True if a line was invalidated.  A dirty invalidated line
        counts a writeback (the data must reach the shared level).
        """
        set_index, tag = self._index_tag(address)
        dirty = self._sets[set_index].pop(tag, None)
        if dirty is None:
            return False
        if dirty:
            self.stats.writebacks += 1
        self.stats.invalidations += 1
        return True

    def resident_lines(self) -> int:
        """Number of valid lines currently held (for invariant tests)."""
        return sum(len(ways) for ways in self._sets)

    def __repr__(self) -> str:
        return f"Cache({self.params.name!r}, {self.stats!r})"
