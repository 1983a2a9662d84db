"""Replacement policies for set-associative caches.

A policy instance is attached to one cache and consulted per set.  The
cache identifies ways by index within the set; the policy tracks whatever
recency/insertion metadata it needs, keyed by set index.

All policies are deterministic given their construction arguments —
:class:`RandomPolicy` takes an explicit seed — so simulations are
reproducible.
"""

from __future__ import annotations

import random
from typing import Dict, List


class ReplacementPolicy:
    """Interface: notified on hits and fills, chooses victims."""

    def __init__(self, num_sets: int, associativity: int):
        self.num_sets = num_sets
        self.associativity = associativity

    def on_access(self, set_index: int, way: int) -> None:
        """A hit (or a fill) touched ``way`` of ``set_index``."""
        raise NotImplementedError

    def victim(self, set_index: int) -> int:
        """Choose the way to evict from a full set."""
        raise NotImplementedError

    def reset(self) -> None:
        """Forget all metadata (cache flush)."""
        raise NotImplementedError


class LruPolicy(ReplacementPolicy):
    """Least-recently-used: per-set recency stacks."""

    def __init__(self, num_sets: int, associativity: int):
        super().__init__(num_sets, associativity)
        # most-recent last; lazily created per set
        self._stacks: Dict[int, List[int]] = {}

    def on_access(self, set_index: int, way: int) -> None:
        stack = self._stacks.get(set_index)
        if stack is None:
            self._stacks[set_index] = [way]
        elif stack[-1] != way:  # a repeat hit on the MRU way changes nothing
            if way in stack:
                stack.remove(way)
            stack.append(way)

    def victim(self, set_index: int) -> int:
        stack = self._stacks.get(set_index)
        if not stack:
            return 0
        return stack[0]

    def reset(self) -> None:
        self._stacks.clear()


class FifoPolicy(ReplacementPolicy):
    """First-in-first-out: eviction order is fill order, hits don't matter."""

    def __init__(self, num_sets: int, associativity: int):
        super().__init__(num_sets, associativity)
        self._queues: Dict[int, List[int]] = {}

    def on_access(self, set_index: int, way: int) -> None:
        queue = self._queues.setdefault(set_index, [])
        if way not in queue:
            queue.append(way)

    def victim(self, set_index: int) -> int:
        queue = self._queues.get(set_index)
        if not queue:
            return 0
        way = queue.pop(0)
        queue.append(way)
        return way

    def reset(self) -> None:
        self._queues.clear()


class RandomPolicy(ReplacementPolicy):
    """Uniform-random victim from a seeded generator (reproducible)."""

    def __init__(self, num_sets: int, associativity: int, seed: int = 0):
        super().__init__(num_sets, associativity)
        self.seed = seed
        self._rng = random.Random(seed)

    def on_access(self, set_index: int, way: int) -> None:
        pass  # stateless

    def victim(self, set_index: int) -> int:
        return self._rng.randrange(self.associativity)

    def reset(self) -> None:
        self._rng = random.Random(self.seed)


_POLICIES = {
    "lru": LruPolicy,
    "fifo": FifoPolicy,
    "random": RandomPolicy,
}


def make_policy(name: str, num_sets: int, associativity: int) -> ReplacementPolicy:
    """Construct a policy by name: 'lru', 'fifo', or 'random'."""
    try:
        cls = _POLICIES[name]
    except KeyError:
        raise ValueError(
            f"unknown replacement policy {name!r}; "
            f"choose from {sorted(_POLICIES)}"
        ) from None
    return cls(num_sets, associativity)
