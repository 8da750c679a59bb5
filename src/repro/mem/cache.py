"""Storage of one level of the CPU data-cache hierarchy.

Each of the L1/L2/L3 caches in :class:`repro.mem.hierarchy.CacheHierarchy`
is a :class:`SetAssocCache`: its sets and its :class:`CacheStats`.  A
level tracks only presence and dirtiness, since user data values live
in the reference model / NVM.  The hierarchy's fused access kernel
reads and updates the sets directly; this class only owns them.

Python dicts preserve insertion order, so each set is a dict whose
insertion order *is* the LRU order (the first key is the next victim):
a hit is a ``pop`` plus a re-insert, and marking a line clean is a
plain assignment, which keeps its position.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.common.config import CacheConfig
from repro.common.errors import ConfigError


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    dirty_evictions: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0


class SetAssocCache:
    """One set-associative LRU level mapping integer keys to dirty flags.

    Keys are line addresses; ``key`` lives in ``sets[key % num_sets]``,
    matching a physically indexed cache, and a set holds at most
    ``ways`` keys.
    """

    def __init__(self, cfg: CacheConfig) -> None:
        if cfg.num_sets <= 0:
            raise ConfigError("cache must have at least one set")
        self.cfg = cfg
        self.num_sets = cfg.num_sets
        self.ways = cfg.ways
        self.sets: list[dict[int, bool]] = [dict() for _ in range(self.num_sets)]
        self.stats = CacheStats()

    def dirty_keys(self) -> Iterator[int]:
        for s in self.sets:
            for key, dirty in s.items():
                if dirty:
                    yield key

    def clear(self) -> None:
        """Drop all contents (a crash wiping a volatile cache)."""
        for s in self.sets:
            s.clear()
