"""Metadata cache inside the memory controller (Table I: 256 KB, 8-way).

Caches SIT nodes (keyed by their metadata-region offset) with LRU
replacement.  Unlike the generic CPU cache it also tracks, per entry,
the *way* it occupies: Steins keeps one offset record per metadata cache
line, indexed by (set, way) (Sec. III-C), so the physical slot of every
cached node must be stable while it is resident.

Cached nodes are trusted (verified on fill, Sec. II-C) and mutable; NVM
holds immutable snapshots.  A crash clears this cache — that loss is the
entire recovery problem the paper solves.
"""
from __future__ import annotations

from typing import Iterator

from repro.common.config import CacheConfig
from repro.common.errors import ConfigError
from repro.faults.registry import fire
from repro.integrity.node import SITNode
from repro.mem.cache import CacheStats
from repro.obs.tracer import (
    EV_MC_EVICT,
    EV_MC_HIT,
    EV_MC_MISS,
    NULL_TRACER,
    Tracer,
)


class MetadataCache:
    """Set-associative LRU cache of SIT nodes with stable way slots."""

    def __init__(self, cfg: CacheConfig,
                 tracer: Tracer = NULL_TRACER) -> None:
        if cfg.num_sets <= 0:
            raise ConfigError("metadata cache must have at least one set")
        self.cfg = cfg
        self.tracer = tracer
        self.num_sets = cfg.num_sets
        self.ways = cfg.ways
        #: per set: LRU-ordered {offset: (node, dirty, way)}, the first
        #: key the next victim.  Public, like ``SetAssocCache.sets``: the
        #: controller's install kernel checks for a victim and inserts
        #: with one access to the target set.
        self.sets: list[dict[int, tuple[SITNode, bool, int]]] = \
            [dict() for _ in range(self.num_sets)]
        #: per set: the free ways, the next one to fill last.  These
        #: lists (and the set dicts) keep their identity for the cache's
        #: lifetime; ``clear`` refills them in place.
        self.free_ways: list[list[int]] = \
            [list(range(self.ways - 1, -1, -1)) for _ in range(self.num_sets)]
        self.stats = CacheStats()

    # ----------------------------------------------------------- lookup
    def set_index(self, offset: int) -> int:
        return offset % self.num_sets

    def lookup(self, offset: int) -> SITNode | None:
        """Return the cached node (touching LRU) or ``None``.

        Counts a hit/miss, so controllers call it exactly once per
        logical access.
        """
        s = self.sets[offset % self.num_sets]
        # a default instead of a caught KeyError: the miss is the fetch
        # walk's common case, and raising costs more than the lookup
        entry = s.pop(offset, None)
        if entry is None:
            self.stats.misses += 1
            if self.tracer.enabled:
                self.tracer.emit(EV_MC_MISS, offset=offset)
            return None
        s[offset] = entry  # re-insert at MRU
        self.stats.hits += 1
        if self.tracer.enabled:
            self.tracer.emit(EV_MC_HIT, offset=offset)
        return entry[0]

    def peek(self, offset: int) -> SITNode | None:
        """Lookup without LRU or stats side effects (tests, recovery)."""
        entry = self.sets[offset % self.num_sets].get(offset)
        return entry[0] if entry else None

    def contains(self, offset: int) -> bool:
        return offset in self.sets[offset % self.num_sets]

    def is_dirty(self, offset: int) -> bool:
        entry = self.sets[offset % self.num_sets].get(offset)
        return bool(entry and entry[1])

    def way_of(self, offset: int) -> int:
        """The physical way the entry occupies (for offset records)."""
        entry = self.sets[offset % self.num_sets].get(offset)
        if entry is None:
            raise KeyError(f"offset {offset} not cached")
        return entry[2]

    def slot_of(self, offset: int) -> int:
        """Global cache-line slot: set * ways + way (record index)."""
        return self.set_index(offset) * self.ways + self.way_of(offset)

    # ---------------------------------------------------------- insert
    def insert(self, offset: int, node: SITNode, dirty: bool
               ) -> tuple[int, SITNode, bool] | None:
        """Insert a just-fetched (or just-recovered) node as MRU.

        Returns ``(victim_offset, victim_node, victim_dirty)`` when a
        victim had to be evicted, else ``None``.  The caller (controller)
        is responsible for flushing dirty victims *before* calling insert
        if eviction ordering matters; here the victim is simply handed
        back.
        """
        set_idx = offset % self.num_sets
        s = self.sets[set_idx]
        if offset in s:
            raise ConfigError(f"offset {offset} already cached")
        victim: tuple[int, SITNode, bool] | None = None
        free = self.free_ways[set_idx]
        if free:
            way = free.pop()
        else:
            fire("metacache.evict")
            voff = next(iter(s))
            vnode, vdirty, way = s.pop(voff)
            victim = (voff, vnode, vdirty)
            self.stats.evictions += 1
            if vdirty:
                self.stats.dirty_evictions += 1
            if self.tracer.enabled:
                self.tracer.emit(EV_MC_EVICT, offset=voff, dirty=vdirty)
        s[offset] = (node, dirty, way)
        return victim

    def insert_at(self, offset: int, node: SITNode, dirty: bool,
                  slot: int) -> bool:
        """Install at a specific global slot (recovery reinstall).

        Pinning a recovered node to the cache line its offset record
        names keeps the record valid without a fresh write.  Returns
        ``False`` — caller falls back to :meth:`insert` — when the slot
        belongs to another set, its way is occupied, or the offset is
        already cached.
        """
        set_idx, way = divmod(slot, self.ways)
        if set_idx != offset % self.num_sets:
            return False
        s = self.sets[set_idx]
        free = self.free_ways[set_idx]
        if offset in s or way not in free:
            return False
        free.remove(way)
        s[offset] = (node, dirty, way)
        return True

    def victim_candidate(self, offset: int) -> tuple[int, SITNode, bool] | None:
        """LRU entry that :meth:`insert` would evict for ``offset``
        (without evicting)."""
        set_idx = offset % self.num_sets
        if self.free_ways[set_idx]:
            return None
        s = self.sets[set_idx]
        voff = next(iter(s))
        vnode, vdirty, _ = s[voff]
        return (voff, vnode, vdirty)

    # --------------------------------------------------------- mutation
    def mark_dirty(self, offset: int) -> bool:
        """Set the dirty bit; returns True on a clean->dirty transition."""
        s = self.sets[offset % self.num_sets]
        node, dirty, way = s[offset]
        if dirty:
            return False
        s[offset] = (node, True, way)
        return True

    def mark_clean(self, offset: int) -> None:
        s = self.sets[offset % self.num_sets]
        node, _, way = s[offset]
        s[offset] = (node, False, way)

    def remove(self, offset: int) -> SITNode | None:
        """Invalidate an entry, freeing its way (no writeback)."""
        set_idx = offset % self.num_sets
        entry = self.sets[set_idx].pop(offset, None)
        if entry is None:
            return None
        self.free_ways[set_idx].append(entry[2])
        return entry[0]

    # --------------------------------------------------------- contents
    def entries(self) -> Iterator[tuple[int, SITNode, bool]]:
        """All (offset, node, dirty) tuples, set by set."""
        for s in self.sets:
            for offset, (node, dirty, _) in s.items():
                yield offset, node, dirty

    def dirty_entries(self) -> Iterator[tuple[int, SITNode]]:
        for offset, node, dirty in self.entries():
            if dirty:
                yield offset, node

    def dirty_count(self) -> int:
        return sum(1 for _ in self.dirty_entries())

    def set_entries(self, set_idx: int) -> list[tuple[int, SITNode, bool]]:
        """Contents of one set (STAR's set-MAC computation)."""
        return [(off, node, dirty)
                for off, (node, dirty, _) in self.sets[set_idx].items()]

    def __len__(self) -> int:
        return sum(len(s) for s in self.sets)

    # ------------------------------------------------------------ crash
    def clear(self) -> None:
        """Power failure: every cached (possibly dirty) node is lost."""
        for s, free in zip(self.sets, self.free_ways):
            s.clear()
            free[:] = range(self.ways - 1, -1, -1)
