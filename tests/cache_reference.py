"""Per-level reference model of the CPU cache hierarchy.

``CacheHierarchy.access``/``clwb`` are one fused kernel over the three
levels' set dicts.  This module keeps the per-level algorithm the
kernel replaced, verbatim: :class:`RefCache` adds the old lookup and
LRU methods on top of :class:`SetAssocCache`'s storage, and
:class:`RefHierarchy` drives three of them through the old
``access``/``_writeback``/``clwb`` (plus ``clear``, for
``tests/system_reference.RefSystem``).  ``tests/test_hierarchy.py``
requires the two to agree on every request, cycle count, set content
(in LRU order) and stats field.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.common.config import HierarchyConfig
from repro.mem.cache import SetAssocCache
from repro.mem.hierarchy import HierarchyResult, MemOp, MemoryRequest


def dirty_lines(*caches: SetAssocCache) -> set[int]:
    """Every line some of ``caches`` hold dirty, read off the set dicts."""
    return {key for cache in caches for s in cache.sets
            for key, dirty in s.items() if dirty}


@dataclass(frozen=True)
class Eviction:
    """A victim pushed out by an insertion."""

    key: int
    dirty: bool


class RefCache(SetAssocCache):
    """Set-associative LRU cache with per-key lookup methods."""

    def contains(self, key: int) -> bool:
        return key in self.sets[key % self.num_sets]

    def is_dirty(self, key: int) -> bool:
        s = self.sets[key % self.num_sets]
        return s.get(key, False)

    def access(self, key: int, make_dirty: bool) -> tuple[bool, Eviction | None]:
        """Touch ``key``; insert on miss.

        Returns ``(hit, eviction)``.  ``eviction`` is the LRU victim when
        the set was full, else ``None``.  On a hit the line is moved to
        MRU and its dirty flag ORed with ``make_dirty``.
        """
        s = self.sets[key % self.num_sets]
        try:
            dirty = s.pop(key)
        except KeyError:
            pass
        else:
            s[key] = dirty or make_dirty
            self.stats.hits += 1
            return True, None
        self.stats.misses += 1
        victim: Eviction | None = None
        if len(s) >= self.ways:
            vkey = next(iter(s))
            vdirty = s.pop(vkey)
            victim = Eviction(vkey, vdirty)
            self.stats.evictions += 1
            if vdirty:
                self.stats.dirty_evictions += 1
        s[key] = make_dirty
        return False, victim

    def touch(self, key: int) -> bool:
        """Move ``key`` to MRU without inserting.  Returns presence."""
        s = self.sets[key % self.num_sets]
        if key not in s:
            return False
        s[key] = s.pop(key)
        return True

    def mark_clean(self, key: int) -> None:
        s = self.sets[key % self.num_sets]
        if key in s:
            # preserve LRU position: plain assignment, no pop/re-insert
            s[key] = False

    def invalidate(self, key: int) -> bool:
        """Drop ``key`` (no writeback).  Returns True if it was present."""
        s = self.sets[key % self.num_sets]
        return s.pop(key, None) is not None

    def keys(self) -> Iterator[int]:
        for s in self.sets:
            yield from s

    def set_contents(self, set_idx: int) -> dict[int, bool]:
        """Copy of one set's {key: dirty} map."""
        return dict(self.sets[set_idx])

    def __len__(self) -> int:
        return sum(len(s) for s in self.sets)


class RefHierarchy:
    """The per-level L1 -> L2 -> L3 algorithm, one cache call per level."""

    def __init__(self, cfg: HierarchyConfig) -> None:
        self.cfg = cfg
        self.l1 = RefCache(cfg.l1)
        self.l2 = RefCache(cfg.l2)
        self.l3 = RefCache(cfg.l3)
        self._hit = (HierarchyResult(cfg.l1_hit_cycles, []),
                     HierarchyResult(cfg.l2_hit_cycles, []),
                     HierarchyResult(cfg.l3_hit_cycles, []))

    def access(self, line_addr: int, is_write: bool) -> HierarchyResult:
        """Run one CPU load/store through the hierarchy."""
        requests: list[MemoryRequest] | None = None

        hit1, ev1 = self.l1.access(line_addr, is_write)
        if ev1 is not None and ev1.dirty:
            # Dirty L1 victim is absorbed by L2 (write-back, inclusive).
            requests = []
            self._writeback(self.l2, ev1.key, requests, self.l3)
        if hit1:
            if requests is None:
                return self._hit[0]
            return HierarchyResult(self.cfg.l1_hit_cycles, requests)

        hit2, ev2 = self.l2.access(line_addr, False)
        if ev2 is not None:
            if self.l1.invalidate(ev2.key) or ev2.dirty:
                # Inclusion: an L2 victim must leave L1 too; its dirtiness
                # (from either level) goes down to L3.
                dirty = ev2.dirty or self.l1.is_dirty(ev2.key)
                if dirty or ev2.dirty:
                    if requests is None:
                        requests = []
                    self._writeback(self.l3, ev2.key, requests, None)
        if hit2:
            if requests is None:
                return self._hit[1]
            return HierarchyResult(self.cfg.l2_hit_cycles, requests)

        hit3, ev3 = self.l3.access(line_addr, False)
        if ev3 is not None:
            self.l1.invalidate(ev3.key)
            self.l2.invalidate(ev3.key)
            if ev3.dirty:
                if requests is None:
                    requests = []
                requests.append(MemoryRequest(MemOp.WRITE, ev3.key))
        if hit3:
            if requests is None:
                return self._hit[2]
            return HierarchyResult(self.cfg.l3_hit_cycles, requests)

        # LLC miss: demand-fill from memory.
        if requests is None:
            requests = [MemoryRequest(MemOp.READ, line_addr)]
        else:
            requests.append(MemoryRequest(MemOp.READ, line_addr))
        return HierarchyResult(self.cfg.l3_hit_cycles, requests)

    def _writeback(self, lower: RefCache, key: int,
                   requests: list[MemoryRequest],
                   lowest: RefCache | None) -> None:
        """Install a dirty victim one level down, cascading dirtiness."""
        hit, ev = lower.access(key, True)
        if ev is not None and ev.dirty:
            if lowest is not None:
                self._writeback(lowest, ev.key, requests, None)
            else:
                requests.append(MemoryRequest(MemOp.WRITE, ev.key))

    def clear(self) -> None:
        """Volatile caches lose everything on a crash."""
        for cache in (self.l1, self.l2, self.l3):
            cache.clear()

    def clwb(self, line_addr: int) -> bool:
        """Clear the line's dirty state everywhere; True if it was dirty."""
        was_dirty = (self.l1.is_dirty(line_addr) or self.l2.is_dirty(line_addr)
                     or self.l3.is_dirty(line_addr))
        self.l1.mark_clean(line_addr)
        self.l2.mark_clean(line_addr)
        self.l3.mark_clean(line_addr)
        return was_dirty
