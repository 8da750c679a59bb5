"""Three-level CPU cache hierarchy.

The hierarchy filters a workload's memory-access stream down to the LLC
miss/writeback stream that hits the memory controller — the only part of
the pipeline where the compared schemes differ.  Inclusive, write-back,
write-allocate at every level, mirroring the paper's Table I structure.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple

from repro.common.config import HierarchyConfig
from repro.mem.cache import SetAssocCache


class MemOp(enum.Enum):
    READ = "read"
    WRITE = "write"


class MemoryRequest(NamedTuple):
    """A request the hierarchy forwards to the memory controller (a
    tuple: built on every LLC miss and writeback)."""

    op: MemOp
    line_addr: int


@dataclass(slots=True)
class HierarchyResult:
    """Outcome of one CPU access.

    Results for request-free accesses (the common cache-hit case) are
    shared singletons: treat every result as read-only.
    """

    #: core cycles spent in the hierarchy (hit level latency)
    cycles: int
    #: requests for the memory controller, in issue order: writebacks of
    #: evicted dirty lines first, then the demand fill (if LLC missed)
    requests: list[MemoryRequest]


class CacheHierarchy:
    """L1 -> L2 -> L3, inclusive, with write-back of dirty victims.

    :meth:`access` and :meth:`clwb` are one fused kernel over the three
    levels' set dicts (:attr:`SetAssocCache.sets`): an L1 hit is a
    ``pop`` plus a re-insert that returns a shared result, and a miss
    walks L2 and L3 inline, holding each victim as a key and a dirty
    flag.  ``tests/test_hierarchy.py`` drives the kernel against the
    per-level algorithm it replaced (``tests/cache_reference.py``, one
    cache call per level) and requires the same requests in the same
    order, cycles, set contents in LRU order and per-level stats.

    Inclusion holds after every call: a miss fills every level, and an
    L2 or L3 victim is dropped from the levels above it.  So a dirty
    victim written back one level down always hits there (``del``
    raises if that ever stops being true), and the only memory WRITE is
    a dirty L3 victim.  The drop discards the upper copy's dirtiness
    without a writeback; a strict xfail test pins this known data-loss
    gap (docs/performance.md).
    """

    def __init__(self, cfg: HierarchyConfig) -> None:
        self.cfg = cfg
        self.l1 = SetAssocCache(cfg.l1)
        self.l2 = SetAssocCache(cfg.l2)
        self.l3 = SetAssocCache(cfg.l3)
        self._levels = (self.l1, self.l2, self.l3)
        # Preallocated request-free results: most accesses hit a cache
        # level and evict nothing, so the hot path allocates nothing.
        self._hit = (HierarchyResult(cfg.l1_hit_cycles, []),
                     HierarchyResult(cfg.l2_hit_cycles, []),
                     HierarchyResult(cfg.l3_hit_cycles, []))

    def access(self, line_addr: int, is_write: bool) -> HierarchyResult:
        """Run one CPU load/store through the hierarchy."""
        l1 = self.l1
        s1 = l1.sets[line_addr % l1.num_sets]
        dirty = s1.pop(line_addr, None)
        if dirty is not None:
            s1[line_addr] = dirty or is_write
            l1.stats.hits += 1
            return self._hit[0]

        l2 = self.l2
        stats = l1.stats
        stats.misses += 1
        if len(s1) >= l1.ways:
            victim = next(iter(s1))
            victim_dirty = s1.pop(victim)
            stats.evictions += 1
            if victim_dirty:
                # Write-back: the dirty victim is absorbed by L2, where
                # inclusion guarantees it is resident (a hit, to MRU).
                stats.dirty_evictions += 1
                s = l2.sets[victim % l2.num_sets]
                del s[victim]
                s[victim] = True
                l2.stats.hits += 1
        s1[line_addr] = is_write

        l3 = self.l3
        s2 = l2.sets[line_addr % l2.num_sets]
        dirty = s2.pop(line_addr, None)
        if dirty is not None:
            s2[line_addr] = dirty
            l2.stats.hits += 1
            return self._hit[1]
        stats = l2.stats
        stats.misses += 1
        if len(s2) >= l2.ways:
            victim = next(iter(s2))
            victim_dirty = s2.pop(victim)
            stats.evictions += 1
            # Inclusion: an L2 victim leaves L1 too.  Only L2's dirty
            # bit goes down to L3; a dirty L1 copy is lost.
            l1.sets[victim % l1.num_sets].pop(victim, None)
            if victim_dirty:
                stats.dirty_evictions += 1
                s = l3.sets[victim % l3.num_sets]
                del s[victim]
                s[victim] = True
                l3.stats.hits += 1
        s2[line_addr] = False

        s3 = l3.sets[line_addr % l3.num_sets]
        dirty = s3.pop(line_addr, None)
        if dirty is not None:
            s3[line_addr] = dirty
            l3.stats.hits += 1
            return self._hit[2]
        stats = l3.stats
        stats.misses += 1
        # LLC miss: write back a dirty victim, then demand-fill.
        requests: list[MemoryRequest] = []
        if len(s3) >= l3.ways:
            victim = next(iter(s3))
            victim_dirty = s3.pop(victim)
            stats.evictions += 1
            l1.sets[victim % l1.num_sets].pop(victim, None)
            l2.sets[victim % l2.num_sets].pop(victim, None)
            if victim_dirty:
                stats.dirty_evictions += 1
                requests.append(MemoryRequest(MemOp.WRITE, victim))
        s3[line_addr] = False
        requests.append(MemoryRequest(MemOp.READ, line_addr))
        return HierarchyResult(self.cfg.l3_hit_cycles, requests)

    def clwb(self, line_addr: int) -> bool:
        """Cache-line write-back: clear the line's dirty state everywhere.

        Models the ``clwb`` instruction persistent-memory code issues
        after every store; the caller is responsible for pushing the
        value to the memory controller.  Returns True if the line was
        dirty anywhere.  Marking clean is a plain assignment, so the
        line keeps its LRU position.
        """
        was_dirty = False
        for cache in self._levels:
            s = cache.sets[line_addr % cache.num_sets]
            if s.get(line_addr):
                s[line_addr] = False
                was_dirty = True
        return was_dirty

    # ------------------------------------------------------------ crash
    def clear(self) -> None:
        """Volatile caches lose everything on a crash."""
        self.l1.clear()
        self.l2.clear()
        self.l3.clear()
