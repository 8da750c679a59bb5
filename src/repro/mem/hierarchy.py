"""Three-level CPU cache hierarchy.

The hierarchy filters a workload's memory-access stream down to the LLC
miss/writeback stream that hits the memory controller — the only part of
the pipeline where the compared schemes differ.  Inclusive, write-back,
write-allocate at every level, mirroring the paper's Table I structure.

:meth:`CacheHierarchy.run` is the segment kernel every caller shares: it
runs a segment's accesses (with a ``clwb`` after each store under
``flush_writes``) and yields the controller calls they make as
``(cycles, line << 2 | kind, index << 32 | k)`` triples, the layout
:class:`~repro.sim.system.SecureNVMSystem` serves and records.
"""
from __future__ import annotations

import enum
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from itertools import accumulate
from typing import NamedTuple

from repro.common.config import HierarchyConfig
from repro.mem.cache import SetAssocCache

#: the kind of a controller call (the low two bits of its second int):
#: a demand fill, a dirty LLC victim, a ``clwb`` write-back, and the
#: segment's end (whose cycles are those after the last call)
READ, WRITE_BACK, CLWB, TAIL = 0, 1, 2, 3


def _clean(levels: tuple[SetAssocCache, ...], line: int) -> bool:
    """Clear ``line``'s dirty bit in every level; True if it was dirty
    anywhere.  A plain assignment, so the line keeps its LRU position."""
    was_dirty = False
    for cache in levels:
        s = cache.sets[line % cache.num_sets]
        if s.get(line):
            s[line] = False
            was_dirty = True
    return was_dirty


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
    """Outcome of one CPU access (:meth:`CacheHierarchy.access`)."""

    #: core cycles spent in the hierarchy (hit level latency)
    cycles: int
    #: requests for the memory controller, in issue order: writebacks of
    #: evicted dirty lines first, then the demand fill (if LLC missed)
    requests: list[MemoryRequest]


class CacheHierarchy:
    """L1 -> L2 -> L3, inclusive, with write-back of dirty victims.

    :meth:`run` is the one kernel: it runs a segment of accesses over
    the three levels' set dicts (:attr:`SetAssocCache.sets`) and yields
    each memory-controller call it makes.  An L1 hit is a ``pop`` plus
    a re-insert; a miss walks L2 and L3 inline, holding each victim as
    a key and a dirty flag.  :meth:`access` is the kernel on one access,
    and :meth:`clwb` the dirty-bit clearing the kernel applies after a
    store under ``flush_writes``.  ``tests/test_hierarchy.py`` drives
    the kernel against the per-level algorithm it replaced
    (``tests/cache_reference.py``, one cache call per level) and
    requires the same calls in the same order, cycles, set contents in
    LRU order and per-level stats.

    Inclusion holds after every access: a miss fills every level, and
    an L2 or L3 victim is dropped from the levels above it.  So a dirty
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

    def run(self, address_col: Sequence[int], is_write_col: Sequence[bool],
            gap_col: Sequence[int], flush_writes: bool,
            counts: dict[int, int]) -> Iterator[tuple[int, int, int]]:
        """Run a segment of accesses, yielding its controller calls.

        Each call is ``(cycles, line << 2 | kind, index << 32 | k)``:
        the core cycles (compute gaps plus hit latencies) since the
        previous call, the line and :data:`READ`, :data:`WRITE_BACK` or
        :data:`CLWB` (after a store when ``flush_writes`` is set and the
        line was dirty), the access index, and ``k``, the segment's
        stores to the line before the call (this access's included for
        a ``CLWB``; 0 for a ``READ``).  A call is yielded only once its
        access's update, and for a ``CLWB`` its marking, is complete,
        so a consumer that stops at a call sees the hierarchy as it was
        at that call.  The last item is :data:`TAIL` with the cycles
        after the last call.

        ``counts`` gets ``{line: stores}`` for the accesses run so far.
        The per-level stats are added when the kernel ends or is closed.
        """
        l1, l2, l3 = self._levels
        sets1, sets2, sets3 = l1.sets, l2.sets, l3.sets
        n1, n2, n3 = l1.num_sets, l2.num_sets, l3.num_sets
        w1, w2, w3 = l1.ways, l2.ways, l3.ways
        cfg = self.cfg
        c1, c2, c3 = cfg.l1_hit_cycles, cfg.l2_hit_cycles, cfg.l3_hit_cycles
        levels = self._levels
        # cumulative compute gaps: the cycles through access i are
        # cum[i] plus each level's hit latency times its demand hits
        cum = list(accumulate(gap_col))
        # demand accesses served by L1, L2 and L3 (an LLC miss counts
        # at L3), so access i's index is their sum before it, and LLC
        # misses; then evictions and dirty evictions per level
        d1 = d2 = d3 = m3 = 0
        e1 = de1 = e2 = de2 = e3 = de3 = 0
        last = 0
        try:
            for addr, is_write in zip(address_col, is_write_col):
                if is_write:
                    counts[addr] = counts.get(addr, 0) + 1
                s1 = sets1[addr % n1]
                dirty = s1.pop(addr, None)
                if dirty is not None:
                    s1[addr] = dirty or is_write
                    d1 += 1
                else:
                    if len(s1) >= w1:
                        victim = next(iter(s1))
                        e1 += 1
                        if s1.pop(victim):
                            # Write-back: the dirty victim is absorbed by
                            # L2, where inclusion guarantees it is
                            # resident (a hit, to MRU).
                            de1 += 1
                            s = sets2[victim % n2]
                            del s[victim]
                            s[victim] = True
                    s1[addr] = is_write

                    s2 = sets2[addr % n2]
                    dirty = s2.pop(addr, None)
                    if dirty is not None:
                        s2[addr] = dirty
                        d2 += 1
                    else:
                        if len(s2) >= w2:
                            victim = next(iter(s2))
                            e2 += 1
                            # Inclusion: an L2 victim leaves L1 too.  Only
                            # L2's dirty bit goes down to L3; a dirty L1
                            # copy is lost.
                            sets1[victim % n1].pop(victim, None)
                            if s2.pop(victim):
                                de2 += 1
                                s = sets3[victim % n3]
                                del s[victim]
                                s[victim] = True
                        s2[addr] = False

                        s3 = sets3[addr % n3]
                        dirty = s3.pop(addr, None)
                        if dirty is not None:
                            s3[addr] = dirty
                            d3 += 1
                        else:
                            # LLC miss: write back a dirty victim, then
                            # demand-fill.
                            written = None
                            if len(s3) >= w3:
                                victim = next(iter(s3))
                                e3 += 1
                                sets1[victim % n1].pop(victim, None)
                                sets2[victim % n2].pop(victim, None)
                                if s3.pop(victim):
                                    de3 += 1
                                    written = victim
                            s3[addr] = False
                            i = d1 + d2 + d3
                            d3 += 1
                            m3 += 1
                            t = cum[i] + c1 * d1 + c2 * d2 + c3 * d3
                            if written is not None:
                                yield (t - last, written << 2 | WRITE_BACK,
                                       i << 32 | counts.get(written, 0))
                                last = t
                            yield t - last, addr << 2, i << 32
                            last = t
                if is_write and flush_writes and _clean(levels, addr):
                    i = d1 + d2 + d3 - 1
                    t = cum[i] + c1 * d1 + c2 * d2 + c3 * d3
                    yield t - last, addr << 2 | CLWB, i << 32 | counts[addr]
                    last = t
            n = d1 + d2 + d3
            t = cum[n - 1] + c1 * d1 + c2 * d2 + c3 * d3 if n else 0
            yield t - last, TAIL, n << 32
        finally:
            for stats, (hits, misses, evictions, dirty_evictions) in zip(
                    (l1.stats, l2.stats, l3.stats),
                    ((d1, d2 + d3, e1, de1), (d2 + de1, d3, e2, de2),
                     (d3 - m3 + de2, m3, e3, de3))):
                stats.hits += hits
                stats.misses += misses
                stats.evictions += evictions
                stats.dirty_evictions += dirty_evictions

    def access(self, line_addr: int, is_write: bool) -> HierarchyResult:
        """Run one CPU load/store through the hierarchy."""
        *calls, (tail, _, _) = self.run((line_addr,), (is_write,), (0,),
                                        False, {})
        return HierarchyResult(
            sum(cycles for cycles, _, _ in calls) + tail,
            [MemoryRequest(MemOp.WRITE if op & 3 else MemOp.READ, op >> 2)
             for _, op, _ in calls])

    def clwb(self, line_addr: int) -> bool:
        """Cache-line write-back: clear the line's dirty state everywhere.

        Models the ``clwb`` instruction persistent-memory code issues
        after every store; the caller is responsible for pushing the
        value to the memory controller.  Returns True if the line was
        dirty anywhere.  Marking clean is a plain assignment, so the
        line keeps its LRU position.
        """
        return _clean(self._levels, line_addr)

    # ------------------------------------------------------------ crash
    def clear(self) -> None:
        """Volatile caches lose everything on a crash."""
        self.l1.clear()
        self.l2.clear()
        self.l3.clear()
