"""Functional NVM device model.

The device is a persistent object store at 64-byte-line granularity: a
mapping from (region, line-index) to an *immutable* value (ints, tuples,
or frozen snapshots).  Contents survive :meth:`crash` — that is the whole
point of NVM — while every volatile structure in the system (caches, the
metadata cache, in-flight state) is dropped by the crash manager.

Writes pass through a bounded write-pending queue (WPQ) before they are
architecturally durable.  With a healthy ADR domain the queue always
drains on power failure, so :meth:`crash` is a no-op on content.  Under
an injected residual-energy fault (``repro.faults``), :meth:`crash_drain`
funds queued lines oldest-first at 8 words each: the line where energy
runs out is *torn* (``repro.faults.torn``) and every younger queued
write rolls back.

Timing and energy are accounted by the simulation clock, not here; the
device only counts accesses per region so that write-traffic figures
(Fig. 13/14) can be computed exactly.
"""
from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.common.constants import OFFSET_EMPTY
from repro.common.errors import TamperDetectedError
from repro.faults.registry import ResidualBudget
from repro.faults.torn import WORDS_PER_LINE, TornLine, tear_value
from repro.nvm.layout import MemoryLayout, Region
from repro.obs.tracer import EV_WPQ_DRAIN, NULL_TRACER, Tracer

#: write-pending-queue depth in lines; older entries are retired durable
WPQ_DEPTH = 64


@dataclass
class DeviceStats:
    """Access counters, split by region and direction."""

    reads: Counter = field(default_factory=Counter)
    writes: Counter = field(default_factory=Counter)

    @property
    def total_reads(self) -> int:
        return sum(self.reads.values())

    @property
    def total_writes(self) -> int:
        return sum(self.writes.values())

    def snapshot(self) -> dict[str, int]:
        """Flat dict view for reports."""
        out: dict[str, int] = {}
        for region, n in sorted(self.reads.items(), key=lambda kv: kv[0].value):
            out[f"read_{region.value}"] = n
        for region, n in sorted(self.writes.items(), key=lambda kv: kv[0].value):
            out[f"write_{region.value}"] = n
        out["total_reads"] = self.total_reads
        out["total_writes"] = self.total_writes
        return out


def _torn(region: Region, index: int, line: TornLine) -> TamperDetectedError:
    """The error of reading a torn line."""
    return TamperDetectedError(
        f"torn line at {region.value}[{index}]: only "
        f"{line.words_written}/{WORDS_PER_LINE} words persisted")


class NVMDevice:
    """Persistent line-granular object store with access statistics."""

    def __init__(self, layout: MemoryLayout,
                 tracer: Tracer = NULL_TRACER) -> None:
        self.layout = layout
        self.tracer = tracer
        # region -> line count, flattened out of the layout once: the
        # per-access range check then costs one dict probe instead of a
        # call chain (layout.check stays the error path for messages)
        self._limit: dict[Region, int] = {
            r: layout.region_lines(r) for r in Region}
        self._store: dict[tuple[Region, int], Any] = {}
        self.stats = DeviceStats()
        # (region, index, pre-image) per in-flight write, oldest first;
        # entries pushed off the end are retired (already durable)
        self._wpq: deque[tuple[Region, int, Any]] = deque(maxlen=WPQ_DEPTH)
        self.wpq_torn = 0
        self.wpq_rolled_back = 0

    # ------------------------------------------------------------ access
    def read(self, region: Region, index: int, default: Any = None) -> Any:
        """Read one line; counts as one NVM read.

        A line left torn by an energy-exhausted crash flush is physically
        mixed old/new bytes: its HMAC cannot verify, which the model
        expresses as an immediate tamper detection.
        """
        limit = self._limit.get(region)
        if limit is None or not 0 <= index < limit:
            self.layout.check(region, index)
        self.stats.reads[region] += 1
        value = self._store.get((region, index), default)
        if isinstance(value, TornLine):
            raise _torn(region, index, value)
        return value

    def write(self, region: Region, index: int, value: Any) -> None:
        """Write one line; counts as one NVM write.

        Values must be immutable (int / tuple / frozen snapshot): callers
        that hold mutable working copies must snapshot before persisting,
        which is what makes crash semantics exact.
        """
        limit = self._limit.get(region)
        if limit is None or not 0 <= index < limit:
            self.layout.check(region, index)
        if isinstance(value, (list, dict, set, bytearray)):
            raise TypeError(
                f"NVM stores immutable values only, got {type(value).__name__}")
        self.stats.writes[region] += 1
        self._wpq.append((region, index, self._store.get((region, index))))
        self._store[(region, index)] = value

    def write_through(self, region: Region, index: int, value: Any) -> None:
        """Crash-time write past the pending queue.

        ADR residual-power flushes (record-line cache, register dumps)
        happen *after* the WPQ has been resolved; queueing them again
        would double-charge the energy budget, so they land directly.
        Counted like a normal write.
        """
        self.layout.check(region, index)
        if isinstance(value, (list, dict, set, bytearray)):
            raise TypeError(
                f"NVM stores immutable values only, got {type(value).__name__}")
        self.stats.writes[region] += 1
        self._store[(region, index)] = value

    # -------------------------------------------------- attack / inspect
    def peek(self, region: Region, index: int, default: Any = None) -> Any:
        """Read without statistics — used by attack injectors and tests."""
        limit = self._limit.get(region)
        if limit is None or not 0 <= index < limit:
            self.layout.check(region, index)
        value = self._store.get((region, index), default)
        if isinstance(value, TornLine):
            raise _torn(region, index, value)
        return value

    def peek_lines(self, region: Region, lo: int, hi: int) -> list[Any]:
        """``[peek(region, i) for i in range(lo, hi)]`` with one range
        check and one torn-line scan: the batched read of recovery,
        which rebuilds a node from a contiguous run of lines.

        A range reaching outside the region raises ``peek``'s
        ``LayoutError`` for its first bad index; otherwise the first torn
        line raises ``peek``'s ``TamperDetectedError``."""
        if lo >= hi:
            return []
        limit = self._limit.get(region)
        if limit is None or lo < 0:
            self.layout.check(region, lo)
        elif hi > limit:
            self.layout.check(region, max(lo, limit))
        get = self._store.get
        values = [get((region, i)) for i in range(lo, hi)]
        if TornLine in map(type, values):
            for i, value in enumerate(values, lo):
                if isinstance(value, TornLine):
                    raise _torn(region, i, value)
        return values

    def poke(self, region: Region, index: int, value: Any) -> None:
        """Write without statistics — attack injection / test setup only."""
        self.layout.check(region, index)
        self._store[(region, index)] = value

    def populated(self, region: Region) -> Iterator[tuple[int, Any]]:
        """Iterate (index, value) pairs actually present in ``region``."""
        for (reg, idx), value in self._store.items():
            if reg is region:
                yield idx, value

    def lines(self) -> dict[tuple[Region, int], Any]:
        """Every populated line keyed ``(region, index)``, torn lines
        included: a copy, and a snapshot since values are immutable."""
        return self._store.copy()

    def wpq_snapshot(self) -> tuple[tuple[Region, int], ...]:
        """The queued (region, index) targets, oldest first.

        Two machine states with identical line contents but different
        pending queues crash differently under a finite ADR energy
        budget (unfunded tails are rolled back or torn), so crash-space
        digests must cover the queue, not just the store."""
        return tuple([(region, index) for region, index, _ in self._wpq])

    # ------------------------------------------------------------- crash
    def crash(self) -> None:
        """A power failure with a healthy ADR domain: the WPQ fully
        drains, so NVM content persists exactly as written."""
        self.crash_drain(None)

    def crash_drain(self, budget: ResidualBudget | None) -> None:
        """Resolve the write-pending queue at power failure.

        ``budget=None`` (healthy ADR) drains everything.  Otherwise each
        queued line needs 8 words of residual energy, funded oldest
        first; the line where the budget runs out persists only a prefix
        of its words (torn), and every younger queued write is rolled
        back newest-first — so repeated writes to one line settle to the
        oldest surviving pre-image.
        """
        entries = list(self._wpq)
        self._wpq.clear()
        tr = self.tracer
        torn_before = self.wpq_torn
        rolled_before = self.wpq_rolled_back
        if budget is None:
            if tr.enabled:
                tr.emit(EV_WPQ_DRAIN, entries=len(entries), torn=0,
                        rolled_back=0)
            return
        cut = len(entries)
        torn_words = 0
        for pos in range(len(entries)):
            words = budget.take(WORDS_PER_LINE)
            if words == WORDS_PER_LINE:
                continue
            cut = pos
            torn_words = words
            break
        for pos in range(len(entries) - 1, cut, -1):
            region, index, old = entries[pos]
            self._restore_line(region, index, old)
            self.wpq_rolled_back += 1
        if cut < len(entries):
            region, index, old = entries[cut]
            if torn_words > 0:
                self._store[(region, index)] = self._torn_value(
                    region, old, self._store.get((region, index)),
                    torn_words)
                self.wpq_torn += 1
            else:
                self._restore_line(region, index, old)
                self.wpq_rolled_back += 1
        if tr.enabled:
            tr.emit(EV_WPQ_DRAIN, entries=len(entries),
                    torn=self.wpq_torn - torn_before,
                    rolled_back=self.wpq_rolled_back - rolled_before)

    @staticmethod
    def _torn_value(region: Region, old: Any, new: Any, words: int) -> Any:
        # only offset-record lines are word-wise interpretable; a torn
        # snapshot of any other region must never mix into a plausible
        # value, so it settles to the unreadable TornLine marker
        if region is Region.RECORDS and isinstance(new, tuple):
            base = old if (isinstance(old, tuple)
                           and len(old) == len(new)) \
                else (OFFSET_EMPTY,) * len(new)
            return tear_value(base, new, words)
        return TornLine(old=old, new=new, words_written=words)

    def _restore_line(self, region: Region, index: int, old: Any) -> None:
        if old is None:
            self._store.pop((region, index), None)
        else:
            self._store[(region, index)] = old

    def clone_store(self) -> dict[tuple[Region, int], Any]:
        """Deep-enough copy of the store for golden-state comparisons.

        Values are immutable by construction, so a shallow dict copy is an
        exact snapshot.
        """
        return dict(self._store)

    def restore_store(self, snapshot: dict[tuple[Region, int], Any]) -> None:
        """Restore a snapshot taken with :meth:`clone_store` (tests)."""
        self._store = dict(snapshot)

    # ------------------------------------------------------------ sizing
    def __len__(self) -> int:
        return len(self._store)
