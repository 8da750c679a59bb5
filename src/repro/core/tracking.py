"""Offset-based dirty-node tracking (paper Sec. III-C).

One 4-byte record per metadata-cache line stores the metadata-region
*offset* of the node resident in that line, written when the node first
turns dirty.  16 records share a 64 B record line; the record region in
NVM therefore occupies ``cache_lines / 16`` lines (16 KB for the 256 KB
cache of Table I).

A small LRU cache of record lines (16 lines, Table I) lives in the
memory controller's ADR domain: updates usually hit there and cost no
NVM access; a miss reads the line from NVM and may write back the
evicted line.  On a crash the ADR residual power flushes every cached
dirty record line to NVM, so recovery always sees a complete record set.

Records are *never* updated when a node goes dirty -> clean: recovering a
clean node is harmless (its computed increment is zero, Sec. III-H), and
skipping those updates is part of why Steins' tracking traffic stays low
(Fig. 13).
"""
from __future__ import annotations

from repro.common.constants import OFFSET_EMPTY, OFFSETS_PER_RECORD_LINE
from repro.common.errors import ConfigError
from repro.faults.torn import WORDS_PER_LINE, tear_value
from repro.nvm.device import NVMDevice
from repro.nvm.layout import Region


from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.faults.registry import ResidualBudget
    from repro.sim.clock import MemClock

#: a record line is persisted as a tuple of 16 offsets
RecordLine = tuple[int, ...]

_EMPTY_LINE: RecordLine = tuple([OFFSET_EMPTY] * OFFSETS_PER_RECORD_LINE)


class OffsetRecordTracker:
    """Record-line writer with the ADR-resident line cache."""

    def __init__(self, num_cache_slots: int, cache_lines: int,
                 device: NVMDevice) -> None:
        if num_cache_slots <= 0 or cache_lines <= 0:
            raise ConfigError("tracker sizes must be positive")
        self.num_slots = num_cache_slots
        self.num_record_lines = -(-num_cache_slots // OFFSETS_PER_RECORD_LINE)
        self.capacity = cache_lines
        self.device = device
        # LRU-ordered {line_index: (mutable entries, dirty)}
        self._cached: dict[int, list[int]] = {}
        self._dirty: set[int] = set()
        self.stats = {"record_updates": 0, "line_fills": 0,
                      "line_writebacks": 0, "crash_lost_lines": 0,
                      "crash_torn_lines": 0}

    # ----------------------------------------------------------- update
    def record(self, slot: int, offset: int, clock: "MemClock") -> None:
        """Note that the node at ``offset`` occupies cache line ``slot``
        and just turned dirty.  Timed through ``clock``."""
        if not 0 <= slot < self.num_slots:
            raise ConfigError(f"slot {slot} out of range")
        line_idx, entry = divmod(slot, OFFSETS_PER_RECORD_LINE)
        line = self._cached.get(line_idx)
        if line is None:
            line = self._fill(line_idx, clock)
        else:
            self._cached[line_idx] = self._cached.pop(line_idx)  # touch LRU
        if line[entry] != offset:
            line[entry] = offset
            self._dirty.add(line_idx)
        clock.sram_op()
        self.stats["record_updates"] += 1

    def _fill(self, line_idx: int, clock: "MemClock") -> list[int]:
        """Miss in the ADR line cache: read from NVM, maybe evict.

        The fill does not gate the data write it accompanies (ADR
        guarantees the update becomes durable regardless), so the read
        is issued off the critical path: it occupies the device and
        costs energy/traffic but does not stall the writer (Sec. III-C).
        """
        if len(self._cached) >= self.capacity:
            victim_idx = next(iter(self._cached))
            # write the victim back *before* dropping it from the cache:
            # a crash between the two must still see the line somewhere
            # (either the ADR flush of the cached copy or the NVM copy)
            if victim_idx in self._dirty:
                clock.nvm_write(Region.RECORDS, victim_idx,
                                tuple(self._cached[victim_idx]))
                self.stats["line_writebacks"] += 1
                self._dirty.discard(victim_idx)
            self._cached.pop(victim_idx)
        stored, _done = clock.nvm_read_overlapped(Region.RECORDS, line_idx)
        line = list(stored) if stored is not None else list(_EMPTY_LINE)
        self._cached[line_idx] = line
        self.stats["line_fills"] += 1
        return line

    # ------------------------------------------------------------ crash
    def flush_on_crash(self, budget: "ResidualBudget | None" = None) -> None:
        """ADR residual-power flush of dirty cached record lines.

        Writes land past the write-pending queue (the system is powering
        off; there is no simulated time to account and the WPQ has
        already been resolved).  Under an injected energy budget each
        line costs 8 words: a partially funded line persists a valid
        mixed prefix of its 16 entries, an unfunded line is lost —
        recovery then sees an incomplete record set, which the fault
        campaign classifies as a detected loss, never silent corruption.
        """
        for line_idx in sorted(self._dirty):
            line = tuple(self._cached[line_idx])
            if budget is None:
                self.device.write_through(Region.RECORDS, line_idx, line)
                continue
            words = budget.take(WORDS_PER_LINE)
            if words == 0:
                self.stats["crash_lost_lines"] += 1
                continue
            if words < WORDS_PER_LINE:
                stored = self.device.peek(Region.RECORDS, line_idx)
                base = tuple(stored) if isinstance(stored, tuple) \
                    else _EMPTY_LINE
                line = tear_value(base, line, words)
                self.stats["crash_torn_lines"] += 1
            self.device.write_through(Region.RECORDS, line_idx, line)
        self._dirty.clear()
        self._cached.clear()

    def snapshot(self) -> tuple[tuple[int, tuple[int, ...], bool], ...]:
        """Comparable view of the ADR-resident line cache: ``(line
        index, entries, dirty)`` sorted by line index.  Crash-space
        digests need it because the residual-power flush makes these
        cached lines part of the post-crash record region."""
        return tuple(sorted(
            (line_idx, tuple(entries), line_idx in self._dirty)
            for line_idx, entries in self._cached.items()))

    def reset(self) -> None:
        """Post-recovery reinitialization: clear the record region and
        the ADR cache (recovered nodes are re-recorded as they are
        re-installed dirty)."""
        for line_idx in range(self.num_record_lines):
            if self.device.peek(Region.RECORDS, line_idx) is not None:
                self.device.poke(Region.RECORDS, line_idx, None)
        self._cached.clear()
        self._dirty.clear()

    # --------------------------------------------------------- recovery
    def read_records(self, device: NVMDevice) -> tuple[dict[int, int], int]:
        """Recovery scan: the full ``{cache slot: offset}`` record map.

        Returns ``(records, lines_read)``; the caller charges the reads
        to its recovery report.  Reads bypass the (cleared) ADR cache.
        """
        records: dict[int, int] = {}
        lines = device.peek_lines(Region.RECORDS, 0, self.num_record_lines)
        for line_idx, stored in enumerate(lines):
            if stored is None:
                continue
            for entry, offset in enumerate(stored):
                if offset != OFFSET_EMPTY:
                    records[line_idx * OFFSETS_PER_RECORD_LINE + entry] = \
                        offset
        return records, len(lines)

    def read_all_offsets(self, device: NVMDevice) -> tuple[set[int], int]:
        """Recovery scan: every recorded offset, deduplicated."""
        records, lines_read = self.read_records(device)
        return set(records.values()), lines_read

    def write_record(self, slot: int, offset: int) -> None:
        """Recovery-side record write: read-modify-write the record line
        directly in NVM (the ADR cache is empty after a crash).

        Idempotent — an entry that already names ``offset`` costs no
        write, which is what makes a restarted recovery re-run these
        steps safely.
        """
        if not 0 <= slot < self.num_slots:
            raise ConfigError(f"slot {slot} out of range")
        line_idx, entry = divmod(slot, OFFSETS_PER_RECORD_LINE)
        stored = self.device.peek(Region.RECORDS, line_idx)
        base = list(stored) if isinstance(stored, tuple) \
            else list(_EMPTY_LINE)
        if base[entry] == offset:
            return
        base[entry] = offset
        self.device.write(Region.RECORDS, line_idx, tuple(base))
