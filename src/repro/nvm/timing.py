"""NVM timing: PCM latency model and the 64-entry write queue.

The memory controller is modelled as a serial resource (one Optane-style
DIMM per controller, as the paper's scalability section describes:
requests to the same DIMM are processed serially).  Reads stall the CPU
for their full latency.  Writes are *posted*: the CPU only stalls when
the write queue is full, but every queued write still occupies the device
for ``tWR`` when it drains, so write-heavy phases back-pressure reads —
the first-order behaviour that produces the paper's write-latency and
execution-time gaps.

Each line access charges one kernel, ``read`` or ``write``; a bisect
retires completed writes, as the queue is sorted (writes start at or
after the never-decreasing device free time and all take tWR).

All bookkeeping here is **integer picoseconds** (see
:mod:`repro.common.units`): timestamps, completion times, and the
accumulated latency totals are exact ints; nanosecond floats exist only
on the reporting properties of :class:`TimingStats`.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

from repro.common.config import NVMTimingConfig
from repro.common.units import ns_from_ps


@dataclass
class TimingStats:
    """Aggregate latency observations (exact integer picoseconds)."""

    read_count: int = 0
    read_latency_ps: int = 0
    write_count: int = 0
    write_latency_ps: int = 0
    write_stall_ps: int = 0
    row_hits: int = 0
    row_misses: int = 0

    # Reporting boundary: ns views of the exact ps accumulators.
    @property
    def read_latency_ns(self) -> float:
        return ns_from_ps(self.read_latency_ps)

    @property
    def write_latency_ns(self) -> float:
        return ns_from_ps(self.write_latency_ps)

    @property
    def write_stall_ns(self) -> float:
        return ns_from_ps(self.write_stall_ps)

    @property
    def avg_read_ns(self) -> float:
        return self.read_latency_ns / self.read_count if self.read_count else 0.0

    @property
    def avg_write_ns(self) -> float:
        return self.write_latency_ns / self.write_count if self.write_count else 0.0


class NVMTimingModel:
    """Serial-device timing with a bounded posted-write queue.

    Device occupancy is tracked as ``_device_free_at`` (integer ps).  The
    write queue holds completion times of outstanding writes; an arriving
    write whose queue is full stalls the issuer until the oldest
    completes.  ``_open_rows`` is the open-row LRU dict, oldest first.
    """

    def __init__(self, cfg: NVMTimingConfig) -> None:
        self.cfg = cfg
        self.stats = TimingStats()
        self.last_row_hit = False  # outcome of the most recent read
        self._open_rows: dict[int, None] = {}
        self._row_capacity = cfg.row_buffer_rows
        self._queue_entries = cfg.write_queue_entries
        self._device_free_at = 0
        self._queue: list[int] = []  # completion times (ps), ascending
        # converted once; the hot path never touches the ns floats
        self._read_hit_ps = cfg.read_hit_ps
        self._read_miss_ps = cfg.read_miss_ps
        self._write_ps = cfg.write_ps
        self._channel_hold_ps = cfg.channel_hold_ps

    # ------------------------------------------------------------- reads
    def read(self, now_ps: int, row: int) -> int:
        """Issue a read at ``now_ps``; returns its completion time (ps).

        Reads have priority over queued writes but cannot preempt the
        write currently occupying the device.
        """
        q = self._queue
        if q and q[0] <= now_ps:  # retire completed writes
            del q[:bisect_right(q, now_ps)]
        rows = self._open_rows
        stats = self.stats
        if row in rows:
            del rows[row]  # re-inserted below as most recently used
            self.last_row_hit = True
            stats.row_hits += 1
            latency = self._read_hit_ps
        else:
            if len(rows) >= self._row_capacity:
                del rows[next(iter(rows))]
            self.last_row_hit = False
            stats.row_misses += 1
            latency = self._read_miss_ps
        rows[row] = None
        free = self._device_free_at
        done = (now_ps if now_ps > free else free) + latency
        self._device_free_at = done
        stats.read_count += 1
        stats.read_latency_ps += done - now_ps
        return done

    # ------------------------------------------------------------ writes
    def write(self, now_ps: int, row: int) -> tuple[int, int]:
        """Post a write at ``now_ps``.

        Returns ``(issuer_free_at, completion_time)`` in ps: the issuer
        may proceed at ``issuer_free_at`` (== ``now_ps`` unless the queue
        was full); the line is durable at ``completion_time``.
        """
        q = self._queue
        if q and q[0] <= now_ps:  # retire completed writes
            del q[:bisect_right(q, now_ps)]
        stats = self.stats
        stall_until = now_ps
        if len(q) >= self._queue_entries:
            # Queue full: the issuer waits for the oldest write to retire.
            stall_until = q[0]
            stats.write_stall_ps += stall_until - now_ps
            del q[:bisect_right(q, stall_until)]
        rows = self._open_rows
        if row in rows:
            del rows[row]
        elif len(rows) >= self._row_capacity:
            del rows[next(iter(rows))]
        rows[row] = None
        free = self._device_free_at
        start = stall_until if stall_until > free else free
        # The cell write takes the full tWR to become durable, but with
        # multiple banks the shared channel is only held for a fraction.
        self._device_free_at = start + self._channel_hold_ps
        done = start + self._write_ps
        q.append(done)
        stats.write_count += 1
        stats.write_latency_ps += done - now_ps
        return stall_until, done

    # ----------------------------------------------------------- helpers
    def drain_all(self) -> int:
        """Flush the queue completely; returns the time (ps) the channel
        is free, before the last posted write is durable when
        ``bank_parallelism`` > 1 (a write holds the channel for only
        ``tWR / bank_parallelism``).

        Used by the ADR model on crash: residual-power drains the write
        queue and ADR-domain lines into the medium.
        """
        done = self._device_free_at
        self._queue.clear()
        return done

    @property
    def queue_depth(self) -> int:
        return len(self._queue)
