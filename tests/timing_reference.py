"""Reference for the NVM timing model: the row buffer as its own class.

``repro.nvm.timing.NVMTimingModel.read``/``write`` are each one kernel
that retires completed writes with a ``bisect_right``, touches the
open-row LRU dict inline and charges the access.  This module keeps the
model they replaced, verbatim apart from the class name: a
:class:`RowBufferModel` object for the open rows, and a ``_drain`` that
walks the write queue.  ``tests/test_timing_reference.py`` requires the
two to agree on every return value, stats field, row outcome, queue
depth and open row.
"""
from __future__ import annotations

from repro.common.config import NVMTimingConfig
from repro.nvm.timing import TimingStats


class RowBufferModel:
    """Tracks open rows to decide read hit/miss latency."""

    def __init__(self, cfg: NVMTimingConfig) -> None:
        self._cfg = cfg
        self._open_rows: dict[int, None] = {}  # insertion-ordered LRU
        self._capacity = cfg.row_buffer_rows

    def access(self, row: int) -> bool:
        """Touch ``row``; returns True on a row-buffer hit."""
        hit = row in self._open_rows
        if hit:
            del self._open_rows[row]
        elif len(self._open_rows) >= self._capacity:
            oldest = next(iter(self._open_rows))
            del self._open_rows[oldest]
        self._open_rows[row] = None
        return hit

    def reset(self) -> None:
        self._open_rows.clear()


class RefTimingModel:
    """Serial-device timing with a bounded posted-write queue.

    Device occupancy is tracked as ``_device_free_at`` (integer ps).  The
    write queue holds completion times of outstanding writes; an arriving
    write whose queue is full stalls the issuer until the oldest
    completes.
    """

    def __init__(self, cfg: NVMTimingConfig) -> None:
        self.cfg = cfg
        self.rows = RowBufferModel(cfg)
        self.stats = TimingStats()
        self.last_row_hit = False  # outcome of the most recent access
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
        self._drain(now_ps)
        hit = self.rows.access(row)
        self.last_row_hit = hit
        if hit:
            latency = self._read_hit_ps
            self.stats.row_hits += 1
        else:
            latency = self._read_miss_ps
            self.stats.row_misses += 1
        start = max(now_ps, self._device_free_at)
        done = start + latency
        self._device_free_at = done
        self.stats.read_count += 1
        self.stats.read_latency_ps += done - now_ps
        return done

    # ------------------------------------------------------------ writes
    def write(self, now_ps: int, row: int) -> tuple[int, int]:
        """Post a write at ``now_ps``.

        Returns ``(issuer_free_at, completion_time)`` in ps: the issuer
        may proceed at ``issuer_free_at`` (== ``now_ps`` unless the queue
        was full); the line is durable at ``completion_time``.
        """
        self._drain(now_ps)
        stall_until = now_ps
        if len(self._queue) >= self.cfg.write_queue_entries:
            # Queue full: the issuer waits for the oldest write to retire.
            stall_until = self._queue[0]
            self.stats.write_stall_ps += stall_until - now_ps
            self._drain(stall_until)
        self.rows.access(row)
        start = max(stall_until, self._device_free_at)
        # The cell write takes the full tWR to become durable, but with
        # multiple banks the shared channel is only held for a fraction.
        self._device_free_at = start + self._channel_hold_ps
        # start times are monotone non-decreasing, so done times are too
        # and the queue stays sorted without an explicit sort
        done = start + self._write_ps
        self._queue.append(done)
        self.stats.write_count += 1
        self.stats.write_latency_ps += done - now_ps
        return stall_until, done

    # ----------------------------------------------------------- helpers
    def _drain(self, now_ps: int) -> None:
        """Retire queued writes that completed by ``now_ps``."""
        q = self._queue
        i = 0
        for i, t in enumerate(q):
            if t > now_ps:
                break
        else:
            i = len(q)
        if i:
            del q[:i]

    def drain_all(self) -> int:
        """Flush the queue completely; returns the time (ps) all writes
        retire.

        Used by the ADR model on crash: residual-power drains the write
        queue and ADR-domain lines into the medium.
        """
        done = self._device_free_at
        self._queue.clear()
        return done

    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    def reset(self) -> None:
        self.rows.reset()
        self.stats = TimingStats()
        self._device_free_at = 0
        self._queue.clear()
