"""Simulation clock: CPU time, NVM contention, and security-op latencies.

One :class:`MemClock` instance is shared by the cache hierarchy, the
secure memory controller, and the NVM device.  It advances a single
``now_ps`` timestamp in **integer picoseconds** (exact arithmetic — sums
never drift under reordering, which is what lets a batched hot path be
proven byte-identical to the per-access one):

* compute gaps and cache-hit latencies advance it unconditionally,
* NVM *reads* advance it to the read's completion (the CPU stalls),
* NVM *writes* are posted: they only advance it when the 64-entry write
  queue is full (the paper's write-queue model), but their completion
  time is returned so per-operation write latency can be measured,
* hash / AES ops advance it by their pipeline latency when they are on
  the critical path (callers decide; e.g. OTP generation overlaps the
  data read, Sec. II-B).

Energy is charged on the same calls so no operation can be timed but not
metered (or vice versa): each call adds its op count straight to the
meter's :class:`~repro.nvm.energy.EnergyBreakdown`, and joules are
derived from those counts only when reported.  Nanosecond floats appear
only on the ``now_ns`` reporting property and in trace emissions.
"""
from __future__ import annotations

from repro.common.config import SystemConfig
from repro.common.units import ns_from_ps
from repro.nvm.device import NVMDevice
from repro.nvm.energy import EnergyMeter
from repro.nvm.layout import Region
from repro.nvm.timing import NVMTimingModel
from repro.obs.tracer import (
    EV_NVM_READ,
    EV_NVM_WRITE,
    EV_WQ_STALL,
    NULL_TRACER,
    Tracer,
)


class MemClock:
    """Shared simulated-time authority (integer picoseconds)."""

    def __init__(self, cfg: SystemConfig, device: NVMDevice,
                 meter: EnergyMeter, tracer: Tracer = NULL_TRACER) -> None:
        self.cfg = cfg
        self.device = device
        self.meter = meter
        #: the meter's op counters, charged in place (one hop per op);
        #: the controller's data-path kernels charge them directly
        self.energy = meter.breakdown
        self.timing = timing = NVMTimingModel(cfg.nvm)
        self._timing_read = timing.read
        self._timing_write = timing.write
        self._device_read = device.read
        self._device_write = device.write
        self.now_ps = 0
        self.tracer = tracer
        tracer.bind_clock(self)
        self._lines_per_row = max(1, cfg.nvm.row_bytes // 64)
        #: per-unit costs converted to exact ps once, at construction;
        #: the controller's data-path kernels add them to ``now_ps``
        #: inline, as ``hash_op``/``aes_op``/``alu_op`` do
        self.cycle_ps = cfg.cycle_ps
        self.hash_ps = cfg.hash_latency_ps
        self.aes_ps = cfg.aes_latency_ps
        # region base addresses, flattened once: the row computation is
        # per NVM access; index validation happens in the device access
        # that follows every row computation
        self._row_base = {r: device.layout.region_base(r) for r in Region}

    # ------------------------------------------------------------ time
    @property
    def now_ns(self) -> float:
        """Reporting view of the current simulated time."""
        return ns_from_ps(self.now_ps)

    def advance_cycles(self, cycles: int) -> None:
        self.now_ps += cycles * self.cycle_ps

    # ------------------------------------------------------- NVM access
    def nvm_read(self, region: Region, index: int) -> object:
        """Blocking read of one line: stalls until data arrives."""
        issued = self.now_ps
        done = self._timing_read(
            issued, (self._row_base[region] + index) // self._lines_per_row)
        self.now_ps = done
        self.energy.nvm_reads += 1
        tr = self.tracer
        if tr.enabled:
            self._trace_read(tr, region, index, issued, done)
        return self._device_read(region, index)

    def nvm_read_overlapped(self, region: Region, index: int
                            ) -> tuple[object, int]:
        """Read whose latency the caller overlaps with other work.

        Returns ``(value, completion_time_ps)``; ``now_ps`` is *not*
        advanced — once the parallel work is accounted, the caller moves
        ``now_ps`` up to the completion time if it is still ahead.
        """
        issued = self.now_ps
        done = self._timing_read(
            issued, (self._row_base[region] + index) // self._lines_per_row)
        self.energy.nvm_reads += 1
        tr = self.tracer
        if tr.enabled:
            self._trace_read(tr, region, index, issued, done)
        return self._device_read(region, index), done

    def nvm_write(self, region: Region, index: int, value: object) -> int:
        """Posted write; returns the durability (completion) time in ps.

        Advances ``now_ps`` only if the write queue was full.
        """
        issued = self.now_ps
        stall_until, done = self._timing_write(
            issued, (self._row_base[region] + index) // self._lines_per_row)
        self.now_ps = stall_until
        self.energy.nvm_writes += 1
        self._device_write(region, index, value)
        tr = self.tracer
        if tr.enabled:
            stalled = stall_until > issued
            if stalled:
                tr.emit(EV_WQ_STALL, ts_ns=ns_from_ps(stall_until),
                        dur_ns=ns_from_ps(stall_until - issued),
                        depth=self.timing.queue_depth)
            tr.emit(EV_NVM_WRITE, ts_ns=ns_from_ps(done),
                    dur_ns=ns_from_ps(done - issued),
                    region=region.name, index=index, stalled=stalled)
            m = tr.metrics
            m.histogram("nvm.write.latency_ns").observe(
                ns_from_ps(done - issued))
            m.window("nvm.write.traffic", tr.window_ns).observe(
                ns_from_ps(issued))
        return done

    def _trace_read(self, tr: Tracer, region: Region, index: int,
                    issued: int, done: int) -> None:
        tr.emit(EV_NVM_READ, ts_ns=ns_from_ps(done),
                dur_ns=ns_from_ps(done - issued),
                region=region.name, index=index,
                row_hit=self.timing.last_row_hit)
        m = tr.metrics
        m.histogram("nvm.read.latency_ns").observe(ns_from_ps(done - issued))
        m.window("nvm.read.traffic", tr.window_ns).observe(ns_from_ps(issued))

    # --------------------------------------------------- security units
    def hash_op(self, n: int = 1, on_critical_path: bool = True) -> None:
        """n HMAC computations.  Serial when on the critical path; a
        pipelined off-path hash still costs energy but no stall."""
        self.energy.hashes += n
        if on_critical_path and n:
            self.now_ps += n * self.hash_ps

    def aes_op(self, n: int = 1, on_critical_path: bool = True) -> None:
        self.energy.aes_ops += n
        if on_critical_path and n:
            self.now_ps += n * self.aes_ps

    def alu_op(self, n: int = 1, cycles_each: int = 1,
               on_critical_path: bool = True) -> None:
        """Cheap linear-function work (Steins' counter generation)."""
        self.energy.alu_ops += n
        if on_critical_path and n:
            self.now_ps += n * cycles_each * self.cycle_ps

    def sram_op(self, n: int = 1) -> None:
        """On-controller SRAM/register traffic: energy only, no stall."""
        self.energy.sram_accesses += n

    # ----------------------------------------------------------- admin
    def drain_writes(self) -> None:
        """Retire all queued writes (graceful shutdown / ADR flush);
        ``now_ps`` advances to the channel-free time ``drain_all``
        returns, not to the last posted write's completion."""
        done = self.timing.drain_all()
        if done > self.now_ps:
            self.now_ps = done
