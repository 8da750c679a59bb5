"""Full-system wiring: CPU trace -> cache hierarchy -> secure controller
-> NVM device, plus the reference model used to check that every scheme
returns exactly the data that was written.

The system knows two values for every data block:

* :meth:`~SecureNVMSystem.value_of` — the architectural value (what the
  CPU last stored; may still be dirty in the volatile hierarchy),
* ``model.blocks`` — the value most recently written back to NVM, in
  the one :class:`~repro.oracle.model.ReferenceModel` of what the
  controller accepted.

A store records only the block's new version.  Its value,
``mix64(addr, version)``, is derived when a dirty line leaves the
hierarchy (a write-back or a ``clwb``), so stores that stay in the CPU
caches never pay for the hash.  A block not stored since the last crash
reads as its persisted value: a crash rolls the architectural view back
by forgetting the stores.  A demand fill from NVM must return the
*persisted* value, asserted on every fill, so a whole simulation doubles
as an end-to-end functional test of the scheme under test.
"""
from __future__ import annotations

from collections.abc import Sequence
from functools import lru_cache

from repro.baselines.base import SecureMemoryController
from repro.common.config import SystemConfig
from repro.common.errors import ConfigError
from repro.common.rng import mix64
from repro.integrity.geometry import geometry_for
from repro.mem.hierarchy import CacheHierarchy, MemOp, MemoryRequest
from repro.nvm.device import NVMDevice
from repro.nvm.energy import EnergyMeter
from repro.nvm.layout import MemoryLayout, build_layout
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.oracle.model import ReferenceModel
from repro.schemes import controller_types
from repro.sim.clock import MemClock
from repro.sim.stats import RunResult
from repro.workloads.trace import TraceArrays

#: {scheme: controller class}, a registry view in registration order;
#: plugins land here (and everywhere downstream) via
#: :func:`repro.schemes.register_scheme`, never by editing this module
SCHEMES: dict[str, type[SecureMemoryController]] = controller_types()


@lru_cache(maxsize=32)
def make_layout(cfg: SystemConfig) -> MemoryLayout:
    """Region sizes implied by a system configuration, memoized (the
    config and the layout are both frozen)."""
    geometry = geometry_for(cfg.num_data_blocks, cfg.security)
    cache_lines = cfg.security.metadata_cache.num_lines
    # STAR's multi-layer bitmap: one bit per tree node, summarized 512:1.
    bitmap_lines = 0
    n = geometry.total_nodes
    while True:
        lines = -(-n // 512)
        bitmap_lines += lines
        if lines == 1:
            break
        n = lines
    return build_layout(
        data_lines=cfg.num_data_blocks,
        tree_lines=geometry.total_nodes,
        metadata_cache_lines=cache_lines,
        shadow_lines=cache_lines,
        bitmap_lines=bitmap_lines,
    )


class SecureNVMSystem:
    """One simulated machine running one scheme."""

    def __init__(self, scheme: str, cfg: SystemConfig,
                 tracer: Tracer = NULL_TRACER) -> None:
        if scheme not in SCHEMES:
            raise ConfigError(
                f"unknown scheme {scheme!r}; pick one of {sorted(SCHEMES)}")
        self.scheme = scheme
        self.cfg = cfg
        self.tracer = tracer
        self.device = NVMDevice(make_layout(cfg), tracer=tracer)
        self.meter = EnergyMeter(cfg.energy)
        self.clock = MemClock(cfg, self.device, self.meter, tracer=tracer)
        self.hierarchy = CacheHierarchy(cfg.hierarchy)
        self.controller: SecureMemoryController = SCHEMES[scheme](
            cfg, self.device, self.clock)
        #: what the controller accepted (module docstring)
        self.model = ReferenceModel()
        #: {block: version of its latest store} for blocks stored since
        #: the last crash
        self._stored: dict[int, int] = {}
        #: the same for stores lost to (or persisted before) a crash, so
        #: a block's versions keep counting across crashes
        self._crashed_versions: dict[int, int] = {}
        self.accesses = 0

    def value_of(self, block_addr: int) -> int:
        """Architectural value of a block: what the CPU last stored, or
        the persisted value when it was not stored since the last crash."""
        version = self._stored.get(block_addr)
        if version is None:
            return self.model.blocks.get(block_addr, 0)
        return mix64(block_addr, version)

    # ------------------------------------------------------------- run
    def store(self, block_addr: int, flush: bool = False) -> None:
        """CPU store: gives the block a fresh deterministic value.

        With ``flush=True`` the store is followed by a ``clwb`` —
        the persistent-workload idiom — so the value reaches the secure
        controller immediately instead of waiting for an LLC eviction.
        """
        self._drive((True,), (block_addr,), (0,), flush)

    def load(self, block_addr: int) -> None:
        self._drive((False,), (block_addr,), (0,), False)

    def _serve(self, requests: list[MemoryRequest]) -> None:
        """Carry one access's memory requests to the controller: a
        write-back sends the block's architectural value, a fill is
        checked against the persisted one."""
        for request in requests:
            line = request.line_addr
            if request.op is MemOp.WRITE:
                self._write_back(line)
                continue
            plaintext = self.controller.read_data(line)
            expected = self.model.blocks.get(line, 0)
            if plaintext != expected:
                raise AssertionError(
                    f"scheme {self.scheme!r} returned wrong data "
                    f"for block {line}: {plaintext} != {expected}")

    def _write_back(self, block_addr: int) -> None:
        """A dirty line leaves the hierarchy (eviction or ``clwb``)."""
        value = self.value_of(block_addr)
        self.controller.write_data(block_addr, value)
        self.model.write(block_addr, value)

    def advance(self, gap_cycles: int) -> None:
        """Compute time between memory accesses."""
        self.clock.advance_cycles(gap_cycles)

    def run_stream(self, trace: TraceArrays,
                   flush_writes: bool = False) -> None:
        """Drive a whole trace through the system (batched hot path).

        Equivalent to per-access ``advance``/``store``/``load`` calls,
        which run the same loop one access at a time; the golden stats
        suite compares the two.
        """
        self._drive(*trace.columns, flush_writes)

    def _drive(self, is_write_col: Sequence[bool],
               address_col: Sequence[int], gap_col: Sequence[int],
               flush_writes: bool) -> None:
        """The one access loop.  Cycle costs (compute gaps + cache-hit
        latencies) accumulate in a plain int and are flushed to the
        clock only when a controller operation — the only consumer of
        ``now_ps`` — is about to run.  Integer time makes the deferred
        sum bit-identical to eager per-access advances; the win is
        skipping per-access clock bookkeeping for the (overwhelmingly
        common) cache-hit accesses in between.
        """
        clock = self.clock
        access = self.hierarchy.access
        clwb = self.hierarchy.clwb
        serve = self._serve
        stored = self._stored
        crashed_versions = self._crashed_versions
        pending_cycles = 0
        n = len(address_col)
        for i in range(n):
            addr = address_col[i]
            is_write = is_write_col[i]
            pending_cycles += gap_col[i]
            if is_write:
                stored[addr] = (stored.get(addr)
                                or crashed_versions.get(addr, 0)) + 1
            result = access(addr, is_write)
            pending_cycles += result.cycles
            if result.requests:
                clock.advance_cycles(pending_cycles)
                pending_cycles = 0
                serve(result.requests)
            if is_write and flush_writes and clwb(addr):
                if pending_cycles:
                    clock.advance_cycles(pending_cycles)
                    pending_cycles = 0
                self._write_back(addr)
        if pending_cycles:
            clock.advance_cycles(pending_cycles)
        self.accesses += n

    # ----------------------------------------------------------- crash
    def crash(self) -> None:
        """Power failure: volatile state is lost; ADR does its job.

        Under an armed fault plan the residual-power budget is drawn
        down in ADR priority order: the device's write-pending queue
        drains first (possibly tearing the line on the energy boundary),
        then the controller's ADR domain flushes from whatever remains.
        """
        from repro.faults.registry import active_plan

        plan = active_plan()
        budget = plan.begin_crash_flush() if plan is not None else None
        self.clock.drain_writes()   # in-flight writes join the WPQ
        self.hierarchy.clear()
        self.device.crash_drain(budget)
        self.controller.crash()
        # architecturally, unflushed stores are gone
        self._crashed_versions.update(self._stored)
        self._stored.clear()

    def recover(self):
        """Run the scheme's recovery; returns its RecoveryReport."""
        return self.controller.recover()

    def verify_all_persisted(self) -> int:
        """Read back every persisted block through the secure path and
        compare against the reference model.  Returns blocks checked."""
        blocks = self.model.blocks
        for addr in sorted(blocks):
            plaintext = self.controller.read_data(addr)
            if plaintext != blocks[addr]:
                raise AssertionError(
                    f"block {addr}: {plaintext} != {blocks[addr]}")
        return len(blocks)

    # ----------------------------------------------------------- stats
    def result(self, workload: str) -> RunResult:
        c = self.controller
        return RunResult(
            scheme=self.scheme,
            workload=workload,
            exec_time_ns=self.clock.now_ns,
            data_reads=c.stats.data_reads,
            data_writes=c.stats.data_writes,
            avg_read_latency_ns=c.stats.avg_read_ns,
            avg_write_latency_ns=c.stats.avg_write_ns,
            nvm_write_traffic=self.device.stats.total_writes,
            nvm_read_traffic=self.device.stats.total_reads,
            energy_nj=self.meter.total_nj,
            metadata_cache_hit_rate=c.metacache.stats.hit_rate,
            detail={
                "max_read_latency_ns": c.stats.max_read_latency_ns,
                "max_write_latency_ns": c.stats.max_write_latency_ns,
                **{f"extra_{k}": v for k, v in c.stats.extra.items()},
            },
        )
