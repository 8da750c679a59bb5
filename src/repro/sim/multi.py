"""Multi-controller scalability (paper Sec. IV-F).

"The Optane DIMM connects to the processor's MC.  For Intel's Cascade
Lake processors, each processor has two MCs, each of which supports
three Optane DIMMs.  When multiple clients access different DIMMs, their
requests are executed in parallel in different MCs.  If they initiate
requests to the same DIMM, the requests are processed serially."

This module models exactly that: a :class:`MultiControllerSystem` shards
the block-address space across N independent :class:`SecureNVMSystem`
instances (one secure controller + DIMM each, every one with its own
metadata cache, tree, and recovery state).  Per-client streams to
different shards progress in parallel (system time = max over shards);
colliding streams serialize inside their shard, exactly as Sec. IV-F
describes.
"""
from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.report import RecoveryReport
from repro.common.config import SystemConfig
from repro.common.errors import ConfigError
from repro.common.units import ns_from_ps
from repro.sim.system import SecureNVMSystem


@dataclass(frozen=True)
class MultiRunResult:
    """Aggregate metrics across the memory controllers.

    Times are carried as exact integer picoseconds so sharded runs
    aggregate without per-shard float error relative to a
    single-controller run; the ``*_ns`` properties are the reporting
    boundary.
    """

    num_controllers: int
    #: wall-clock: the slowest controller bounds completion (ps)
    exec_time_ps: int
    #: sum of per-controller busy times (serial-equivalent work, ps)
    total_busy_ps: int
    nvm_write_traffic: int
    energy_nj: float

    @property
    def exec_time_ns(self) -> float:
        return ns_from_ps(self.exec_time_ps)

    @property
    def total_busy_ns(self) -> float:
        return ns_from_ps(self.total_busy_ps)

    @property
    def parallel_speedup(self) -> float:
        """Serial-equivalent time over wall-clock: ~N for disjoint
        clients, ~1 when everything hits one DIMM."""
        return self.total_busy_ns / self.exec_time_ns \
            if self.exec_time_ps else 1.0


class MultiControllerSystem:
    """N secure memory controllers, interleaved by block address."""

    def __init__(self, scheme: str, cfg: SystemConfig,
                 num_controllers: int = 2) -> None:
        if num_controllers <= 0:
            raise ConfigError("need at least one memory controller")
        self.num_controllers = num_controllers
        self.shards = [SecureNVMSystem(scheme, cfg)
                       for _ in range(num_controllers)]

    # ------------------------------------------------------------ route
    def shard_of(self, block_addr: int) -> int:
        """DIMM interleaving: consecutive blocks round-robin across MCs
        (page-granular interleaving would only change the modulus)."""
        return block_addr % self.num_controllers

    def _local(self, block_addr: int) -> tuple[SecureNVMSystem, int]:
        shard = self.shard_of(block_addr)
        return self.shards[shard], block_addr // self.num_controllers

    # ----------------------------------------------------------- access
    def store(self, block_addr: int, flush: bool = False) -> None:
        system, local = self._local(block_addr)
        system.store(local, flush=flush)

    def load(self, block_addr: int) -> None:
        system, local = self._local(block_addr)
        system.load(local)

    def advance(self, gap_cycles: int) -> None:
        for system in self.shards:
            system.advance(gap_cycles)

    # ----------------------------------------------------------- crash
    def crash(self) -> None:
        for system in self.shards:
            system.crash()

    def recover(self) -> list[RecoveryReport]:
        """Each MC recovers its own DIMM's metadata — in parallel on real
        hardware, so recovery time is the max over shards."""
        return [system.recover() for system in self.shards]

    def verify_all_persisted(self) -> int:
        return sum(system.verify_all_persisted() for system in self.shards)

    # ----------------------------------------------------------- stats
    def result(self) -> MultiRunResult:
        times = [system.clock.now_ps for system in self.shards]
        return MultiRunResult(
            num_controllers=self.num_controllers,
            exec_time_ps=max(times),
            total_busy_ps=sum(times),
            nvm_write_traffic=sum(s.device.stats.total_writes
                                  for s in self.shards),
            energy_nj=sum(s.meter.total_nj for s in self.shards),
        )
