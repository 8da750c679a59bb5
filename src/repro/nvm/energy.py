"""Energy accounting (Fig. 15/16).

Every scheme charges the same per-operation costs; schemes differ only in
*how many* of each operation they perform (extra shadow writes for ASIT,
extra hashes for cache-trees, bitmap traffic for STAR, ...), which is
exactly how the paper attributes the energy differences.
"""
from __future__ import annotations

from dataclasses import dataclass

from repro.common.config import EnergyConfig


@dataclass
class EnergyBreakdown:
    """Operation counts; joules are derived lazily from the config."""

    nvm_reads: int = 0
    nvm_writes: int = 0
    hashes: int = 0
    aes_ops: int = 0
    alu_ops: int = 0
    sram_accesses: int = 0

    def total_nj(self, cfg: EnergyConfig) -> float:
        return (self.nvm_reads * cfg.nvm_read_nj
                + self.nvm_writes * cfg.nvm_write_nj
                + self.hashes * cfg.hash_nj
                + self.aes_ops * cfg.aes_nj
                + self.alu_ops * cfg.alu_nj
                + self.sram_accesses * cfg.sram_access_nj)

    def as_dict(self) -> dict[str, int]:
        return {
            "nvm_reads": self.nvm_reads,
            "nvm_writes": self.nvm_writes,
            "hashes": self.hashes,
            "aes_ops": self.aes_ops,
            "alu_ops": self.alu_ops,
            "sram_accesses": self.sram_accesses,
        }


class EnergyMeter:
    """The energy configuration and the :class:`EnergyBreakdown` that
    :class:`~repro.sim.clock.MemClock` charges every operation to."""

    def __init__(self, cfg: EnergyConfig) -> None:
        self.cfg = cfg
        self.breakdown = EnergyBreakdown()

    @property
    def total_nj(self) -> float:
        return self.breakdown.total_nj(self.cfg)
