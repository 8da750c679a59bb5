"""Configuration dataclasses for the secure-NVM system.

Defaults mirror Table I of the paper:

* 8-core 2 GHz x86 CPU, 32 KB L1, 512 KB L2, 2 MB L3 (all 64 B lines),
* 16 GB DDR-based NVM with PCM timings
  tRCD/tCL/tCWD/tFAW/tWTR/tWR = 48/15/13/50/7.5/300 ns and a 64-entry
  write queue,
* 256 KB 8-way metadata cache, 8/9-level SIT, 40-cycle hash latency,
  128 B non-volatile buffer, 16 KB offset records with 16 record lines
  cached in the memory controller.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

from repro.common import constants as C
from repro.common.errors import ConfigError
from repro.common.units import GB, KB, MB, ps_from_ns


class CounterMode(enum.Enum):
    """Leaf counter-block organisation (paper: -GC vs -SC variants)."""

    GENERAL = "general"  #: 8 x 56-bit counters per leaf (covers 8 blocks)
    SPLIT = "split"      #: 64-bit major + 64 x 6-bit minors (covers 64)


class UpdateScheme(enum.Enum):
    """SIT update policy (Sec. II-C)."""

    LAZY = "lazy"    #: only the parent of an evicted node is updated
    EAGER = "eager"  #: the whole branch is updated on data eviction


@dataclass(frozen=True)
class CacheConfig:
    """Geometry of one set-associative cache."""

    size_bytes: int
    ways: int
    line_bytes: int = C.CACHE_LINE_BYTES

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.ways <= 0 or self.line_bytes <= 0:
            raise ConfigError("cache geometry values must be positive")
        if self.size_bytes % (self.ways * self.line_bytes) != 0:
            raise ConfigError(
                f"cache size {self.size_bytes} is not divisible by "
                f"ways*line ({self.ways}*{self.line_bytes})")

    @property
    def num_lines(self) -> int:
        return self.size_bytes // self.line_bytes

    @property
    def num_sets(self) -> int:
        return self.num_lines // self.ways


@dataclass(frozen=True)
class HierarchyConfig:
    """The CPU-side cache hierarchy (Table I, Processor block)."""

    l1: CacheConfig = field(default_factory=lambda: CacheConfig(32 * KB, 2))
    l2: CacheConfig = field(default_factory=lambda: CacheConfig(512 * KB, 8))
    l3: CacheConfig = field(default_factory=lambda: CacheConfig(2 * MB, 8))
    #: L1/L2/L3 hit latencies in core cycles (conventional values; the paper
    #: fixes only the structure, not hit latencies).
    l1_hit_cycles: int = 2
    l2_hit_cycles: int = 10
    l3_hit_cycles: int = 30


@dataclass(frozen=True)
class NVMTimingConfig:
    """PCM latency model parameters (Table I, DDR-based NVM block)."""

    trcd_ns: float = 48.0
    tcl_ns: float = 15.0
    tcwd_ns: float = 13.0
    tfaw_ns: float = 50.0
    twtr_ns: float = 7.5
    twr_ns: float = 300.0
    write_queue_entries: int = 64
    #: Banks that can absorb cell writes concurrently: a posted write
    #: occupies the shared channel for tWR / banks, while the cell itself
    #: still takes the full tWR to become durable.
    bank_parallelism: int = 4
    #: Row-buffer hit read latency (column access only).
    row_hit_read_ns: float = 15.0
    #: Number of row-buffer entries modelled per device.
    row_buffer_rows: int = 8
    #: Bytes covered by one NVM row (for row-hit modelling).
    row_bytes: int = 4 * KB

    def __post_init__(self) -> None:
        if self.write_queue_entries <= 0:
            raise ConfigError("write queue must have at least one entry")
        if self.bank_parallelism <= 0:
            raise ConfigError("bank parallelism must be positive")
        for name in ("trcd_ns", "tcl_ns", "tcwd_ns", "tfaw_ns",
                     "twtr_ns", "twr_ns", "row_hit_read_ns"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be non-negative")

    @property
    def read_miss_ns(self) -> float:
        """Array read on a row-buffer miss: activate + CAS."""
        return self.trcd_ns + self.tcl_ns

    @property
    def read_hit_ns(self) -> float:
        """Read served from the open row buffer."""
        return self.row_hit_read_ns

    @property
    def write_ns(self) -> float:
        """Full PCM cell write (tWR dominates; paper assumes 300 ns)."""
        return self.twr_ns

    # Exact simulated-time units: the ns figures above are the human
    # configuration surface; the simulator itself runs on these integer
    # picosecond values (converted once, at configuration time).
    @property
    def read_miss_ps(self) -> int:
        """Row-buffer-miss read latency in exact picoseconds."""
        return ps_from_ns(self.trcd_ns) + ps_from_ns(self.tcl_ns)

    @property
    def read_hit_ps(self) -> int:
        """Row-buffer-hit read latency in exact picoseconds."""
        return ps_from_ns(self.row_hit_read_ns)

    @property
    def write_ps(self) -> int:
        """Full PCM cell write (tWR) in exact picoseconds."""
        return ps_from_ns(self.twr_ns)

    @property
    def channel_hold_ps(self) -> int:
        """Shared-channel occupancy of one posted write.

        With multiple banks absorbing cell writes concurrently, the
        channel is held for tWR / banks (floor division: the exact-time
        discipline resolves any sub-ps remainder deterministically, once,
        here).
        """
        return self.write_ps // self.bank_parallelism


@dataclass(frozen=True)
class EnergyConfig:
    """Per-operation energy costs in nanojoules.

    Values follow common PCM modelling practice (array writes are roughly
    an order of magnitude costlier than reads; a pipelined hash unit costs
    far less than an array access).  Only *relative* energy matters for
    Fig. 15/16, and every scheme shares the same cost table.
    """

    nvm_read_nj: float = 2.0
    nvm_write_nj: float = 20.0
    hash_nj: float = 0.5
    aes_nj: float = 0.5
    alu_nj: float = 0.01
    sram_access_nj: float = 0.05


@dataclass(frozen=True)
class SecurityConfig:
    """Secure-memory parameters (Table I, Secure Parameters block)."""

    metadata_cache: CacheConfig = field(
        default_factory=lambda: CacheConfig(256 * KB, 8))
    counter_mode: CounterMode = CounterMode.GENERAL
    update_scheme: UpdateScheme = UpdateScheme.LAZY
    #: Hash (HMAC) latency in core cycles.
    hash_cycles: int = 40
    #: AES OTP-generation latency in core cycles (overlapped with reads).
    aes_cycles: int = 40
    #: On-chip root register width: number of parent counters the root can
    #: hold.  64 reproduces the paper's stated tree heights (9 GC / 8 SC
    #: levels including the root) for 16 GB; see DESIGN.md.
    root_arity: int = 64
    #: Steins non-volatile parent-counter buffer capacity (entries).
    nv_buffer_entries: int = C.NV_BUFFER_ENTRIES
    #: Record lines cached in the memory-controller ADR domain.
    record_cache_lines: int = 16
    #: Secret key for the hash engines (any 64-bit value).
    secret_key: int = 0x5123_5CA1_AB1E_C0DE
    #: Use the cryptographic (blake2) hash engine instead of the fast one.
    cryptographic_hashes: bool = False
    #: Steins leaf-recovery strategy: "echo" (counters stored with the
    #: data HMAC, the paper's default) or "osiris" (stop-loss + trial
    #: decryption, the Sec. V alternative; general counters only).
    leaf_recovery: str = "echo"
    #: Osiris stop-loss window: a dirty leaf is persisted after this many
    #: increments, bounding recovery's trial-decryption search.
    osiris_stop_loss: int = 4

    def __post_init__(self) -> None:
        if self.hash_cycles < 0 or self.aes_cycles < 0:
            raise ConfigError("latencies must be non-negative")
        if self.root_arity < C.TREE_ARITY:
            raise ConfigError("root arity must be at least the tree arity")
        if self.nv_buffer_entries <= 0 or self.record_cache_lines <= 0:
            raise ConfigError("buffer sizes must be positive")
        if self.leaf_recovery not in ("echo", "osiris"):
            raise ConfigError(
                f"unknown leaf recovery strategy {self.leaf_recovery!r}")
        if self.leaf_recovery == "osiris" \
                and self.counter_mode is not CounterMode.GENERAL:
            raise ConfigError(
                "Osiris leaf recovery operates on per-block counters "
                "(general mode); split leaves embed their major in the "
                "data HMAC instead")
        if self.osiris_stop_loss <= 0:
            raise ConfigError("stop-loss window must be positive")

    @property
    def leaf_coverage(self) -> int:
        """Data blocks covered by one leaf counter block."""
        if self.counter_mode is CounterMode.SPLIT:
            return C.MINORS_PER_SPLIT_BLOCK
        return C.GENERAL_COUNTERS_PER_NODE


@dataclass(frozen=True)
class SystemConfig:
    """Top-level configuration bundling all sub-configs."""

    nvm_capacity_bytes: int = 16 * GB
    clock_ghz: float = 2.0
    hierarchy: HierarchyConfig = field(default_factory=HierarchyConfig)
    nvm: NVMTimingConfig = field(default_factory=NVMTimingConfig)
    energy: EnergyConfig = field(default_factory=EnergyConfig)
    security: SecurityConfig = field(default_factory=SecurityConfig)

    def __post_init__(self) -> None:
        if self.nvm_capacity_bytes <= 0:
            raise ConfigError("NVM capacity must be positive")
        if self.nvm_capacity_bytes % C.CACHE_LINE_BYTES != 0:
            raise ConfigError("NVM capacity must be line-aligned")
        if self.clock_ghz <= 0:
            raise ConfigError("clock must be positive")
        if ps_from_ns(1.0 / self.clock_ghz) < 1:
            raise ConfigError(
                f"clock {self.clock_ghz} GHz is faster than the 1 ps "
                "simulated-time resolution")

    # ------------------------------------------------------------ helpers
    @property
    def num_data_blocks(self) -> int:
        """Number of 64 B user-data blocks the NVM capacity holds.

        Like the paper we size the tree for the full capacity; the
        metadata regions are modelled as living alongside (the paper's
        storage-overhead section quantifies them separately).
        """
        return self.nvm_capacity_bytes // C.CACHE_LINE_BYTES

    @property
    def cycle_ps(self) -> int:
        """One core cycle in exact picoseconds (500 ps at Table I's 2 GHz).

        Converted once at configuration time; every cycle-denominated
        cost is an exact integer multiple of this from then on.
        """
        return ps_from_ns(1.0 / self.clock_ghz)

    @property
    def hash_latency_ps(self) -> int:
        return self.security.hash_cycles * self.cycle_ps

    @property
    def aes_latency_ps(self) -> int:
        return self.security.aes_cycles * self.cycle_ps

    @property
    def hash_latency_ns(self) -> float:
        return self.security.hash_cycles / self.clock_ghz

    def with_counter_mode(self, mode: CounterMode) -> "SystemConfig":
        """Return a copy configured for the given leaf counter mode."""
        return replace(self, security=replace(self.security,
                                              counter_mode=mode))

    def with_metadata_cache(self, size_bytes: int,
                            ways: int = 8) -> "SystemConfig":
        """Return a copy with a different metadata cache size."""
        return replace(self, security=replace(
            self.security, metadata_cache=CacheConfig(size_bytes, ways)))


def default_config(counter_mode: CounterMode = CounterMode.GENERAL,
                   capacity_bytes: int = 16 * GB) -> SystemConfig:
    """The paper's Table I configuration."""
    cfg = SystemConfig(nvm_capacity_bytes=capacity_bytes)
    return cfg.with_counter_mode(counter_mode)


def small_config(counter_mode: CounterMode = CounterMode.GENERAL,
                 capacity_bytes: int = 64 * MB,
                 metadata_cache_bytes: int = 16 * KB) -> SystemConfig:
    """A scaled-down configuration for fast tests.

    Keeps every structural ratio of Table I but shrinks capacity and the
    metadata cache so functional tests run in milliseconds.
    """
    cfg = SystemConfig(
        nvm_capacity_bytes=capacity_bytes,
        hierarchy=HierarchyConfig(
            l1=CacheConfig(4 * KB, 2),
            l2=CacheConfig(16 * KB, 4),
            l3=CacheConfig(64 * KB, 8),
        ),
    )
    cfg = cfg.with_counter_mode(counter_mode)
    return cfg.with_metadata_cache(metadata_cache_bytes)
