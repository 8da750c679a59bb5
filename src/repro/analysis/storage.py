"""Storage-overhead accounting (paper Sec. IV-E) and overflow analysis.

Reproduces the paper's numbers exactly:

* a 16 GB NVM with general counter blocks needs 2 GB of leaf counter
  storage (1/8) plus the intermediate levels; split counters need only
  256 MB (1/64) and one fewer level,
* ASIT needs an extra 1/8 of the metadata cache for per-line cache-tree
  HMACs plus a shadow table the size of the cache; STAR needs 1/64 for
  per-set HMACs plus the dirty bitmap; both need a 64 B NV root register,
* Steins needs no cache-tree: a 64 B LInc register, a 128 B NV buffer,
  and the 16 KB record region (for the 256 KB cache).
"""
from __future__ import annotations

from dataclasses import dataclass

from repro.common.config import CounterMode, SystemConfig, default_config
from repro.common.constants import (
    CACHE_LINE_BYTES,
    LINC_REGISTER_BYTES,
    NV_BUFFER_BYTES,
    OFFSETS_PER_RECORD_LINE,
)
from repro.integrity.geometry import geometry_for


@dataclass(frozen=True)
class StorageBreakdown:
    """Per-scheme storage requirements, in bytes."""

    scheme: str
    counter_mode: str
    tree_height: int
    leaf_bytes: int
    intermediate_bytes: int
    extra_nvm_bytes: int        #: shadow table / bitmap / record region
    extra_cache_bytes: int      #: cache-tree HMAC space inside the cache
    onchip_nv_bytes: int        #: root / LInc / NV-buffer registers

    @property
    def tree_bytes(self) -> int:
        return self.leaf_bytes + self.intermediate_bytes

    def as_dict(self) -> dict[str, object]:
        return {
            "scheme": self.scheme,
            "counter_mode": self.counter_mode,
            "tree_height": self.tree_height,
            "leaf_bytes": self.leaf_bytes,
            "intermediate_bytes": self.intermediate_bytes,
            "tree_bytes": self.tree_bytes,
            "extra_nvm_bytes": self.extra_nvm_bytes,
            "extra_cache_bytes": self.extra_cache_bytes,
            "onchip_nv_bytes": self.onchip_nv_bytes,
        }


def storage_breakdown(variant: str,
                      cfg: SystemConfig | None = None) -> StorageBreakdown:
    """Sec. IV-E accounting for one paper variant name."""
    from repro.sim.runner import VARIANTS  # local import: avoid cycle

    scheme, mode = VARIANTS[variant]
    if cfg is None:
        cfg = default_config()
    cfg = cfg.with_counter_mode(mode)
    geometry = geometry_for(cfg.num_data_blocks, cfg.security)

    leaf_bytes = geometry.level_sizes[0] * CACHE_LINE_BYTES
    intermediate_bytes = sum(geometry.level_sizes[1:]) * CACHE_LINE_BYTES
    cache_bytes = cfg.security.metadata_cache.size_bytes
    cache_lines = cfg.security.metadata_cache.num_lines

    if scheme == "asit":
        # shadow table mirrors the cache; 8 B HMAC per 64 B cache line
        extra_nvm = cache_bytes
        extra_cache = cache_bytes // 8
        onchip = 64 + CACHE_LINE_BYTES  # SIT root slice + cache-tree root
    elif scheme == "star":
        # multi-layer bitmap over the tree; 8 B HMAC per 8-way set
        bitmap_bits = geometry.total_nodes
        extra_nvm = 0
        layer = bitmap_bits
        while True:
            lines = -(-layer // (CACHE_LINE_BYTES * 8))
            extra_nvm += lines * CACHE_LINE_BYTES
            if lines == 1:
                break
            layer = lines
        extra_cache = cache_bytes // 64
        onchip = 64 + CACHE_LINE_BYTES
    elif scheme == "steins":
        record_lines = -(-cache_lines // OFFSETS_PER_RECORD_LINE)
        extra_nvm = record_lines * CACHE_LINE_BYTES
        extra_cache = 0
        onchip = 64 + LINC_REGISTER_BYTES + NV_BUFFER_BYTES
    elif scheme == "scue":
        # only the 8 B Recovery_root register beyond the WB baseline
        extra_nvm = 0
        extra_cache = 0
        onchip = 64 + 8
    elif scheme == "phoenix":
        # one 8 B subtree-sum register per top-level node
        extra_nvm = 0
        extra_cache = 0
        onchip = 64 + geometry.level_sizes[geometry.top_level] * 8
    elif scheme == "secpm":
        # the 8 B persist_root register; the write-through path needs
        # no extra storage (it reuses the tree's own leaf lines)
        extra_nvm = 0
        extra_cache = 0
        onchip = 64 + 8
    else:  # wb
        extra_nvm = 0
        extra_cache = 0
        onchip = 64
    return StorageBreakdown(
        scheme=scheme,
        counter_mode=mode.value,
        tree_height=geometry.height,
        leaf_bytes=leaf_bytes,
        intermediate_bytes=intermediate_bytes,
        extra_nvm_bytes=extra_nvm,
        extra_cache_bytes=extra_cache,
        onchip_nv_bytes=onchip,
    )


def all_storage_breakdowns(cfg: SystemConfig | None = None
                           ) -> list[StorageBreakdown]:
    from repro.sim.runner import VARIANTS

    return [storage_breakdown(v, cfg) for v in VARIANTS]


def leaf_storage_fraction(mode: CounterMode) -> float:
    """Paper: GC leaves need 1/8 of data size; SC leaves need 1/64."""
    return 1 / 8 if mode is CounterMode.GENERAL else 1 / 64
