"""Analytic recovery-time model (paper Fig. 17, Sec. IV-D).

Following the paper's methodology: at recovery every metadata cache line
is assumed dirty, each NVM read-and-verify costs 100 ns, and compute is
negligible next to the fetches.  The per-node read counts below follow
directly from each scheme's recovery algorithm:

* **ASIT** reads its shadow entry, the stale tree copy, and one
  verification companion per cache line (3 reads/line),
* **STAR** reads the 8 children for their parent-counter echoes, the
  stale node, and amortized bitmap lines (~9-10 reads/node),
* **Steins-GC** reads 8 children, the stale node, parent-chain
  verification reads, and the amortized record lines (~12 reads/node),
* **Steins-SC** reads all 64 covered data blocks per *leaf* (the split
  counter block is regenerated from the per-block counter echoes) —
  intermediate nodes still cost ~11; leaves dominate the cache mix.

The functional recovery in this repository counts its actual reads
(:class:`~repro.baselines.report.RecoveryReport`).  ``tests/test_analysis.py``
unit-tests this model; no test compares it with the functional recovery
yet (ROADMAP item 2).
"""
from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.report import READ_VERIFY_NS
from repro.common.constants import (
    GENERAL_COUNTERS_PER_NODE,
    MINORS_PER_SPLIT_BLOCK,
    OFFSETS_PER_RECORD_LINE,
)
from repro.common.units import MB

#: fraction of cached nodes that are leaves: each upper level is 1/8 the
#: size of the one below, so leaves are ~ 1 - 1/8 of a level-proportional
#: cache population
_LEAF_FRACTION = 1.0 - 1.0 / 8.0


@dataclass(frozen=True)
class RecoveryEstimate:
    scheme: str
    cache_bytes: int
    dirty_nodes: int
    nvm_reads: float

    @property
    def time_s(self) -> float:
        return self.nvm_reads * READ_VERIFY_NS / 1e9


def reads_per_node(variant: str) -> tuple[float, float]:
    """(leaf reads, intermediate reads) per dirty node for a variant."""
    if variant == "asit":
        return (3.0, 3.0)
    if variant == "star":
        # 8 child echoes + stale node + amortized bitmap walk
        return (GENERAL_COUNTERS_PER_NODE + 1.5,
                GENERAL_COUNTERS_PER_NODE + 1.5)
    if variant == "steins-gc":
        # 8 children + stale + parent-chain verification + records
        per = GENERAL_COUNTERS_PER_NODE + 1 + 2 \
            + 1 / OFFSETS_PER_RECORD_LINE
        return (per, per)
    if variant == "steins-sc":
        leaf = MINORS_PER_SPLIT_BLOCK + 1 + 2 + 1 / OFFSETS_PER_RECORD_LINE
        inner = GENERAL_COUNTERS_PER_NODE + 1 + 2
        return (leaf, inner)
    raise ValueError(f"no recovery model for variant {variant!r}")


def estimate(variant: str, cache_bytes: int) -> RecoveryEstimate:
    """Recovery time for an all-dirty metadata cache of ``cache_bytes``."""
    if cache_bytes <= 0:
        raise ValueError("cache size must be positive")
    dirty = cache_bytes // 64
    leaf_reads, inner_reads = reads_per_node(variant)
    reads = dirty * (_LEAF_FRACTION * leaf_reads
                     + (1 - _LEAF_FRACTION) * inner_reads)
    return RecoveryEstimate(variant, cache_bytes, dirty, reads)


def figure17_sweep(cache_sizes: tuple[int, ...] = (
        256 * 1024, 512 * 1024, 1 * MB, 2 * MB, 4 * MB)
        ) -> dict[str, list[RecoveryEstimate]]:
    """The Fig. 17 sweep: recovery time vs metadata cache size."""
    out: dict[str, list[RecoveryEstimate]] = {}
    for variant in ("asit", "star", "steins-gc", "steins-sc"):
        out[variant] = [estimate(variant, size) for size in cache_sizes]
    return out


def scue_rebuild_estimate(nvm_capacity_bytes: int,
                          leaf_coverage: int = 8) -> float:
    """Recovery time (s) of a SCUE-style whole-tree reconstruction.

    The paper excludes SCUE because rebuilding the entire tree from all
    leaves takes hours for TB-scale memories; this estimate substantiates
    that claim (read every leaf counter block once, 100 ns each, plus the
    upper levels).
    """
    leaves = nvm_capacity_bytes // 64 // leaf_coverage
    total = 0
    level = leaves
    while level > 1:
        total += level
        level = -(-level // 8)
    return total * READ_VERIFY_NS / 1e9
