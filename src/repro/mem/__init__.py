"""CPU-side memory structures: per-level cache storage and the L1/L2/L3
hierarchy."""
from repro.mem.cache import CacheStats, SetAssocCache
from repro.mem.hierarchy import (
    CacheHierarchy,
    HierarchyResult,
    MemOp,
    MemoryRequest,
)

__all__ = [
    "CacheHierarchy",
    "CacheStats",
    "HierarchyResult",
    "MemOp",
    "MemoryRequest",
    "SetAssocCache",
]
