"""The cache-tree used by ASIT and STAR for recovery verification.

Both schemes maintain a small Merkle tree whose leaves summarize the
metadata cache (ASIT: one leaf hash per cache line / shadow entry; STAR:
one set-MAC per cache set over the *dirty* nodes of the set, sorted by
address).  The interior levels live in controller SRAM (volatile); only
the root occupies an on-chip non-volatile register.  Every update of a
leaf recomputes the hashes up to the root *sequentially* — the runtime
overhead Steins' LIncs avoid (Sec. II-D / III-D).

With the paper's 256 KB metadata cache the tree is the stated "4-level
cache-tree" for both schemes:
* ASIT: 4096 line slots -> 512 -> 64 -> 8 -> root,
* STAR: 512 set-MACs -> 64 -> 8 -> root (plus the set-MAC hash itself).
"""
from __future__ import annotations

from repro.common.errors import ConfigError, TamperDetectedError
from repro.crypto.engine import HashEngine
from repro.nvm.adr import NonVolatileRegister

_EMPTY = 0  #: hash of a never-updated leaf


class CacheTree:
    """Fan-out-8 Merkle tree over ``num_leaves`` volatile leaf hashes."""

    def __init__(self, name: str, num_leaves: int, engine: HashEngine,
                 arity: int = 8) -> None:
        if num_leaves <= 0:
            raise ConfigError("cache tree needs at least one leaf")
        if arity <= 1:
            raise ConfigError("cache tree arity must exceed one")
        self.engine = engine
        self.arity = arity
        self._levels: list[list[int]] = [[_EMPTY] * num_leaves]
        while len(self._levels[-1]) > 1:
            width = -(-len(self._levels[-1]) // arity)
            self._levels.append([_EMPTY] * width)
        self._root = NonVolatileRegister(f"{name}_root", 8, initial=_EMPTY)
        self._recompute_all()

    # ---------------------------------------------------------- update
    def _combine(self, level: int, index: int) -> int:
        lo = index * self.arity
        below = self._levels[level - 1]
        hi = min(lo + self.arity, len(below))
        return self.engine.digest64(level, index, *below[lo:hi])

    def update_leaf(self, index: int, leaf_hash: int) -> int:
        """Set a leaf hash and propagate to the root.

        Returns the number of *serial* hash computations on the critical
        path (the interior combines plus the root; the leaf hash itself
        is computed by the caller since its input differs per scheme).
        """
        self._levels[0][index] = leaf_hash
        serial = 0
        idx = index
        for level in range(1, len(self._levels)):
            idx //= self.arity
            self._levels[level][idx] = self._combine(level, idx)
            serial += 1
        self._root.value = self._levels[-1][0]
        return serial

    def _recompute_all(self) -> None:
        for level in range(1, len(self._levels)):
            for idx in range(len(self._levels[level])):
                self._levels[level][idx] = self._combine(level, idx)
        self._root.value = self._levels[-1][0]

    # ---------------------------------------------------------- verify
    @property
    def root(self) -> int:
        """The non-volatile root (survives crashes)."""
        return self._root.value

    @property
    def levels(self) -> int:
        """Interior levels above the leaves (the paper's "4-level")."""
        return len(self._levels) - 1 + 1  # interior combines + root slot

    def crash(self) -> None:
        """Drop the volatile interior; the NV root survives."""
        root = self._root.value
        for level in self._levels:
            for i in range(len(level)):
                level[i] = _EMPTY
        self._root.value = root

    def rebuild_and_verify(self, leaf_hashes: list[int]) -> None:
        """Recovery: rebuild from recomputed leaf hashes and compare the
        rebuilt root against the surviving NV root."""
        if len(leaf_hashes) != len(self._levels[0]):
            raise ConfigError(
                f"expected {len(self._levels[0])} leaf hashes, "
                f"got {len(leaf_hashes)}")
        expected_root = self._root.value
        self._levels[0] = list(leaf_hashes)
        self._recompute_all()
        if self._root.value != expected_root:
            raise TamperDetectedError(
                "cache-tree root mismatch: recovered metadata was "
                "tampered with or replayed")
