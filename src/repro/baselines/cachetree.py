"""The cache-tree used by ASIT and STAR for recovery verification.

Both schemes maintain a small Merkle tree whose leaves summarize the
metadata cache (ASIT: one leaf hash per cache line / shadow entry; STAR:
one set-MAC per cache set over the *dirty* nodes of the set, sorted by
address).  The interior levels live in controller SRAM (volatile); only
the root occupies an on-chip non-volatile register.  In hardware every
update of a leaf recomputes the hashes up to the root *sequentially* —
the runtime overhead Steins' LIncs avoid (Sec. II-D / III-D).

The simulation charges that cost where it happens: ``update_leaf``
returns the serial hash count the caller bills on every update.  The
hash *values* are computed on observation: ``update_leaf`` only records
the leaf (a hash, or a value the tree's ``leaf_hash`` turns into one)
and marks it dirty, and reading the root, a crash and a recovery check
first settle the union of dirty paths, each interior node once.  The
root is a pure function of the leaves, so every observed root equals
the one an eager tree would hold at that moment.

With the paper's 256 KB metadata cache the tree is the stated "4-level
cache-tree" for both schemes:
* ASIT: 4096 line slots -> 512 -> 64 -> 8 -> root,
* STAR: 512 set-MACs -> 64 -> 8 -> root (plus the set-MAC hash itself).
"""
from __future__ import annotations

from typing import Any, Callable

from repro.common.errors import ConfigError, TamperDetectedError
from repro.crypto.engine import HashEngine
from repro.nvm.adr import NonVolatileRegister

_EMPTY = 0  #: hash of a never-updated leaf


class CacheTree:
    """Fan-out-8 Merkle tree over ``num_leaves`` volatile leaf hashes.

    ``leaf_hash(index, value)``, when given, turns a recorded leaf value
    into its hash at settle time; without it the recorded value is the
    leaf hash.
    """

    def __init__(self, name: str, num_leaves: int, engine: HashEngine,
                 arity: int = 8,
                 leaf_hash: Callable[[int, Any], int] | None = None) -> None:
        if num_leaves <= 0:
            raise ConfigError("cache tree needs at least one leaf")
        if arity <= 1:
            raise ConfigError("cache tree arity must exceed one")
        self.engine = engine
        self.arity = arity
        self.leaf_hash = leaf_hash
        self._levels = self._build([_EMPTY] * num_leaves)
        #: leaf index -> value recorded since the last settle
        self._staged: dict[int, Any] = {}
        self._root = NonVolatileRegister(f"{name}_root", 8,
                                         initial=self._levels[-1][0])

    def _build(self, leaves: list[int]) -> list[list[int]]:
        """Every level of the tree over ``leaves``, hashed bottom-up."""
        digest, arity = self.engine.digest64, self.arity
        levels = [leaves]
        while len(levels[-1]) > 1:
            below = levels[-1]
            level = len(levels)
            levels.append([digest(level, idx, *below[lo:lo + arity])
                           for idx, lo in enumerate(
                               range(0, len(below), arity))])
        return levels

    # ---------------------------------------------------------- update
    def update_leaf(self, index: int, value: Any) -> int:
        """Record a leaf; its path to the root is hashed at the next
        settle.

        Returns the number of *serial* hash computations on the critical
        path in hardware (the interior combines plus the root; the leaf
        hash itself is charged by the caller since its input differs per
        scheme).
        """
        self._staged[index] = value
        return len(self._levels) - 1

    def _settle(self) -> None:
        """Hash the recorded leaves and the union of their paths, each
        interior node once, and write the NV root register."""
        staged = self._staged
        if not staged:
            return
        levels, arity, digest = self._levels, self.arity, self.engine.digest64
        leaves, leaf_hash = levels[0], self.leaf_hash
        for index, value in staged.items():
            leaves[index] = value if leaf_hash is None \
                else leaf_hash(index, value)
        dirty = dict.fromkeys(staged)
        staged.clear()
        for level in range(1, len(levels)):
            below, row = levels[level - 1], levels[level]
            # each parent once, in first-seen order (a dict, not a set)
            dirty = dict.fromkeys(idx // arity for idx in dirty)
            for idx in dirty:
                lo = idx * arity
                row[idx] = digest(level, idx, *below[lo:lo + arity])
        self._root.value = levels[-1][0]

    # ---------------------------------------------------------- verify
    @property
    def root(self) -> int:
        """The non-volatile root (survives crashes)."""
        self._settle()
        return self._root.value

    def crash(self) -> None:
        """Drop the volatile levels; the NV root survives."""
        self._settle()
        for level in self._levels:
            level[:] = [_EMPTY] * len(level)

    def rebuild_and_verify(self, leaf_hashes: list[int]) -> None:
        """Recovery: rebuild from recomputed leaf hashes and compare the
        rebuilt root against the surviving NV root.  Only a match
        installs the rebuilt levels; a mismatch leaves the tree and its
        root register as they were."""
        if len(leaf_hashes) != len(self._levels[0]):
            raise ConfigError(
                f"expected {len(self._levels[0])} leaf hashes, "
                f"got {len(leaf_hashes)}")
        self._settle()
        rebuilt = self._build(list(leaf_hashes))
        if rebuilt[-1][0] != self._root.value:
            raise TamperDetectedError(
                "cache-tree root mismatch: recovered metadata was "
                "tampered with or replayed")
        self._levels = rebuilt
