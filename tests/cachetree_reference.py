"""Eager reference for the ASIT/STAR cache-tree.

``repro.baselines.cachetree.CacheTree`` records a leaf update and
hashes the dirty paths only when the root is observed (the ``root``
property, ``crash`` and ``rebuild_and_verify``).  This module keeps the
tree it replaced, verbatim apart from the class name: every
``update_leaf`` recomputed the leaf's path up to the non-volatile root
at once.  That includes its one known defect: a failed
``rebuild_and_verify`` had already written the rebuilt root into the
register before comparing.  ``tests/test_cachetree_reference.py``
requires the two trees to agree on every root, serial count and
exception up to the first detection, and ASIT and STAR to observe the
same durable state on either tree (:class:`EagerLeafTree` hashes a
staged ASIT leaf at once, the way the scheme did before).
"""
from __future__ import annotations

from typing import Any, Callable

from repro.common.errors import ConfigError, TamperDetectedError
from repro.crypto.engine import HashEngine
from repro.nvm.adr import NonVolatileRegister

_EMPTY = 0  #: hash of a never-updated leaf


class EagerCacheTree:
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


class EagerLeafTree(EagerCacheTree):
    """:class:`EagerCacheTree` with the lazy tree's constructor: a
    ``leaf_hash`` given there is applied in ``update_leaf`` itself."""

    def __init__(self, name: str, num_leaves: int, engine: HashEngine,
                 arity: int = 8,
                 leaf_hash: Callable[[int, Any], int] | None = None) -> None:
        super().__init__(name, num_leaves, engine, arity)
        self.leaf_hash = leaf_hash

    def update_leaf(self, index: int, leaf_hash: Any) -> int:
        if self.leaf_hash is not None:
            leaf_hash = self.leaf_hash(index, leaf_hash)
        return super().update_leaf(index, leaf_hash)
