"""SIT root register and node-verification helpers.

The root of the SIT lives in an on-chip non-volatile register and is
trusted unconditionally in the threat model (Sec. II-A/II-C).  With the
``root_arity = 64`` geometry it is a 64-slot counter register holding the
parent counter of every top-level node.

Verification (Sec. II-C): when a node is fetched from NVM, its HMAC is
recomputed with the *parent's* counter for it as input; a mismatch means
tampering or replay.  The fetch-and-verify walk itself is implemented
by the controllers; the pure checks live here so they can be unit-tested
and property-tested in isolation.
"""
from __future__ import annotations

from repro.common.errors import TamperDetectedError
from repro.crypto.engine import HashEngine
from repro.integrity.geometry import TreeGeometry
from repro.integrity.node import SITNode
from repro.nvm.adr import NonVolatileRegister


class SITRoot:
    """On-chip root: one counter slot per top-level node."""

    def __init__(self, geometry: TreeGeometry) -> None:
        top_size = geometry.level_sizes[geometry.top_level]
        self._reg = NonVolatileRegister(
            "sit_root", size_bytes=max(8, top_size * 8),
            initial=[0] * top_size)
        self.geometry = geometry

    def counter(self, slot: int) -> int:
        """Root counter for top-level node ``slot``."""
        return self._reg.value[slot]

    def set_counter(self, slot: int, value: int) -> None:
        if value < 0:
            raise ValueError("root counters are non-negative")
        self._reg.value[slot] = value

    def add(self, slot: int, delta: int) -> None:
        self._reg.value[slot] += delta

    @property
    def counters(self) -> list[int]:
        return list(self._reg.value)

    def snapshot(self) -> tuple[int, ...]:
        return tuple(self._reg.value)

    def restore(self, snap: tuple[int, ...]) -> None:
        self._reg.value = list(snap)


def verify_node(engine: HashEngine, node: SITNode,
                parent_counter: int) -> None:
    """Raise :class:`TamperDetectedError` unless the node's stored HMAC
    matches a recomputation under ``parent_counter``.

    A wrong parent counter (replay of the node, or of the parent) and any
    modification of the counters both surface here, because the HMAC
    covers (counters, identity, parent counter).
    """
    if not node.hmac_matches(engine, parent_counter):
        raise node_mismatch(node, parent_counter)


def node_mismatch(node: SITNode, parent_counter: int) -> TamperDetectedError:
    """The error :func:`verify_node` raises for ``node`` (the fetch walk
    checks the HMAC inline and raises this)."""
    return TamperDetectedError(
        f"HMAC mismatch for node (level={node.level}, "
        f"index={node.index}) under parent counter {parent_counter}")


def verify_against_root(engine: HashEngine, root: SITRoot,
                        node: SITNode) -> None:
    """Verify a top-level node directly against the on-chip root."""
    if node.level != root.geometry.top_level:
        raise ValueError(
            f"node level {node.level} is not the top level "
            f"{root.geometry.top_level}")
    verify_node(engine, node, root.counter(node.index))
