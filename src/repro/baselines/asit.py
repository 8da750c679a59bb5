"""ASIT — Anubis for the SGX-style Integrity Tree (Zubair & Awad, ISCA'19),
as modelled by the paper (Sec. II-D, IV).

Runtime behaviour on *every* modification of a cached metadata node
(leaf counter bumps on data writes, parent-counter bumps on evictions):

* the node's full 64 B image is persisted to the Shadow Table entry of
  its cache slot — the extra NVM write that produces ASIT's ~2x write
  traffic (Fig. 13),
* the 4-level cache-tree branch over the shadow entries is recomputed —
  four serial HMACs on the critical path (the computation overhead the
  paper attributes to ASIT).

The simulation charges those hashes on every modification but computes
their values on observation: the shadow write's node snapshot is staged
as the cache-tree leaf (controller SRAM, never read back from NVM), and
the tree hashes it with :meth:`ASITController._shadow_leaf_hash`, the
function recovery uses, when the root is next read, at a crash or at
recovery.

Recovery: read every shadow entry, rebuild the cache-tree, compare its
root with the surviving on-chip root, and re-install the shadowed nodes
as dirty.  Fast (one pass over a cache-sized table) but paid for at
runtime — the trade-off Steins improves on.
"""
from __future__ import annotations

from repro.baselines.base import SecureMemoryController
from repro.baselines.cachetree import CacheTree
from repro.baselines.report import RecoveryReport
from repro.common.config import SystemConfig
from repro.common.errors import RecoveryError
from repro.faults.registry import POINT_RECOVERY, fire
from repro.integrity.node import SITNode
from repro.nvm.device import NVMDevice
from repro.nvm.layout import Region


from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.sim.clock import MemClock


class ASITController(SecureMemoryController):
    """Shadow-table + cache-tree scheme."""

    name = "asit"
    supports_recovery = True

    def __init__(self, cfg: SystemConfig, device: NVMDevice,
                 clock: "MemClock") -> None:
        super().__init__(cfg, device, clock)
        self.num_slots = cfg.security.metadata_cache.num_lines
        if device.layout.shadow_lines < self.num_slots:
            raise RecoveryError(
                "shadow table region smaller than the metadata cache")
        self.cache_tree = CacheTree("asit", self.num_slots, self.engine,
                                    leaf_hash=self._staged_leaf_hash)

    # ------------------------------------------------------------ hooks
    def _shadow_leaf_hash(self, slot: int, node: SITNode | None) -> int:
        if node is None:
            return 0
        # The cached node's HMAC field is stale until flush; the shadow
        # integrity covers identity + counters, which is what recovery
        # restores.
        return self.engine.digest64(
            slot, node.level, node.index, node.block.to_packed())

    def _staged_leaf_hash(self, slot: int, snap: tuple) -> int:
        return self._shadow_leaf_hash(slot, SITNode.from_snapshot(snap))

    def _on_metadata_modified(self, offset: int, node: SITNode) -> None:
        slot = self.metacache.slot_of(offset)
        # shadow write: one extra NVM write per metadata modification —
        # the bandwidth cost that dominates ASIT's slowdown
        snap = node.snapshot()
        self.clock.nvm_write(Region.SHADOW, slot, snap)
        self.stats.bump("shadow_writes")
        # cache-tree branch update: the serial hash chain is pipelined
        # behind the (much slower) accompanying NVM write, so it costs
        # energy and hash-unit occupancy rather than op latency; one
        # serialization hash (the leaf's) stays on the path (the chain
        # cannot start before the modified content exists).  The tree
        # keeps the immutable snapshot and hashes it when settled.
        self.clock.hash_op()
        serial = self.cache_tree.update_leaf(slot, snap)
        self.clock.hash_op(serial, on_critical_path=False)
        self.stats.bump("cache_tree_updates")

    def _oracle_extra_state(self) -> dict[str, object]:
        # the cache-tree root register survives a crash and anchors the
        # shadow-table verification
        return {"cache_tree_root": self.cache_tree.root}

    # ------------------------------------------------------------ crash
    def _crash_volatile_state(self) -> None:
        self.cache_tree.crash()

    def recover(self) -> RecoveryReport:
        """Read + verify the shadow table, re-install nodes as dirty."""
        if not self._crashed:
            raise RecoveryError("recover() called without a crash")
        fire(POINT_RECOVERY)
        report = RecoveryReport(self.name)
        snaps = self.device.peek_lines(Region.SHADOW, 0, self.num_slots)
        report.read(len(snaps))
        nodes = [SITNode.from_snapshot(snap) if snap is not None else None
                 for snap in snaps]
        leaf_hashes = [self._shadow_leaf_hash(slot, node)
                       for slot, node in enumerate(nodes)]
        report.hash(len(nodes))
        # Verification against the non-volatile cache-tree root: raises
        # TamperDetectedError if the shadow table was modified.
        self.cache_tree.rebuild_and_verify(leaf_hashes)
        report.hash(self.num_slots // 4)
        fire(POINT_RECOVERY)

        # Re-install: newest state wins when a node appears in several
        # slots (counters are monotone, so "newest" == larger gensum).
        # The winning slot rides along so the node can be pinned back to
        # the cache line its shadow entry already covers.
        best: dict[tuple[int, int], tuple[SITNode, int]] = {}
        for slot, node in enumerate(nodes):
            if node is None:
                continue
            key = (node.level, node.index)
            prev = best.get(key)
            if prev is None or node.gensum() > prev[0].gensum():
                best[key] = (node, slot)
        self.mark_recovered()
        for node, slot in sorted(best.values(),
                                 key=lambda e: (-e[0].level, e[1])):
            fire(POINT_RECOVERY)
            offset = self.geometry.node_offset(node.level, node.index)
            # A bump applied to a mid-flush (in-flight) node is persisted
            # with its flush but never shadowed, so the tree copy can be
            # newer than every shadow entry; monotone counters make
            # "newest" well-defined.  A tree copy at least as new means
            # the node is effectively clean — nothing to restore.
            tree_snap = self.device.peek(Region.TREE, offset)
            report.read()
            if tree_snap is not None and \
                    SITNode.from_snapshot(tree_snap).gensum() >= node.gensum():
                continue
            self.force_install(offset, node, slot=slot)
            installed = self.metacache.peek(offset)
            if installed is not None and \
                    self.metacache.slot_of(offset) != slot:
                # Landed in a different way: re-shadow at the new slot so
                # a second crash still covers the restored state.  When
                # the install is slot-faithful (the common case) the
                # existing entry already covers it and skipping the write
                # keeps a restarted recovery byte-identical.
                self._on_metadata_modified(offset, installed)
                report.write()
            report.nodes_recovered += 1
        report.bump("shadow_entries", len(best))
        return report
