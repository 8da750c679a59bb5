"""Shared base for *generated-counter* (gensum) schemes.

SCUE (Huang & Hua, HPCA'23), Phoenix (arXiv:1911.01922) and SecPM
(arXiv:1901.00620) all seal a node under the *sum* of its counters and
store that sum in the parent's slot, instead of a self-incrementing
version number.  The whole tree is then a pure function of its leaves,
which is what their recovery protocols exploit.  This base holds:

* the gensum flush protocol (``_flush_dirty_node``): seal under the
  node's own sum, persist, then apply the sum to the parent's slot
  (fetching the parent on the write path when it misses, as in WB);
* the in-progress-apply register (``_pending_applies``) that keeps the
  fetch walk's verification consistent while a child's new sum
  propagates;
* ``_rebuild_forest``: rebuild a set of leaves (by default from their
  data echoes, :meth:`SecureMemoryController.rebuild_leaf`), check the
  leaf sum against a durable register
  (:func:`~repro.baselines.report.check_sum`), then re-sum, re-seal and
  re-persist the forest bottom-up into the root register.

Subclasses choose the register that anchors the replay check (SCUE: one
grand total; Phoenix: one per top-level subtree; SecPM: one total) and
the leaves to rebuild (SCUE: every populated one; Phoenix: those of
stale subtrees; SecPM: its write-through leaves, read from NVM).
"""
from __future__ import annotations

from repro.baselines.base import SecureMemoryController
from repro.baselines.report import RecoveryReport, check_sum
from repro.common.config import SystemConfig
from repro.counters import GeneralCounterBlock, OverflowPolicy
from repro.faults.registry import POINT_RECOVERY, fire
from repro.integrity.node import SITNode
from repro.nvm.device import NVMDevice
from repro.nvm.layout import Region


from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.sim.clock import MemClock


class GeneratedCounterController(SecureMemoryController):
    """Base controller for schemes with sum-generated parent counters."""

    #: generated (sum) counters need lazy-update consistency, like Steins
    supports_eager_updates = False
    #: flushes persist before propagating, like Steins
    uses_inflight_fetch = False

    def __init__(self, cfg: SystemConfig, device: NVMDevice,
                 clock: "MemClock") -> None:
        super().__init__(cfg, device, clock)
        #: updates whose parent fetch is in progress (see Steins'
        #: equivalent register: the fetch walk may need to verify the
        #: just-persisted child before its parent slot carries the value)
        self._pending_applies: dict[tuple[int, int], int] = {}

    # ------------------------------------------------------------ hooks
    def _leaf_overflow_policy(self) -> OverflowPolicy:
        return (OverflowPolicy.SKIP if self._leaf_split
                else OverflowPolicy.PLAIN)

    def _oracle_extra_state(self) -> dict[str, object]:
        """Every generated-counter scheme anchors recovery in its own
        durable register(s); naming them here is each subclass's job
        (enforced statically by SL701, dynamically at registration)."""
        raise NotImplementedError(
            f"{type(self).__name__} must declare its durable trust base")

    # ---------------------------------------------------- flush protocol
    def _flush_dirty_node(self, node: SITNode) -> None:
        """Sum-generated counters (the property recovery relies on), but
        without Steins' NV buffer: an uncached parent is fetched on the
        write path, as in WB."""
        generated = node.gensum()
        self.clock.alu_op(cycles_each=2)
        self.clock.hash_op()
        node.seal(self.engine, generated)
        self._persist_node(node)
        g = self.geometry
        slot = g.parent_slot(node.level, node.index)
        parent = g.parent(node.level, node.index)
        if parent is None:
            self.root.set_counter(slot, generated)
            return
        key = (node.level, node.index)
        outer = self._pending_applies.get(key)
        self._pending_applies[key] = generated
        try:
            pnode = self._ensure_node(*parent)
        finally:
            if outer is None:
                self._pending_applies.pop(key, None)
            else:
                self._pending_applies[key] = outer
        if generated > pnode.counter(slot):
            pnode.block.set_counter(slot, generated)
            poff = g.node_offset(*parent)
            if self.metacache.contains(poff):
                self._mark_dirty(poff, pnode)

    def _pending_parent(self, level: int, index: int) -> int | None:
        return self._pending_applies.get((level, index))

    def _crash_volatile_state(self) -> None:
        self._pending_applies.clear()

    # --------------------------------------------------------- recovery
    def _persisted_leaves(self) -> set[int]:
        """Every leaf with a line in NVM."""
        # leaves are the first level, so a leaf's offset is its index
        num_leaves = self.geometry.level_sizes[0]
        return {offset for offset, _ in self.device.populated(Region.TREE)
                if offset < num_leaves}

    def _populated_leaves(self) -> set[int]:
        """Every leaf that covers a written data block or was persisted:
        without dirty tracking, the leaves a full rebuild must visit."""
        leaves = self._persisted_leaves()
        coverage = self.geometry.leaf_coverage
        leaves.update(addr // coverage
                      for addr, _ in self.device.populated(Region.DATA))
        return leaves

    def _forest_leaf(self, leaf_index: int,
                     report: RecoveryReport) -> SITNode:
        """One leaf of :meth:`_rebuild_forest`: rebuilt from the data
        echoes unless the scheme keeps its leaves durable."""
        return self.rebuild_leaf(leaf_index, report)

    def _rebuild_forest(self, leaves: set[int], stored: int, what: str,
                        report: RecoveryReport) -> None:
        """Rebuild ``leaves``, check their counter sum against the
        durable register ``what`` holding ``stored`` (replay
        detection), then re-sum the forest bottom-up, re-persisting
        every node sealed under its regenerated counter, and land the
        top sums in the root register.

        The rebuilt snapshots are pure functions of the untouched data
        region (or of already-persisted leaves), so a crash anywhere in
        this sweep re-runs it with byte-identical pokes; the root slots
        are written only after every node below them is durable, which
        is what makes mid-recovery crashes restartable.
        """
        current: dict[int, SITNode] = {}
        total = 0
        for leaf_index in sorted(leaves):
            fire(POINT_RECOVERY)
            node = self._forest_leaf(leaf_index, report)
            current[leaf_index] = node
            total += node.gensum()
            report.nodes_recovered += 1
        check_sum(what, total, stored)

        g = self.geometry
        engine, poke = self.engine, self.device.poke
        for level in range(g.num_levels):
            fire(POINT_RECOVERY)
            base = g.node_offset(level, 0)
            sums: dict[int, int] = {}
            for index, node in current.items():
                sums[index] = generated = node.gensum()
                node.seal(engine, generated)
                poke(Region.TREE, base + index, node.snapshot())
            report.hash(len(sums))
            report.write(len(sums))
            if level == g.top_level:
                for index, generated in sums.items():
                    self.root.set_counter(index, generated)
                return
            parents: dict[int, SITNode] = {}
            for index, generated in sums.items():
                parent_index, slot = divmod(index, g.arity)
                parent = parents.get(parent_index)
                if parent is None:
                    parent = SITNode(level + 1, parent_index,
                                     GeneralCounterBlock())
                    parents[parent_index] = parent
                parent.block.set_counter(slot, generated)
            current = parents
