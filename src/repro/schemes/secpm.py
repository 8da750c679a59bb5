"""SecPM — a secure and persistent memory system (arXiv:1901.00620).

SecPM's core mechanism is a write-through persist path for counters:
every data write persists the updated leaf counter line *ahead of* the
data line, so the (counter, data) pair is crash-atomic and recovery
never has to reconstruct leaf counters from the data region at all.

Modelled behaviour:

* **Runtime** — on each data write the leaf counter block is sealed
  under its generated sum and written through to NVM before the data
  line enters the write queue (the device WPQ drains oldest-first at a
  crash, so no reachable crash persists data without its counter).  A
  single on-chip ``persist_root`` register accumulates the grand leaf
  sum — the same one-register replay trust base as SCUE.  Upper tree
  levels stay lazy (generated sums, flushed on eviction), shared via
  :class:`~repro.baselines.generated.GeneratedCounterController`.
* **Recovery** — scans only the persisted *leaf* lines (zero
  data-region reads: the fast-recovery claim), verifies each leaf
  against its own generated sum, compares the grand total with
  ``persist_root`` (a replayed leaf line lowers it), and regenerates +
  re-persists the upper levels by summation.

The write-through is the scheme's runtime bill — one extra NVM metadata
write per data write, reported as ``counter_writethroughs``.
``merged_counter_writes`` counts back-to-back write-throughs of the
same leaf line, the fraction SecPM's counter write coalescing absorbs
inside the write queue (modelled as a statistic; the write itself is
still issued so the persisted leaf is never stale).
"""
from __future__ import annotations

from repro.baselines.generated import GeneratedCounterController
from repro.baselines.report import RecoveryReport
from repro.common.config import SystemConfig
from repro.common.errors import RecoveryError, TamperDetectedError
from repro.counters.base import IncrementResult
from repro.faults.registry import POINT_RECOVERY, fire
from repro.integrity.node import SITNode
from repro.nvm.adr import NonVolatileRegister
from repro.nvm.device import NVMDevice
from repro.nvm.layout import Region


from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.sim.clock import MemClock


class SecPMController(GeneratedCounterController):
    """Counter write-through + leaf-scan-only recovery."""

    name = "secpm"
    supports_recovery = True

    def __init__(self, cfg: SystemConfig, device: NVMDevice,
                 clock: "MemClock") -> None:
        super().__init__(cfg, device, clock)
        #: the sum of all leaf counters, updated on-chip per write
        self.persist_root = NonVolatileRegister("persist_root", 8,
                                                initial=0)
        #: offset of the most recent counter write-through (volatile;
        #: only feeds the merge statistic)
        self._last_writethrough: int | None = None

    # ------------------------------------------------------------ hooks
    def _on_leaf_incremented(self, offset: int, node: SITNode,
                             result: IncrementResult) -> None:
        # register update (on-chip), then the counter write-through: the
        # leaf is sealed under its own generated sum and persisted ahead
        # of the data line, making the (counter, data) pair crash-atomic
        self.persist_root.value += result.gensum_delta
        self.clock.sram_op()
        generated = node.gensum()
        self.clock.alu_op(cycles_each=2)
        self.clock.hash_op()
        node.seal(self.engine, generated)
        self._persist_node(node)
        self.stats.bump("counter_writethroughs")
        if offset == self._last_writethrough:
            self.stats.bump("merged_counter_writes")
        self._last_writethrough = offset

    def _crash_volatile_state(self) -> None:
        super()._crash_volatile_state()
        self._last_writethrough = None

    def _oracle_extra_state(self) -> dict[str, object]:
        # the on-chip grand total of all leaf counters: with leaves
        # always durable, this register is SecPM's whole replay defence
        return {"persist_root": self.persist_root.value}

    # --------------------------------------------------------- recovery
    def recover(self) -> RecoveryReport:
        """Regenerate the upper tree from the always-durable leaves: the
        write-through makes the persisted leaf lines authoritative, so
        the data region is never read here."""
        if not self._crashed:
            raise RecoveryError("recover() called without a crash")
        fire(POINT_RECOVERY)
        report = RecoveryReport(self.name)
        self._rebuild_forest(self._persisted_leaves(),
                             self.persist_root.value,
                             "secpm persist_root", report)
        self.mark_recovered()
        return report

    def _forest_leaf(self, leaf_index: int,
                     report: RecoveryReport) -> SITNode:
        """A persisted leaf, verified against its own generated sum."""
        snap = self.device.peek(Region.TREE,
                                self.geometry.node_offset(0, leaf_index))
        report.read()
        node = SITNode.from_snapshot(snap)
        report.hash()
        if not node.hmac_matches(self.engine, node.gensum()):
            raise TamperDetectedError(
                f"leaf {leaf_index} failed self-verification during the "
                "secpm leaf scan")
        return node
