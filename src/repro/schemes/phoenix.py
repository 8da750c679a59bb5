"""Phoenix — a persistently secure counter tree (arXiv:1911.01922).

Phoenix's pitch: keep near-WB runtime cost, but make recovery scale
with what was *in flight* at the crash instead of the whole data
footprint.  The durable trust base is a vector of per-subtree sums —
one on-chip NV register slot per top-level node — so after a crash
each subtree can be triaged independently.

Modelled behaviour:

* **Runtime** — parent counters are generated sums (the shared
  :class:`~repro.baselines.generated.GeneratedCounterController` flush
  protocol).  Each data write adds its leaf-counter delta to the
  register slot of the subtree the leaf belongs to: one register
  addition per write, the same bill as SCUE's single ``Recovery_root``.
* **Recovery** — per-subtree triage.  A subtree whose SIT-root slot
  equals its register is *provably clean*: with strictly positive
  per-write deltas, every unflushed update leaves the root slot lagging
  the register, so equality means every increment had propagated to the
  top node before the crash.  Clean subtrees are skipped untouched;
  only mismatching ("stale") subtrees are rebuilt from their covered
  data blocks' counter echoes, checked against the register (replay
  detection), re-summed and re-persisted bottom-up.

Deviation from the paper: Phoenix restores stale counters lazily on
first touch after reboot.  The differential oracle's recovery contract
(dirty nodes restored-or-dominated *at* ``recover()`` time, see
``repro.oracle.harness.DifferentialRun.check_recovery``) requires the
stale state to be durable again before operation resumes, so laziness
is modelled at subtree granularity — clean subtrees cost nothing —
rather than per-node.
"""
from __future__ import annotations

from repro.baselines.generated import GeneratedCounterController
from repro.baselines.report import RecoveryReport
from repro.common.config import SystemConfig
from repro.common.errors import RecoveryError
from repro.counters.base import IncrementResult
from repro.faults.registry import POINT_RECOVERY, fire
from repro.integrity.node import SITNode
from repro.nvm.adr import NonVolatileRegister
from repro.nvm.device import NVMDevice


from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.sim.clock import MemClock


class PhoenixController(GeneratedCounterController):
    """Per-subtree sum registers + stale-subtree-only rebuild."""

    name = "phoenix"
    supports_recovery = True

    def __init__(self, cfg: SystemConfig, device: NVMDevice,
                 clock: "MemClock") -> None:
        super().__init__(cfg, device, clock)
        g = self.geometry
        top_size = g.level_sizes[g.top_level]
        #: leaves covered by one top-level node (= one register slot)
        self._leaves_per_top = g.arity ** g.top_level
        #: per-subtree sum of leaf counters, updated on-chip per write
        self.subtree_counts = NonVolatileRegister(
            "phoenix_subtree_counts", max(8, top_size * 8),
            initial=[0] * top_size)

    # ------------------------------------------------------------ hooks
    def _on_leaf_incremented(self, offset: int, node: SITNode,
                             result: IncrementResult) -> None:
        # one register addition per write, into the owning subtree's slot
        top = node.index // self._leaves_per_top
        self.subtree_counts.value[top] += result.gensum_delta
        self.clock.sram_op()

    def _oracle_extra_state(self) -> dict[str, object]:
        # the per-subtree grand totals: Phoenix's whole trust base for
        # both the staleness triage and replay detection at rebuild time
        return {"subtree_counts": tuple(self.subtree_counts.value)}

    # --------------------------------------------------------- recovery
    def recover(self) -> RecoveryReport:
        """Rebuild only the subtrees that were in flight at the crash."""
        if not self._crashed:
            raise RecoveryError("recover() called without a crash")
        fire(POINT_RECOVERY)
        report = RecoveryReport(self.name)
        counts = self.subtree_counts.value

        # triage: root slot == register slot proves the subtree had no
        # unpropagated update at the crash — skip it untouched.  (The
        # root slot only ever lags the register, and recovery closes the
        # gap last, so a mid-recovery crash re-runs with the same triage
        # for every unfinished subtree.)  Each stale subtree is rebuilt
        # from its data echoes, checked against its register and
        # re-persisted bottom-up.
        stale: dict[int, set[int]] = {
            t: set() for t in range(len(counts))
            if self.root.counter(t) != counts[t]}
        # the leaf scan passes over every stored line twice; after most
        # crashes no subtree is stale and nothing needs it
        if stale:
            for leaf in self._populated_leaves():
                leaves = stale.get(leaf // self._leaves_per_top)
                if leaves is not None:
                    leaves.add(leaf)
        for top, leaves in stale.items():
            self._rebuild_forest(leaves, counts[top],
                                 f"phoenix subtree {top} register", report)

        self.mark_recovered()
        return report
