"""SCUE — root crash consistency for SIT (Huang & Hua, HPCA'23), the
comparator the paper describes but excludes from its figures
("we do not compare our Steins with the SCUE, since it needs to
reconstruct the whole tree, incurring unacceptable recovery time").

Modelled behaviour:

* **Runtime** — near-WB performance: the only extra state is the
  on-chip ``Recovery_root`` register, the running sum of all leaf
  counters, bumped once per data write.  Parent counters are generated
  from child content (sum-consistent, like Steins), so the whole tree is
  reconstructible from its leaves by summation — the machinery shared
  with Phoenix and SecPM via
  :class:`~repro.baselines.generated.GeneratedCounterController`.
* **Recovery** — no tracking exists, so *every* leaf that ever covered a
  written block is rebuilt from its covered data blocks' counter echoes
  (verified by the data HMACs), the tree is re-summed bottom-up, the
  grand total is compared against ``Recovery_root`` (replay detection),
  and the entire rebuilt tree is re-persisted.  Cost scales with the
  *data footprint*, not the metadata cache — hour-scale for TB memories,
  which is exactly why the paper leaves it out of Fig. 17.

Implementing it here lets the benchmarks put a measured number on that
exclusion (``bench_fig17_recovery_time`` adds the SCUE row).
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


class SCUEController(GeneratedCounterController):
    """Recovery_root + whole-tree-rebuild scheme."""

    name = "scue"
    supports_recovery = True

    def __init__(self, cfg: SystemConfig, device: NVMDevice,
                 clock: "MemClock") -> None:
        super().__init__(cfg, device, clock)
        #: the sum of all leaf counters, updated on-chip per write
        self.recovery_root = NonVolatileRegister("recovery_root", 8,
                                                 initial=0)

    # ------------------------------------------------------------ hooks
    def _on_leaf_incremented(self, offset: int, node: SITNode,
                             result: IncrementResult) -> None:
        # one register addition per write: SCUE's entire runtime cost
        self.recovery_root.value += result.gensum_delta
        self.clock.sram_op()

    def _oracle_extra_state(self) -> dict[str, object]:
        # the on-chip grand total of all leaf counters: SCUE's whole
        # trust base for replay detection at rebuild time
        return {"recovery_root": self.recovery_root.value}

    # --------------------------------------------------------- recovery
    def recover(self) -> RecoveryReport:
        """Rebuild the entire tree from the data region (Sec. II-D):
        SCUE has no dirty tracking, so every populated leaf is rebuilt,
        checked against ``Recovery_root`` and re-persisted with the
        whole tree above it — SCUE's recovery bill."""
        if not self._crashed:
            raise RecoveryError("recover() called without a crash")
        fire(POINT_RECOVERY)
        report = RecoveryReport(self.name)
        self._rebuild_forest(self._populated_leaves(),
                             self.recovery_root.value,
                             "scue Recovery_root", report)
        self.mark_recovered()
        return report
