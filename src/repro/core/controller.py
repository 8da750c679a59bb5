"""The Steins secure memory controller (paper Sec. III).

What changes relative to the WB base:

* **Counter generation** — parent counters are *generated* from the
  evicted child via Eq. (1)/(2) instead of self-incremented, making
  every stale node recoverable from its persisted children (Sec. III-B).
  Split leaves use the skip-update overflow policy.
* **LIncs** — per-level increment trust bases maintained with two
  register additions per event (Sec. III-D/E).
* **Offset records** — dirty nodes tracked by 4 B offsets in ADR-cached
  record lines, written only on clean->dirty transitions (Sec. III-C).
* **NV parent buffer** — evictions whose parent is uncached complete
  immediately; the pending parent update is parked in the 128 B
  non-volatile buffer and applied before the next read or when the
  buffer fills, removing iterative parent reads from the write critical
  path (Sec. III-E, Fig. 7).

Recovery itself lives in :mod:`repro.core.recovery`.
"""
from __future__ import annotations

from repro.baselines.base import SecureMemoryController
from repro.baselines.report import RecoveryReport
from repro.common.config import SystemConfig
from repro.common.errors import RecoveryError
from repro.counters import OverflowPolicy
from repro.counters.base import IncrementResult
from repro.core.lincs import LIncRegister
from repro.core.nvbuffer import BufferedUpdate, NVParentBuffer
from repro.core.tracking import OffsetRecordTracker
from repro.faults.registry import atomic, fire, residual_budget
from repro.integrity.node import SITNode
from repro.nvm.adr import ADRDomain
from repro.nvm.device import NVMDevice
from repro.obs.tracer import EV_NVBUF_APPEND, EV_NVBUF_DRAIN


from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.sim.clock import MemClock


class SteinsController(SecureMemoryController):
    """Steins: recoverable SIT with negligible runtime overhead."""

    name = "steins"
    supports_recovery = True
    #: counter generation relies on the lazy-update consistency between
    #: cached nodes and their *persisted* children (Sec. III-B)
    supports_eager_updates = False
    #: Steins persists a victim *before* propagating its parent update,
    #: so the NVM copy is always current and in-flight redirection is
    #: unnecessary (and would be wrong: post-persist mutations of the
    #: discarded flush object would be lost)
    uses_inflight_fetch = False

    def __init__(self, cfg: SystemConfig, device: NVMDevice,
                 clock: "MemClock") -> None:
        super().__init__(cfg, device, clock)
        self.lincs = LIncRegister(self.geometry.num_levels)
        self.tracker = OffsetRecordTracker(
            num_cache_slots=cfg.security.metadata_cache.num_lines,
            cache_lines=cfg.security.record_cache_lines,
            device=device)
        self.nv_buffer = NVParentBuffer(cfg.security.nv_buffer_entries)
        # the record-line cache lives in the controller's ADR domain
        # (Sec. III-C): residual power flushes it at crash time, metered
        # against the fault plan's energy budget when one is armed
        self.adr = ADRDomain(
            capacity_bytes=cfg.security.record_cache_lines * 64,
            tracer=self.tracer)
        self.adr.register(
            "record-lines", cfg.security.record_cache_lines * 64,
            flush=OffsetRecordTracker.flush_on_crash, wants_budget=True)
        self.adr.put("record-lines", self.tracker)
        self._osiris = cfg.security.leaf_recovery == "osiris"
        #: per-leaf increments since the last persist (Osiris mode only)
        self._leaf_drift: dict[int, int] = {}
        self._draining = False
        #: generated counters of applies whose parent fetch is in
        #: progress (the hardware analogue: the update rides in a
        #: controller register while the walk runs, and verification
        #: consults it like it consults the NV buffer)
        self._pending_applies: dict[tuple[int, int], int] = {}

    # ------------------------------------------------------------ hooks
    def _leaf_overflow_policy(self) -> OverflowPolicy:
        return OverflowPolicy.SKIP

    def _on_leaf_incremented(self, offset: int, node: SITNode,
                             result: IncrementResult) -> None:
        # L0Inc tracks the generated-counter growth of dirty leaves;
        # a register addition, free of NVM traffic (Sec. III-F).
        self.lincs.add(0, result.gensum_delta)
        self.clock.sram_op()
        if self._osiris:
            # Osiris stop-loss (Sec. V alternative): bound the drift of a
            # dirty leaf over its persisted copy so recovery's trial
            # window stays small — at the price of extra write-backs.
            drift = self._leaf_drift.get(offset, 0) + result.gensum_delta
            if drift >= self.cfg.security.osiris_stop_loss:
                # clean before flushing, as in flush_all: a nested
                # re-dirty during the flush must survive
                self.metacache.mark_clean(offset)
                self._flush_dirty_node(node)
                self._on_dirty_to_clean(offset, node, evicted=False)
                self.stats.bump("osiris_stop_loss_writes")
                self._leaf_drift.pop(offset, None)
            else:
                self._leaf_drift[offset] = drift

    def _on_clean_to_dirty(self, offset: int, node: SITNode) -> None:
        # Record the dirty node's offset against its cache slot; records
        # are never cleared on dirty->clean (Sec. III-C/III-H).
        self.tracker.record(self.metacache.slot_of(offset), offset,
                            self.clock)

    def _on_dirty_to_clean(self, offset: int, node: SITNode,
                           evicted: bool) -> None:
        if self._osiris:
            self._leaf_drift.pop(offset, None)

    # Note on reads: the paper drains the NV buffer before each read so
    # verification never has to consult it.  We model the equivalent
    # hardware shortcut — an 8-entry CAM lookup during verification
    # (see ``_pending_parent``) — and drain only when the buffer fills,
    # which is cost-equivalent (the same parent fetches happen, off the
    # data-read critical path) and keeps the LInc accounting identical:
    # a crash with pending entries is replayed by recovery either way.

    # ---------------------------------------------------- flush protocol
    def _flush_dirty_node(self, node: SITNode) -> None:
        """Fig. 7: generate the parent counter from the evicted node, seal
        and persist without ever reading the parent on the write path."""
        generated = node.gensum()
        self.clock.alu_op(cycles_each=2)  # the linear function
        self.clock.hash_op()
        node.seal(self.engine, generated)
        self._persist_node(node)
        self._apply_parent_update(node.level, node.index, generated,
                                  allow_buffer=True)

    def _apply_parent_update(self, level: int, index: int, generated: int,
                             allow_buffer: bool) -> None:
        """Propagate a generated counter into the parent and the LIncs.

        When the parent is uncached and buffering is allowed, the update
        is parked in the NV buffer instead (completing the write).
        """
        g = self.geometry
        slot = g.parent_slot(level, index)
        parent = g.parent(level, index)
        if parent is None:
            old = self.root.counter(slot)
            self._check_monotone(old, generated, level, index)
            self.root.set_counter(slot, generated)
            # the root is on-chip and always current: only the child's
            # level loses its pending increment
            self.lincs.transfer(level, None, generated - old)
            self.clock.sram_op()
            return
        parent_offset = g.node_offset(*parent)
        if self.metacache.contains(parent_offset):
            pnode = self.metacache.lookup(parent_offset)
            self.clock.sram_op()
            # a direct apply subsumes the deferred updates of this child
            # up to its own counter: the transfer below is computed
            # against the parent's actual slot, which predates them
            self.nv_buffer.remove_superseded(level, index, generated)
            old = pnode.counter(slot)
            if old >= generated:
                return  # superseded by a newer apply already landed
            pnode.block.set_counter(slot, generated)
            self._mark_dirty(parent_offset, pnode)
            self._on_metadata_modified(parent_offset, pnode)
            self.lincs.transfer(level, level + 1, generated - old)
            self.clock.sram_op()
            return
        if allow_buffer and not self.nv_buffer.full:
            self.nv_buffer.append(BufferedUpdate(level, index, generated))
            self.clock.sram_op()
            self.stats.bump("buffered_parent_updates")
            if self.tracer.enabled:
                self.tracer.emit(EV_NVBUF_APPEND, level=level, index=index,
                                 pending=len(self.nv_buffer))
            if self.nv_buffer.full and not self._draining:
                self.drain_buffer()
            return
        # draining or buffer full: fetch the parent now (off the data
        # write's critical path).  While the fetch walk runs, the update
        # exists only in _pending_applies, which verification consults —
        # a crash inside the walk would lose a persisted child's pending
        # LInc transfer, so the whole fetch-and-apply is one
        # crash-atomic transaction (the hardware latches the pending
        # counter until the walk lands).
        key = (level, index)
        outer_pending = self._pending_applies.get(key)
        self._pending_applies[key] = generated
        with atomic():
            try:
                pnode = self._ensure_node(*parent)
            finally:
                if outer_pending is None:
                    self._pending_applies.pop(key, None)
                else:
                    self._pending_applies[key] = outer_pending
            self.nv_buffer.remove_superseded(level, index, generated)
            old = pnode.counter(slot)
            if old >= generated:
                # a nested apply of the same child (with a newer counter)
                # landed during the fetch walk and its transfer, computed
                # against the older slot, already covers this one
                return
            pnode.block.set_counter(slot, generated)
            self._mark_dirty(parent_offset, pnode)
            self._on_metadata_modified(parent_offset, pnode)
            self.lincs.transfer(level, level + 1, generated - old)
            self.clock.sram_op()

    @staticmethod
    def _check_monotone(old: int, generated: int, level: int,
                        index: int) -> None:
        if generated < old:
            raise AssertionError(
                f"generated counter regressed for node ({level},{index}): "
                f"{old} -> {generated}; the generation function must be "
                "monotone (Sec. III-B)")

    def drain_buffer(self) -> None:
        """Apply all pending parent updates (Fig. 7 steps 4-7).

        Entries are applied oldest-first and popped only *after* being
        applied, so verification (`_pending_parent`) can always see the
        newest pending counter for a child.  Evictions triggered by the
        parent fetches may append new entries mid-drain; they are drained
        too.
        """
        if self._draining:
            return
        self._draining = True
        try:
            drained = 0
            for _ in range(10_000):  # physical chains are tiny
                update = self.nv_buffer.peek_first()
                if update is None:
                    if drained and self.tracer.enabled:
                        self.tracer.emit(EV_NVBUF_DRAIN, entries=drained)
                    return
                fire("steins.drain")
                drained += 1
                # Fold every queued update of this child into one apply.
                # Applying only the oldest would transfer part of the
                # child's growth against the *cached* parent slot while a
                # newer entry stays queued — after a crash, recovery
                # replays that entry against the *persisted* slot and
                # double-counts the already-transferred part (a spurious
                # L_kInc replay alarm).  The child's NVM copy is sealed
                # under its newest counter, so the fold also matches what
                # verification expects.
                latest = self.nv_buffer.latest_counter_for(
                    update.child_level, update.child_index)
                self._apply_parent_update(
                    update.child_level, update.child_index,
                    max(update.generated_counter, latest or 0),
                    allow_buffer=False)
                # the apply itself removes superseded entries (possibly
                # including this one); pop only if it is still queued
                if self.nv_buffer.peek_first() is update:
                    self.nv_buffer.pop_first()
                self.stats.bump("buffer_drains")
            raise AssertionError("NV buffer drain failed to converge")
        finally:
            self._draining = False

    # ------------------------------------------------------ verification
    def _pending_parent(self, level: int, index: int) -> int | None:
        """A pending update for this child — in-progress (register) or
        deferred (NV buffer) — supersedes the stale parent copy.

        Both sources can hold a counter at once: a drain applying an old
        deferred entry latches it in the register while a newer eviction
        of the same child still sits in the buffer.  The child's NVM copy
        is sealed under its newest generated counter, so the newest
        pending value is the one that verifies.
        """
        if self._pending_applies or self.nv_buffer.entries:
            in_progress = self._pending_applies.get((level, index))
            pending = self.nv_buffer.latest_counter_for(level, index)
            if in_progress is not None or pending is not None:
                return max(v for v in (in_progress, pending)
                           if v is not None)
        return None

    def _oracle_extra_state(self) -> dict[str, object]:
        # the per-level increment trust bases and any parked parent
        # updates — both non-volatile, both consulted by recovery
        return {
            "lincs": tuple(self.lincs.values()),
            "nv_buffer": tuple(
                (u.child_level, u.child_index, u.generated_counter)
                for u in self.nv_buffer.entries),
        }

    # -------------------------------------------------------- lifecycle
    def flush_all(self) -> None:
        # Draining the buffer applies pending parent updates, which marks
        # parents dirty again; iterate until both the cache and the
        # buffer are clean.
        for _ in range(4 * self.geometry.num_levels + 8):
            super().flush_all()
            if len(self.nv_buffer) == 0:
                if self.metacache.dirty_count() == 0:
                    return
                continue
            self.drain_buffer()
        raise AssertionError("flush_all failed to settle the NV buffer")

    def _crash_volatile_state(self) -> None:
        # ADR residual power persists the cached record lines — under an
        # injected fault, against that crash's energy budget; the LInc
        # register, NV buffer, and root are non-volatile already.
        self.adr.flush_on_crash(residual_budget())
        self._leaf_drift.clear()
        self._pending_applies.clear()

    def recover(self) -> RecoveryReport:
        if not self._crashed:
            raise RecoveryError("recover() called without a crash")
        from repro.core.recovery import SteinsRecovery

        return SteinsRecovery(self).run()
