"""Steins' root-to-leaf recovery (paper Sec. III-G, Fig. 8).

After a crash the metadata cache content is gone; NVM holds stale nodes.
Recovery proceeds:

1. Read the offset records from NVM to locate (possibly) dirty nodes.
   Stale records that name clean nodes are harmless — their computed
   increment is zero (Sec. III-H).
2. Replay the NV parent buffer: each pending update marks its parent as
   to-recover and adjusts the expected L_k Inc / L_{k+1} Inc exactly as
   the runtime drain would have (Sec. III-E).
3. For each level, top (root children) to leaves:
   a. regenerate each dirty node's counters from its persisted children
      (tree nodes via gensum; leaves via the counter echoes stored with
      the covered data blocks),
   b. verify every child's HMAC under the regenerated counter — Steins
      seals nodes under their own gensum, so children self-verify;
      tampering is caught here,
   c. read the node's *stale* NVM copy and verify it against its parent
      (already recovered, or the root register),
   d. accumulate ``gensum(recovered) - gensum(stale)`` and compare the
      level total against the (buffer-adjusted) stored L_k Inc — a
      replayed child makes the computed total *smaller*, exposing the
      replay (Sec. III-D).
4. Commit: restore the LInc register to the verified totals, clear the
   NV buffer, and mark the controller recovered — one on-chip register
   transaction.
5. Re-install every *live* recovered node (content differs from its
   stale copy) into the metadata cache marked dirty, each pinned to a
   cache slot its offset record already names.

The protocol is **restartable**: steps 1-3 only read, step 4 is atomic,
and step 5 mutates volatile state whose durable coverage (the records)
was never erased — so a crash at any point (``repro.faults`` injects
them between every two steps) leaves a state from which a second
recovery reaches the identical result.  Buffered parents that have no
record yet get one written *before* the commit (idempotent
read-modify-writes), and stale records are never reset: recovering a
clean node is harmless (Sec. III-H) and keeping the records is what
keeps a half-done reinstall recoverable.
"""
from __future__ import annotations

from typing import TYPE_CHECKING

from repro.baselines.report import RecoveryReport, check_sum
from repro.common.errors import RecoveryError, TamperDetectedError
from repro.core import osiris
from repro.faults.registry import POINT_RECOVERY, atomic, fire
from repro.integrity.node import SITNode, make_empty_node
from repro.nvm.layout import Region
from repro.obs.tracer import EV_RECOVERY_STEP

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.controller import SteinsController


class SteinsRecovery:
    """One recovery run over a crashed :class:`SteinsController`."""

    def __init__(self, controller: "SteinsController") -> None:
        self.c = controller
        self.g = controller.geometry
        self.report = RecoveryReport("steins")
        #: verified recovered nodes by offset (stand-in for the cache
        #: until installation)
        self._recovered: dict[int, SITNode] = {}
        #: verified *stale* nodes read from NVM during the sweep
        self._stale: dict[int, SITNode] = {}
        #: the record map {cache slot: offset} read in step 1
        self._records: dict[int, int] = {}
        #: offset of each level's first node
        self._level_base = tuple(self.g.node_offset(level, 0)
                                 for level in range(self.g.num_levels))

    # ------------------------------------------------------------- run
    def run(self) -> RecoveryReport:
        c, g = self.c, self.g
        fire(POINT_RECOVERY)
        records, lines_read = c.tracker.read_records(c.device)
        self._records = records
        self.report.read(lines_read)
        self.report.bump("record_lines", lines_read)
        if c.tracer.enabled:
            c.tracer.emit(EV_RECOVERY_STEP, step="read_records",
                          count=lines_read)

        by_level: dict[int, set[int]] = {k: set() for k in range(g.num_levels)}
        for offset in records.values():
            level, _ = g.offset_to_node(offset)
            by_level[level].add(offset)

        expected = list(c.lincs.values())
        pending_by_parent_level = self._plan_nv_buffer(by_level)
        if c.tracer.enabled:
            c.tracer.emit(EV_RECOVERY_STEP, step="plan_nv_buffer",
                          count=len(c.nv_buffer))

        computed = [0] * g.num_levels
        for level in range(g.top_level, -1, -1):
            # Fig. 8 step 5: apply the pending parent updates whose parent
            # lives at this level — its stale copy is verifiable now that
            # every level above is recovered
            self._replay_pending(pending_by_parent_level.get(level, []),
                                 expected)
            computed[level] = self._recover_level(level, by_level[level])
            if c.tracer.enabled:
                c.tracer.emit(EV_RECOVERY_STEP, step="recover_level",
                              level=level, count=len(by_level[level]))
            check_sum(f"steins L_{level}Inc", computed[level],
                      expected[level])
            fire(POINT_RECOVERY)

        self._reinstall(expected)
        return self.report

    # ----------------------------------------------------- NV buffer
    def _plan_nv_buffer(self, by_level: dict[int, set[int]]
                        ) -> dict[int, list]:
        """Fig. 8 step 5 planning: a buffered entry (child at level k,
        generated counter) means the child was persisted but neither the
        parent nor the LIncs were updated.

        The buffer is only *read* here; it is cleared by the atomic
        commit in :meth:`_reinstall`, so a crash anywhere during the
        sweep leaves the pending updates in place for the next attempt.
        """
        c, g = self.c, self.g
        # group by the *parent's* level so each batch is replayed exactly
        # when that level is being recovered (FIFO order preserved);
        # parents join the to-recover set (their regeneration from the
        # persisted children picks up the new child state automatically)
        plan: dict[int, list] = {}
        for update in c.nv_buffer.entries:
            parent = g.parent(update.child_level, update.child_index)
            if parent is None:
                # root parents are updated immediately at runtime and
                # never buffered
                raise RecoveryError("NV buffer holds a root-child update")
            plan.setdefault(parent[0], []).append(update)
            by_level[parent[0]].add(g.node_offset(*parent))
        return plan

    def _replay_pending(self, updates: list, expected: list[int]) -> None:
        """Fold one parent-level's pending updates into the expected
        LIncs: each transfer is the delta between *consecutive* generated
        counters of the same child, starting from the verified stale
        parent slot (several FIFO entries may exist per child)."""
        g = self.g
        effective: dict[tuple[int, int], int] = {}
        for update in updates:
            level = update.child_level
            child = (level, update.child_index)
            parent = g.parent(level, update.child_index)
            slot = g.parent_slot(level, update.child_index)
            if child not in effective:
                stale_parent = self._read_stale(*parent)
                effective[child] = stale_parent.counter(slot)
            delta = update.generated_counter - effective[child]
            if delta < 0:
                raise TamperDetectedError(
                    "NV buffer counter below the persisted parent "
                    "counter: parent replayed")
            effective[child] = update.generated_counter
            expected[level] -= delta
            expected[level + 1] += delta
            self.report.bump("buffer_replays")

    # --------------------------------------------------------- levels
    def _recover_level(self, level: int, level_offsets: set[int]) -> int:
        """Recover one level's nodes; returns the computed increment.

        Inner nodes are regenerated from their persisted children, which
        self-verify under their own gensum (Sec. III-B); leaves from the
        covered data blocks' counter echoes (the major lives in the data
        HMAC entry, Sec. II-D), or by Osiris trial decryption when that
        strategy is configured."""
        c, report = self.c, self.report
        by_trial = c.cfg.security.leaf_recovery == "osiris"
        total = 0
        base = self._level_base[level]
        for offset in sorted(level_offsets):
            index = offset - base
            if level:
                recovered = c.rebuild_inner(level, index, report)
            elif by_trial:
                recovered = osiris.rebuild_leaf(
                    c.engine, self.g, c.device, index,
                    self._read_stale(0, index),
                    c.cfg.security.osiris_stop_loss, report)
            else:
                recovered = c.rebuild_leaf(index, report)
            stale = self._read_stale(level, index)
            total += recovered.gensum() - stale.gensum()
            self._recovered[offset] = recovered
            report.nodes_recovered += 1
        return total

    # ---------------------------------------------------- stale reads
    def _read_stale(self, level: int, index: int) -> SITNode:
        """Read + verify a node's persisted (stale) copy (Fig. 8 steps
        2/7): its parent's counter slot holds exactly the gensum of this
        stale copy, and the parent is either already recovered, clean in
        NVM (verified recursively), or the root register."""
        offset = self._level_base[level] + index
        cached = self._stale.get(offset)
        if cached is not None:
            return cached
        snap = self.c.device.peek(Region.TREE, offset)
        self.report.read()
        if snap is None:
            node = make_empty_node(level, index, self.c.leaf_split,
                                   self.c.engine, self.c.overflow_policy)
        else:
            node = SITNode.from_snapshot(snap)
        parent_counter = self._stale_parent_counter(level, index)
        self.report.hash()
        if not node.hmac_matches(self.c.engine, parent_counter):
            raise TamperDetectedError(
                f"stale node ({level},{index}) failed verification "
                f"against its parent counter {parent_counter}")
        self._stale[offset] = node
        return node

    def _stale_parent_counter(self, level: int, index: int) -> int:
        if level == self.g.top_level:
            return self.c.root.counter(index)
        pindex, slot = divmod(index, self.g.arity)
        recovered = self._recovered.get(self._level_base[level + 1] + pindex)
        if recovered is not None:
            # the recovered parent's slot is gensum(stale child) exactly
            return recovered.counter(slot)
        return self._read_stale(level + 1, pindex).counter(slot)

    # -------------------------------------------------------- install
    def _reinstall(self, verified_lincs: list[int]) -> None:
        """Commit the registers and put every *live* recovered node back
        in the metadata cache dirty (Sec. III-G), restartably.

        Ordering is what makes a crash-during-recovery safe:

        1. plan — each live offset is pinned to the lowest cache slot
           its record names (the record then stays valid for free);
        2. cover — buffer-parents without a record get one written now,
           while the buffer still guarantees their recovery (idempotent
           writes, crash here re-runs identically);
        3. commit — LIncs, buffer clear, and the liveness flip are one
           on-chip register transaction;
        4. reinstall — volatile installs, top-down; every to-be-dirty
           node stays record-covered throughout, so a crash between any
           two installs recovers to the same state.

        Records are *not* reset: stale entries name clean nodes, whose
        recovery is a no-op (Sec. III-H).
        """
        c = self.c
        # live = actually advanced beyond the stale NVM copy; a clean
        # recorded node recovers to exactly its stale self and needs no
        # reinstall (and must not occupy a way on a restarted pass)
        live: dict[int, SITNode] = {}
        for offset, node in self._recovered.items():
            stale = self._stale[offset]
            if node.block != stale.block:
                live[offset] = node

        slot_for: dict[int, int] = {}
        for slot in sorted(self._records):
            offset = self._records[slot]
            if offset in live:
                slot_for.setdefault(offset, slot)

        # buffer-parents recovered via the NV buffer may have no record
        # yet: write one before the commit empties the buffer, so they
        # are durably covered the instant they become cache-resident
        reserved = set(slot_for.values())
        for offset in sorted(o for o in live if o not in slot_for):
            fire(POINT_RECOVERY)
            slot = self._claim_slot(offset, reserved)
            if slot is None:
                continue  # no free way: the fallback install records it
            slot_for[offset] = slot
            reserved.add(slot)
            c.tracker.write_record(slot, offset)
            self.report.write()

        # A set with more live nodes than ways cannot keep them all
        # resident: its eviction chains flush the excess durably and
        # re-key offset records as residency changes — states that are
        # only consistent once the whole set is back.  Such sets (and in
        # particular any node _claim_slot could not cover above) must
        # reinstall inside the register-commit transaction; every other
        # install is slot-pinned, touches nothing but its own way, and
        # can crash between any two nodes.
        by_set: dict[int, list[int]] = {}
        for offset in live:
            by_set.setdefault(c.metacache.set_index(offset),
                              []).append(offset)
        overflow = {s for s, members in by_set.items()
                    if len(members) > c.metacache.ways}
        # Eviction chains also demand every *live ancestor* of an
        # overflow member be resident before the member installs: a
        # flushed child whose live parent is still NVM-stale would park
        # a buffered update whose replay baseline (the stale parent
        # slot) undercounts what the runtime already transferred into
        # the LIncs.  Pull those ancestors into the commit so the whole
        # reinstall stays globally top-down.
        in_commit = {o for o in live
                     if c.metacache.set_index(o) in overflow}
        g = self.g
        for offset in sorted(in_commit):
            level, index = live[offset].level, live[offset].index
            while True:
                parent = g.parent(level, index)
                if parent is None:
                    break
                level, index = parent
                poff = g.node_offset(level, index)
                if poff in live:
                    in_commit.add(poff)
        order = sorted(live, key=lambda o: (-live[o].level, o))

        fire(POINT_RECOVERY)
        # the LInc restore, the buffer clear, and the liveness flip
        # commit as one on-chip register transaction: a crash lands
        # entirely before it (nothing changed; recovery restarts
        # identically) or entirely after (recovery is complete but for
        # the record-covered volatile reinstall below)
        with atomic():
            c.lincs.set_all(verified_lincs)
            c.nv_buffer.drain()
            c.mark_recovered()
            # top-down, so an eviction-flushed child always finds its
            # live parent already reinstalled
            for offset in order:
                if offset in in_commit:
                    c.force_install(offset, live[offset],
                                    slot=slot_for.get(offset))
        if c.tracer.enabled:
            c.tracer.emit(EV_RECOVERY_STEP, step="commit",
                          count=len(in_commit))

        for offset in order:
            if offset in in_commit:
                continue
            fire(POINT_RECOVERY)
            c.force_install(offset, live[offset],
                            slot=slot_for.get(offset))
        self.report.bump("reinstalled", len(live))
        if c.tracer.enabled:
            c.tracer.emit(EV_RECOVERY_STEP, step="reinstall",
                          count=len(live))

    def _claim_slot(self, offset: int, reserved: set[int]) -> int | None:
        """A cache slot in ``offset``'s set not claimed by a live node.

        Deterministic (lowest free way first) so a restarted recovery
        re-claims the same slots — by then they carry records and are
        found via the normal plan.
        """
        cache = self.c.metacache
        base = cache.set_index(offset) * cache.ways
        for way in range(cache.ways):
            if base + way not in reserved:
                return base + way
        return None
