"""Shared machinery of every secure memory controller.

The controller sits between the LLC and the NVM device and implements
(Sec. II): counter-mode encryption of data blocks, per-block HMACs
(co-located with data a la Synergy [52], so one line access moves both),
and the SGX-style integrity tree with the lazy update scheme, backed by
the metadata cache of Table I.

The four evaluated schemes (WB, ASIT, STAR, Steins) share this base and
differ only in the hooks:

* ``_flush_dirty_node``     — the lazy-update flush protocol,
* ``_on_metadata_modified`` — called on every counter mutation of a
  cached node (ASIT shadows it; ASIT/STAR update their cache-trees),
* ``_on_clean_to_dirty`` / ``_on_dirty_to_clean`` — residency-state
  transitions (Steins records; STAR bitmap),
* ``_on_leaf_incremented``  — data-write counter bumps (Steins LInc0),
* ``_pre_read``             — work required before reads are allowed
  (Steins drains its NV parent buffer, Sec. III-E).
"""
from __future__ import annotations

import sys
from dataclasses import dataclass, field

from repro.common.config import CounterMode, SystemConfig, UpdateScheme
from repro.common.errors import ConfigError, RecoveryError, TamperDetectedError
from repro.common.units import ns_from_ps
from repro.counters import (
    GeneralCounterBlock,
    OverflowPolicy,
    SplitCounterBlock,
)
from repro.counters.base import IncrementResult
from repro.crypto import cme
from repro.crypto.engine import HashEngine, make_engine
from repro.faults.registry import fire
from repro.integrity.geometry import TreeGeometry, geometry_for
from repro.integrity.metacache import MetadataCache
from repro.integrity.node import SITNode
from repro.integrity.sit import SITRoot, verify_node
from repro.nvm.device import NVMDevice
from repro.nvm.layout import Region
from repro.obs.tracer import EV_SIT_WALK


from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.sim.clock import MemClock

#: persisted data-line value: (tag, ciphertext, hmac, counter_echo)
DataLine = tuple


@dataclass
class ControllerStats:
    """Per-controller observational counters."""

    #: Every ``extra`` counter a scheme may bump, declared up front so
    #: the stats-hygiene lint (SL301) and :meth:`bump` itself reject
    #: typo'd keys instead of silently forking an unread counter.
    KNOWN_KEYS = frozenset({
        "bitmap_writes",
        "buffer_drains",
        "buffered_parent_updates",
        "cache_tree_updates",
        "counter_writethroughs",
        "merged_counter_writes",
        "osiris_stop_loss_writes",
        "set_mac_updates",
        "shadow_writes",
    })

    data_reads: int = 0
    data_writes: int = 0
    read_latency_ps: int = 0
    write_latency_ps: int = 0
    max_read_latency_ps: int = 0
    max_write_latency_ps: int = 0
    metadata_fetches: int = 0
    metadata_writebacks: int = 0
    reencrypted_blocks: int = 0
    extra: dict[str, int] = field(default_factory=dict)

    # Reporting boundary: ns views of the exact ps accumulators.
    @property
    def read_latency_ns(self) -> float:
        return ns_from_ps(self.read_latency_ps)

    @property
    def write_latency_ns(self) -> float:
        return ns_from_ps(self.write_latency_ps)

    @property
    def max_read_latency_ns(self) -> float:
        return ns_from_ps(self.max_read_latency_ps)

    @property
    def max_write_latency_ns(self) -> float:
        return ns_from_ps(self.max_write_latency_ps)

    @property
    def avg_read_ns(self) -> float:
        return self.read_latency_ns / self.data_reads if self.data_reads else 0.0

    @property
    def avg_write_ns(self) -> float:
        return self.write_latency_ns / self.data_writes if self.data_writes else 0.0

    def bump(self, key: str, n: int = 1) -> None:
        if key not in self.KNOWN_KEYS:
            raise ValueError(
                f"undeclared stats key {key!r}; declare it in "
                "ControllerStats.KNOWN_KEYS so figures stay exhaustive")
        self.extra[key] = self.extra.get(key, 0) + n


class SecureMemoryController:
    """Base secure controller: CME + SIT with lazy updates."""

    #: scheme label, overridden by subclasses ("wb", "asit", ...)
    name = "base"
    #: whether crash recovery is supported
    supports_recovery = False
    #: self-incrementing schemes persist a flushed victim only at the end
    #: of its flush, so mid-flush fetches must use the live in-flight
    #: object; Steins persists first (generated counters need no parent)
    #: and overrides this to False so fetches read the already-current NVM
    uses_inflight_fetch = True
    #: whether the scheme works under the eager update scheme (Sec. II-C);
    #: STAR's echoes and Steins' generated counters both require lazy
    supports_eager_updates = True

    def __init__(self, cfg: SystemConfig, device: NVMDevice,
                 clock: "MemClock") -> None:
        # eviction/flush chains are recursive across levels and sets;
        # physically bounded, but give CPython generous headroom.
        if sys.getrecursionlimit() < 100_000:
            sys.setrecursionlimit(100_000)
        self.cfg = cfg
        self.device = device
        self.clock = clock
        self.tracer = clock.tracer
        self.engine: HashEngine = make_engine(
            cfg.security.secret_key,
            cryptographic=cfg.security.cryptographic_hashes)
        self.geometry: TreeGeometry = geometry_for(
            cfg.num_data_blocks, cfg.security)
        self.metacache = MetadataCache(cfg.security.metadata_cache,
                                       tracer=self.tracer)
        self.root = SITRoot(self.geometry)
        self.stats = ControllerStats()
        self._leaf_split = cfg.security.counter_mode is CounterMode.SPLIT
        self._overflow_policy = self._leaf_overflow_policy()
        self._eager = cfg.security.update_scheme is UpdateScheme.EAGER
        if self._eager and not self.supports_eager_updates:
            raise RecoveryError(
                f"scheme {self.name!r} requires the lazy update scheme "
                "(its recovery protocol depends on dirty nodes being "
                "consistent with their *persisted* children)")
        self._crashed = False
        #: dirty victims between removal and persist (see ``_install``)
        self._inflight: dict[int, SITNode] = {}
        # Geometry scalars flattened into locals of the fetch walk: the
        # walk runs several times per LLC miss, and the checked geometry
        # helpers (validated (level, index) on every call) dominated it.
        # All walk-internal identities derive from validated data-block
        # addresses, so the checks are redundant there.
        g = self.geometry
        self._top_level = g.top_level
        self._arity = g.arity
        self._leaf_cov = g.leaf_coverage
        self._num_blocks = cfg.num_data_blocks
        self._level_offs = tuple(
            g.node_offset(lv, 0) for lv in range(g.num_levels))
        #: (level, index) -> sealed all-zero HMAC; the canonical empty
        #: node is deterministic per identity, so re-fetches of untouched
        #: tree regions skip the digest (bit-identical by construction)
        self._empty_hmacs: dict[tuple[int, int], int] = {}

    # ------------------------------------------------------------ hooks
    def _leaf_overflow_policy(self) -> OverflowPolicy:
        """Baselines use the conventional split counter; Steins overrides
        with the skip-update policy (Sec. III-B.1)."""
        return OverflowPolicy.PLAIN

    def _on_metadata_modified(self, offset: int, node: SITNode) -> None:
        """Counter content of a cached node changed."""

    def _on_clean_to_dirty(self, offset: int, node: SITNode) -> None:
        """A resident node transitioned clean -> dirty."""

    def _on_dirty_to_clean(self, offset: int, node: SITNode,
                           evicted: bool) -> None:
        """A dirty node was persisted (in place or by eviction)."""

    def _on_leaf_incremented(self, offset: int, node: SITNode,
                             result: IncrementResult) -> None:
        """A leaf counter was bumped by a data write."""

    def _pre_read(self) -> None:
        """Invoked before any read operation is served."""

    # -------------------------------------------------------- data path
    def write_data(self, block_addr: int, plaintext: int) -> None:
        """Handle a dirty data-block eviction from the LLC (Sec. III-F)."""
        self._check_alive()
        fire("controller.write")
        t0 = self.clock.now_ps
        if not 0 <= block_addr < self._num_blocks:
            raise ConfigError(f"data block {block_addr} out of range")
        leaf_index = block_addr // self._leaf_cov
        slot = block_addr - leaf_index * self._leaf_cov
        leaf_offset = self._level_offs[0] + leaf_index
        leaf = self._ensure_node(0, leaf_index)

        result = leaf.block.increment(slot)
        self.clock.alu_op()
        self._mark_dirty(leaf_offset, leaf)
        self._on_leaf_incremented(leaf_offset, leaf, result)
        self._on_metadata_modified(leaf_offset, leaf)
        if self._eager:
            # eager update scheme (Sec. II-C): every ancestor on the
            # branch is updated on each data write — significant memory
            # access and computation overhead on cache misses
            self._eager_update_branch(leaf_index)
        if result.minor_overflow:
            # all minors were reset: every covered block must be
            # re-encrypted under its new counter (Sec. II-B)
            self._reencrypt_leaf(leaf_index, leaf, skip_slot=slot)

        counter = leaf.block.counter(slot)
        self.clock.aes_op()   # OTP generation (serial on the write path)
        cipher = cme.encrypt_block(self.engine, block_addr, counter, plaintext)
        self.clock.hash_op()  # data HMAC
        hmac = cme.data_hmac(self.engine, block_addr, counter, plaintext)
        done = self.clock.nvm_write(
            Region.DATA, block_addr, ("data", cipher, hmac, counter))
        self.stats.data_writes += 1
        latency = max(done, self.clock.now_ps) - t0
        self.stats.write_latency_ps += latency
        if latency > self.stats.max_write_latency_ps:
            self.stats.max_write_latency_ps = latency
        if self.tracer.enabled:
            self.tracer.metrics.histogram(
                "ctrl.write.latency_ns").observe(ns_from_ps(latency))

    def read_data(self, block_addr: int) -> int:
        """Handle an LLC demand miss: fetch, decrypt, verify (Sec. III-F)."""
        self._check_alive()
        fire("controller.read")
        t0 = self.clock.now_ps
        self._pre_read()
        if not 0 <= block_addr < self._num_blocks:
            raise ConfigError(f"data block {block_addr} out of range")
        leaf = self._ensure_node(0, block_addr // self._leaf_cov)
        counter = leaf.block.counter(block_addr % self._leaf_cov)

        # The data fetch overlaps OTP generation (CME's latency hiding).
        value, done_data = self.clock.nvm_read_overlapped(
            Region.DATA, block_addr)
        self.clock.aes_op()
        self.clock.join(done_data)

        plaintext = self._decrypt_and_verify(block_addr, counter, value)
        self.stats.data_reads += 1
        latency = self.clock.now_ps - t0
        self.stats.read_latency_ps += latency
        if latency > self.stats.max_read_latency_ps:
            self.stats.max_read_latency_ps = latency
        if self.tracer.enabled:
            self.tracer.metrics.histogram(
                "ctrl.read.latency_ns").observe(ns_from_ps(latency))
        return plaintext

    def _decrypt_and_verify(self, block_addr: int, counter: int,
                            value: DataLine | None) -> int:
        if value is None:
            if counter != 0:
                raise TamperDetectedError(
                    f"data block {block_addr} missing but its counter is "
                    f"{counter} (deletion attack)")
            return 0
        _, cipher, hmac, _echo = value
        plaintext = cme.decrypt_block(self.engine, block_addr, counter, cipher)
        self.clock.hash_op()
        if hmac != cme.data_hmac(self.engine, block_addr, counter, plaintext):
            raise TamperDetectedError(
                f"data HMAC mismatch for block {block_addr}")
        return plaintext

    def _reencrypt_leaf(self, leaf_index: int, leaf: SITNode,
                        skip_slot: int) -> None:
        """Re-encrypt every block a leaf covers after a minor overflow.

        Blocks never written before are materialized as zero plaintext,
        exactly as physical memory cells would be.
        """
        for addr in self.geometry.leaf_data_blocks(leaf_index):
            slot = self.geometry.leaf_slot_for_block(addr)
            if slot == skip_slot:
                continue  # about to be rewritten with fresh data anyway
            old = self.clock.nvm_read(Region.DATA, addr)
            if old is None:
                plaintext = 0
            else:
                _, cipher, hmac, echo = old
                plaintext = cme.decrypt_block(self.engine, addr, echo, cipher)
                self.clock.hash_op()
                if hmac != cme.data_hmac(self.engine, addr, echo, plaintext):
                    raise TamperDetectedError(
                        f"re-encryption found corrupt block {addr}")
                self.clock.aes_op()
            new_counter = leaf.block.counter(slot)
            self.clock.aes_op()
            new_cipher = cme.encrypt_block(
                self.engine, addr, new_counter, plaintext)
            self.clock.hash_op()
            new_hmac = cme.data_hmac(
                self.engine, addr, new_counter, plaintext)
            self.clock.nvm_write(
                Region.DATA, addr, ("data", new_cipher, new_hmac, new_counter))
            self.stats.reencrypted_blocks += 1

    # ----------------------------------------------------- node fetches
    def _ensure_node(self, level: int, index: int) -> SITNode:
        """Return the cached node, fetching + verifying on a miss.

        The verification walk recurses to the first cached ancestor (or
        the root register), exactly as described in Sec. II-C.
        """
        offset = self._level_offs[level] + index
        node = self.metacache.lookup(offset)
        if node is not None:
            self.clock.sram_op()
            return node
        if self.uses_inflight_fetch:
            inflight = self._inflight.get(offset)
            if inflight is not None:
                # mid-flush victim: its live object is the authoritative
                # copy (self-incrementing schemes persist only at the end
                # of the flush)
                return inflight
        # Walk the ancestor chain into the cache.  The walk itself can
        # trigger eviction-flush chains that fetch, update, and even
        # re-persist this very node, so its return value may be stale:
        # the counter used for verification is re-captured below, after
        # the node is read, when the (now-cached) chain is quiescent.
        self._parent_counter(level, index)
        node = self.metacache.peek(offset)
        if node is not None:
            # an eviction chain installed (and possibly updated) it
            return node
        snap = self.clock.nvm_read(Region.TREE, offset)
        if snap is None:
            node = self._empty_node(level, index)
        else:
            node = SITNode.from_snapshot(snap)
            if node.is_leaf and hasattr(node.block, "policy"):
                node.block.policy = self._overflow_policy
        parent_counter = self._parent_counter(level, index)
        self.clock.hash_op()
        verify_node(self.engine, node, parent_counter)
        self.stats.metadata_fetches += 1
        if self.tracer.enabled:
            self.tracer.emit(EV_SIT_WALK, level=level, index=index,
                             offset=offset)
        self._install(offset, node, dirty=False, refresh_on_flush=True)
        cached = self.metacache.peek(offset)
        return cached if cached is not None else node

    def _empty_node(self, level: int, index: int) -> SITNode:
        """Canonical all-zero node for (level, index), seal memoized.

        Identical in content to :func:`make_empty_node`; the sealed HMAC
        is deterministic per node identity, so it is computed once and
        reused across the many re-fetches of untouched tree regions.
        """
        if level == 0 and self._leaf_split:
            block: GeneralCounterBlock | SplitCounterBlock = \
                SplitCounterBlock(policy=self._overflow_policy)
        else:
            block = GeneralCounterBlock()
        node = SITNode(level, index, block)
        hm = self._empty_hmacs.get((level, index))
        if hm is None:
            node.seal(self.engine, parent_counter=0)
            self._empty_hmacs[(level, index)] = node.hmac
        else:
            node.hmac = hm
        return node

    def _parent_counter(self, level: int, index: int) -> int:
        """Counter covering (level, index) from its parent or the root."""
        if level == self._top_level:
            return self.root.counter(index)
        arity = self._arity
        return self._ensure_node(level + 1, index // arity) \
            .counter(index % arity)

    def _install(self, offset: int, node: SITNode, dirty: bool,
                 refresh_on_flush: bool = False) -> None:
        """Insert a node, flushing dirty victims first.

        ``refresh_on_flush`` guards against a fetch/insert race: the
        eviction chain below can re-fetch, update, evict, and re-persist
        ``offset`` itself, making the caller's fetched snapshot stale.
        When any victim was flushed, the node is re-materialized from the
        (self-written, hence trusted) NVM copy just before insertion.

        Two further consistency rules govern the loop:

        * between a dirty victim's removal and its persist, its latest
          state exists only in the in-flight object, so it is published
          in ``_inflight``: a recursive fetch during the victim's own
          flush (e.g. a deeper eviction whose parent *is* the victim)
          gets the live object instead of forking the stale NVM copy —
          and any counter it gains there is persisted by the very flush
          in progress, because the flush seals and writes only after its
          parent walk completes;
        * recursive ancestor fetches may install ``offset`` themselves;
          the recursively installed copy is authoritative (it may already
          have absorbed counter updates) and this insert is dropped.
        """
        flushed_any = False
        while True:
            if self.metacache.contains(offset):
                if dirty:
                    self._mark_dirty(offset, self.metacache.peek(offset))
                return
            victim = self.metacache.victim_candidate(offset)
            if victim is None or not victim[2]:
                if flushed_any and refresh_on_flush:
                    snap = self.device.peek(Region.TREE, offset)
                    if snap is not None:
                        node = SITNode.from_snapshot(snap)
                        if node.is_leaf and hasattr(node.block, "policy"):
                            node.block.policy = self._overflow_policy
                self.metacache.insert(offset, node, dirty)
                return
            voff, vnode, _ = victim
            fire("controller.evict")
            self.metacache.remove(voff)
            self.metacache.stats.evictions += 1
            self.metacache.stats.dirty_evictions += 1
            # Steins can re-fetch and re-evict the same offset while an
            # outer flush of it is still in its (post-persist) apply
            # phase, nesting two in-flight copies: save and restore.
            outer_inflight = self._inflight.get(voff)
            self._inflight[voff] = vnode
            try:
                self._flush_dirty_node(vnode)
            finally:
                if outer_inflight is None:
                    self._inflight.pop(voff, None)
                else:
                    self._inflight[voff] = outer_inflight
            self._on_dirty_to_clean(voff, vnode, evicted=True)
            flushed_any = True

    def _mark_dirty(self, offset: int, node: SITNode) -> None:
        if self.metacache.mark_dirty(offset):
            self._on_clean_to_dirty(offset, node)

    def force_install(self, offset: int, node: SITNode,
                      slot: int | None = None) -> None:
        """Recovery-side install: the given content is authoritative and
        must land in the cache marked dirty, even if a (stale) copy was
        pulled in by an eviction chain in the meantime.

        ``slot`` pins the node to the cache line its durable tracking
        entry (offset record, shadow slot) names, so a reinstall leaves
        that entry valid without a fresh tracking write — the keystone
        of restartable recovery: a crash between any two reinstalls
        still finds every not-yet-reinstalled node covered.
        """
        existing = self.metacache.peek(offset)
        if existing is None and slot is not None and \
                self.metacache.insert_at(offset, node, dirty=False,
                                         slot=slot):
            existing = node
        if existing is None:
            self._install(offset, node, dirty=False)
            existing = self.metacache.peek(offset)
        if existing is not None and existing is not node:
            existing.block = node.block
            existing.hmac = node.hmac
        target = existing if existing is not None else node
        self._mark_dirty(offset, target)

    def _eager_update_branch(self, leaf_index: int) -> None:
        """Bump every ancestor's counter on the leaf's branch.

        Each ancestor is pulled into the cache (iterative verified reads
        on the write path when it misses), incremented in the slot that
        covers the write, marked dirty, and — for ASIT/STAR — shadowed /
        set-MACed, which is what makes eager updates expensive.
        """
        g = self.geometry
        node_id: tuple[int, int] | None = (0, leaf_index)
        while node_id is not None:
            slot = g.parent_slot(*node_id)
            parent = g.parent(*node_id)
            self.clock.alu_op()
            self.clock.hash_op()   # the branch HMACs recompute eagerly
            if parent is None:
                self.root.add(slot, 1)
                break
            pnode = self._ensure_node(*parent)
            poff = g.node_offset(*parent)
            pnode.block.set_counter(slot, pnode.counter(slot) + 1)
            if self.metacache.contains(poff):
                self._mark_dirty(poff, pnode)
                self._on_metadata_modified(poff, pnode)
            node_id = parent

    # ---------------------------------------------------- flush protocol
    def _flush_dirty_node(self, node: SITNode) -> None:
        """Write-back flush (the conventional SIT scheme of WB/ASIT/STAR).

        Lazy (Sec. II-C): the parent counter self-increments at eviction
        time.  Eager: ancestors were already updated at write time, so
        the node is sealed under the parent's *current* counter.  Either
        way the parent must be fetched if missing — iterative reads on
        the write critical path that Steins specifically removes.
        """
        if self._eager:
            parent_counter = self._parent_counter(node.level, node.index)
        else:
            parent_counter = self._bump_parent(node)
        self.clock.hash_op()
        node.seal(self.engine, parent_counter)
        self._persist_node(node)

    def _bump_parent(self, node: SITNode) -> int:
        """Self-increment the parent counter for ``node``; returns it."""
        level, index = node.level, node.index
        self.clock.alu_op()
        if level == self._top_level:
            self.root.add(index, 1)
            return self.root.counter(index)
        pindex, slot = divmod(index, self._arity)
        pnode = self._ensure_node(level + 1, pindex)
        poff = self._level_offs[level + 1] + pindex
        pnode.block.set_counter(slot, pnode.counter(slot) + 1)
        if self.metacache.contains(poff):
            self._mark_dirty(poff, pnode)
            self._on_metadata_modified(poff, pnode)
        # else: the parent is itself mid-flush; the bump rides along with
        # the flush already in progress and is durable without hooks
        return pnode.counter(slot)

    def _persist_node(self, node: SITNode) -> None:
        self.clock.nvm_write(
            Region.TREE,
            self._level_offs[node.level] + node.index,
            node.snapshot())
        self.stats.metadata_writebacks += 1

    # -------------------------------------------------------- lifecycle
    def flush_all(self) -> None:
        """Graceful shutdown: persist every dirty node, leaves first so
        parent counters absorb child flushes before their own.

        Child flushes mark parents dirty, and parent fetches can evict
        and flush other entries mid-loop, so the pass repeats until no
        dirty node remains.
        """
        self._check_alive()
        for _ in range(4 * self.geometry.num_levels + 8):
            dirty = sorted(self.metacache.dirty_entries(),
                           key=lambda e: e[1].level)
            if not dirty:
                return
            for offset, node in dirty:
                if not self.metacache.is_dirty(offset):
                    continue  # an eviction or deeper flush already did it
                # Flush the *live* cache entry, not the snapshotted
                # object: a nested drain earlier in this pass can evict
                # the node and re-fetch it as a fresh object carrying a
                # freshly applied child counter — persisting the stale
                # snapshot would overwrite that update in NVM while the
                # mark_clean below erases the only dirty bit pointing at
                # it (cold restart then fails HMAC verification).
                live = self.metacache.peek(offset)
                if live is not None:
                    node = live
                fire("controller.flush")
                # Clean *before* flushing: the flush's parent-update
                # phase can re-enter this node (a nested drain applying
                # another child's counter after the persist) and re-mark
                # it dirty; a mark_clean afterwards would erase that and
                # strand the update in a clean cache entry NVM never saw.
                self.metacache.mark_clean(offset)
                self._flush_dirty_node(node)
                self._on_dirty_to_clean(offset, node, evicted=False)
        if self.metacache.dirty_count():
            raise AssertionError("flush_all failed to reach a clean state")

    def crash(self) -> None:
        """Power failure: volatile controller state is lost."""
        self.metacache.clear()
        self._crash_volatile_state()
        self._crashed = True

    def _crash_volatile_state(self) -> None:
        """Scheme-specific volatile state dropped at crash time."""

    def recover(self) -> "object":
        """Rebuild a consistent metadata state after a crash."""
        raise RecoveryError(
            f"scheme {self.name!r} does not support recovery")

    def _check_alive(self) -> None:
        if self._crashed:
            raise RecoveryError(
                f"controller {self.name!r} crashed; recover() first")

    # ------------------------------------------------------ recovery API
    # The recovery protocol (repro.core.recovery, scheme recover()
    # overrides) and the consistency checker run *outside* the
    # controller; everything they need is exposed here so they never
    # reach into private state (enforced by simlint SL001/SL002).

    @property
    def leaf_split(self) -> bool:
        """Whether leaves use the split counter organisation."""
        return self._leaf_split

    @property
    def overflow_policy(self) -> OverflowPolicy:
        """Leaf overflow policy; recovery rebuilds leaves under it."""
        return self._overflow_policy

    def inflight_node(self, offset: int) -> SITNode | None:
        """The live mid-flush victim for ``offset``, if one exists.

        Between a dirty victim's removal from the cache and its persist,
        the in-flight object is the authoritative copy (see
        ``_install``); consistency checks must consult it."""
        return self._inflight.get(offset)

    def mark_recovered(self) -> None:
        """Recovery completed: the controller accepts operations again."""
        self._crashed = False

    # ---------------------------------------------------- oracle hooks
    def oracle_snapshot(self) -> dict[str, object]:
        """Everything the differential oracle (:mod:`repro.oracle`)
        compares across a crash/recovery cycle, scheme-independently:

        * ``root``  — the on-chip root counters (must never regress),
        * ``tree``  — the persisted TREE region (nodes must not vanish),
        * ``dirty`` — dirty cached nodes (recovery must restore them),
        * ``extra`` — the scheme's own durable structures, declared via
          :meth:`_oracle_extra_state` (simlint SL701 requires every
          controller subclass to define it).
        """
        return {
            "root": self.root.snapshot(),
            "tree": self.tree_state_fingerprint(),
            "dirty": {off: node.snapshot()
                      for off, node in self.metacache.dirty_entries()},
            "extra": self.oracle_extra_state(),
        }

    def oracle_extra_state(self) -> dict[str, object]:
        """The ``extra`` of :meth:`oracle_snapshot` alone."""
        return self._oracle_extra_state()

    def _oracle_extra_state(self) -> dict[str, object]:
        """Scheme-specific durable state for :meth:`oracle_snapshot`.

        Subclasses must define this explicitly — an empty dict is a
        valid answer, but it has to be a *stated* answer, so a new
        scheme cannot silently keep its trust bases invisible to the
        conformance harness (enforced statically by SL701).
        """
        return {}

    # ------------------------------------------------------- inspection
    def cached_dirty_offsets(self) -> set[int]:
        return {off for off, _ in self.metacache.dirty_entries()}

    def tree_state_fingerprint(self) -> dict[int, tuple]:
        """Persisted TREE region as {offset: snapshot} for golden checks."""
        return dict(self.device.populated(Region.TREE))
