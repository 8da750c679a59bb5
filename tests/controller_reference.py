"""Call-per-charge reference for the controller's data path.

``SecureMemoryController.read_data``, ``write_data``, ``_ensure_node``,
``_fetch`` and ``_install`` are self-contained kernels: they charge
hash, AES, SRAM and ALU work straight into ``MemClock.energy`` and
``now_ps``, call the engine's ``otp``/``digest64`` directly, and
install a fetched node with one access to its metadata-cache set.  This
module keeps the methods they replaced, verbatim apart from docstrings
and the ``_pre_read`` hook, which had no override and is gone: one ``MemClock``
call per charge, the ``cme`` wrappers, ``_decrypt_and_verify``,
``verify_node``, and an ``_install`` that asks ``victim_candidate`` and
then ``insert``.  ``CallPerCharge`` is a mixin: put it in front of any
controller class (:func:`with_reference`) to get the same scheme on the
old data path.  ``tests/test_controller_reference.py`` requires the two
to agree on everything a run can observe.
"""
from __future__ import annotations

from repro.baselines.base import SecureMemoryController
from repro.common.errors import ConfigError, TamperDetectedError
from repro.common.units import ns_from_ps
from repro.crypto import cme
from repro.faults.registry import fire
from repro.integrity.node import SITNode
from repro.integrity.sit import verify_node
from repro.nvm.layout import Region
from repro.obs.tracer import EV_SIT_WALK

#: persisted data-line value: (tag, ciphertext, hmac, counter_echo)
DataLine = tuple


class CallPerCharge:
    """The data path as it was before the kernels: one call per charge."""

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
        if not 0 <= block_addr < self._num_blocks:
            raise ConfigError(f"data block {block_addr} out of range")
        leaf = self._ensure_node(0, block_addr // self._leaf_cov)
        counter = leaf.block.counter(block_addr % self._leaf_cov)

        # The data fetch overlaps OTP generation (CME's latency hiding).
        value, done_data = self.clock.nvm_read_overlapped(
            Region.DATA, block_addr)
        self.clock.aes_op()
        if done_data > self.clock.now_ps:
            self.clock.now_ps = done_data

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

    def _ensure_node(self, level: int, index: int) -> SITNode:
        """Return the cached node, fetching + verifying on a miss."""
        node = self.metacache.lookup(self._level_offs[level] + index)
        if node is not None:
            self.clock.sram_op()
            return node
        return self._fetch(level, index)

    def _fetch(self, level: int, index: int) -> SITNode:
        """The verification walk, one ``MemClock`` call per charge."""
        offs = self._level_offs
        offset = offs[level] + index
        inflight = self._inflight if self.uses_inflight_fetch else None
        if inflight:
            node = inflight.get(offset)
            if node is not None:
                # mid-flush victim: its live object is the authoritative
                # copy (self-incrementing schemes persist only at the end
                # of the flush)
                return node
        metacache, clock = self.metacache, self.clock
        pending = self._pending_parent
        top, arity = self._top_level, self._arity
        path = [(level, index, offset)]
        while level != top and pending(level, index) is None:
            level += 1
            index //= arity
            offset = offs[level] + index
            if metacache.lookup(offset) is not None:
                clock.sram_op()
                break
            if inflight and offset in inflight:
                break
            path.append((level, index, offset))
        node = None
        for level, index, offset in reversed(path):
            if node is not None:
                # installing the level above can run eviction-flush
                # chains that fetch, update and re-persist this node
                cached = metacache.peek(offset)
                if cached is not None:
                    node = cached
                    continue
            snap = clock.nvm_read(Region.TREE, offset)
            node = (self._empty_node(level, index) if snap is None
                    else self._node_from_snapshot(snap))
            # The parent counter is captured here, after the read and
            # not during the climb: installing the levels above can run
            # flush chains that bump the parent's slot, re-persist this
            # node or replace the parent object, and the seal in NVM
            # matches only the parent's current slot.  (This is
            # _parent_counter inlined: it runs once per fetched node.)
            parent_counter = pending(level, index)
            if parent_counter is None:
                if level == top:
                    parent_counter = self.root.counter(index)
                else:
                    pindex = index // arity
                    parent = metacache.lookup(offs[level + 1] + pindex)
                    if parent is None:
                        parent = self._fetch(level + 1, pindex)
                    else:
                        clock.sram_op()
                    parent_counter = parent.block.counter(
                        index - pindex * arity)
            clock.hash_op()
            if snap is not None or parent_counter:
                # a never-persisted node carries the seal under counter
                # 0 that _empty_node just took: only a non-zero parent
                # counter can fail it
                verify_node(self.engine, node, parent_counter)
            self.stats.metadata_fetches += 1
            if self.tracer.enabled:
                self.tracer.emit(EV_SIT_WALK, level=level, index=index,
                                 offset=offset)
            node = self._install(offset, node, dirty=False,
                                 refresh_on_flush=True)
        return node

    def _install(self, offset: int, node: SITNode, dirty: bool,
                 refresh_on_flush: bool = False) -> SITNode:
        flushed_any = False
        while True:
            victim = self.metacache.victim_candidate(offset)
            if victim is None or not victim[2]:
                if flushed_any and refresh_on_flush:
                    snap = self.device.peek(Region.TREE, offset)
                    if snap is not None:
                        node = self._node_from_snapshot(snap)
                self.metacache.insert(offset, node, dirty)
                return node
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
            if self.metacache.contains(offset):
                cached = self.metacache.peek(offset)
                if dirty:
                    self._mark_dirty(offset, cached)
                return cached


def with_reference(cls: type[SecureMemoryController]
                   ) -> type[SecureMemoryController]:
    """``cls`` on the call-per-charge data path."""
    return type(f"CallPerCharge{cls.__name__}", (CallPerCharge, cls), {})
