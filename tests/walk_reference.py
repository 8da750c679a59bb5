"""Recursive reference for the controller's SIT fetch walk.

``SecureMemoryController._fetch`` climbs to the first ancestor that can
vouch for a missed node in one loop and descends in a second.  It
replaced a recursion between ``_ensure_node`` and ``_parent_counter``
that made about 2.7 Python calls per fetched node, and ``_install``
checked ``contains`` before every victim, not only after a flush.  This
module keeps that recursion and that ``_install``, verbatim apart from
the pending-update check, which the schemes now answer through
``_pending_parent`` instead of overriding ``_parent_counter``.
``RecursiveWalk`` is a mixin: put it in front of any controller class
(:func:`with_recursive_walk`) to get the same scheme on the old walk.
``tests/test_walk_reference.py`` requires the two walks to agree on
everything a run can observe.
"""
from __future__ import annotations

from repro.baselines.base import SecureMemoryController
from repro.faults.registry import fire
from repro.integrity.node import SITNode
from repro.integrity.sit import verify_node
from repro.nvm.layout import Region
from repro.obs.tracer import EV_SIT_WALK


class RecursiveWalk:
    """The recursive ``_ensure_node``/``_parent_counter`` pair and the
    ``_install`` they called."""

    def _ensure_node(self, level: int, index: int) -> SITNode:
        offset = self._level_offs[level] + index
        node = self.metacache.lookup(offset)
        if node is not None:
            self.clock.sram_op()
            return node
        if self.uses_inflight_fetch:
            inflight = self._inflight.get(offset)
            if inflight is not None:
                return inflight
        # Walk the ancestor chain into the cache; the counter used for
        # verification is re-captured below, after the node is read.
        self._parent_counter(level, index)
        node = self.metacache.peek(offset)
        if node is not None:
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

    def _install(self, offset: int, node: SITNode, dirty: bool,
                 refresh_on_flush: bool = False) -> None:
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

    def _parent_counter(self, level: int, index: int) -> int:
        pending = self._pending_parent(level, index)
        if pending is not None:
            return pending
        if level == self._top_level:
            return self.root.counter(index)
        arity = self._arity
        return self._ensure_node(level + 1, index // arity) \
            .counter(index % arity)


def with_recursive_walk(cls: type[SecureMemoryController]
                        ) -> type[SecureMemoryController]:
    """``cls`` on the recursive walk."""
    return type(f"Recursive{cls.__name__}", (RecursiveWalk, cls), {})
