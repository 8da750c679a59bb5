"""Metadata cache: stable way slots, LRU, dirty tracking (Table I)."""
import pytest

from repro.common.config import CacheConfig
from repro.common.errors import ConfigError
from repro.counters import GeneralCounterBlock
from repro.integrity.metacache import MetadataCache
from repro.integrity.node import SITNode


def node(level=0, index=0) -> SITNode:
    return SITNode(level, index, GeneralCounterBlock())


def make_cache(lines=8, ways=2) -> MetadataCache:
    return MetadataCache(CacheConfig(lines * 64, ways))


def test_insert_lookup():
    mc = make_cache()
    n = node()
    assert mc.insert(0, n, dirty=False) is None
    assert mc.lookup(0) is n
    assert mc.stats.hits == 1


def test_lookup_miss_counts():
    mc = make_cache()
    assert mc.lookup(5) is None
    assert mc.stats.misses == 1


def test_peek_no_side_effects():
    mc = make_cache()
    mc.insert(0, node(), False)
    mc.peek(0)
    mc.peek(99)
    assert mc.stats.hits == 0 and mc.stats.misses == 0


def test_duplicate_insert_rejected():
    mc = make_cache()
    mc.insert(0, node(), False)
    with pytest.raises(ConfigError):
        mc.insert(0, node(), False)


def test_way_slots_are_stable_and_distinct():
    mc = make_cache(lines=8, ways=4)
    sets = mc.num_sets
    offsets = [0, sets, 2 * sets, 3 * sets]   # all in set 0
    for off in offsets:
        mc.insert(off, node(index=off), False)
    slots = {mc.slot_of(off) for off in offsets}
    assert len(slots) == 4                    # each entry its own line
    first = mc.way_of(offsets[0])
    mc.lookup(offsets[0])                     # LRU touch must not move it
    assert mc.way_of(offsets[0]) == first


def test_eviction_returns_lru_victim_and_reuses_way():
    mc = make_cache(lines=4, ways=2)
    sets = mc.num_sets
    a, b, c = 0, sets, 2 * sets
    mc.insert(a, node(index=1), dirty=True)
    mc.insert(b, node(index=2), dirty=False)
    victim = mc.insert(c, node(index=3), dirty=False)
    assert victim is not None
    voff, vnode, vdirty = victim
    assert voff == a and vdirty and vnode.index == 1
    # the way freed by a is now used by c
    assert mc.way_of(c) in (0, 1)
    assert mc.stats.dirty_evictions == 1


def test_lookup_hit_moves_to_mru():
    mc = make_cache(lines=4, ways=2)
    sets = mc.num_sets
    mc.insert(0, node(index=1), dirty=False)
    mc.insert(sets, node(index=2), dirty=False)
    assert mc.lookup(0).index == 1
    assert [off for off, _, _ in mc.set_entries(0)] == [sets, 0]
    victim = mc.insert(2 * sets, node(index=3), dirty=False)
    assert victim is not None and victim[0] == sets


def test_victim_candidate_does_not_evict():
    mc = make_cache(lines=4, ways=2)
    sets = mc.num_sets
    mc.insert(0, node(), True)
    mc.insert(sets, node(), False)
    cand = mc.victim_candidate(2 * sets)
    assert cand is not None and cand[0] == 0 and cand[2]
    assert mc.contains(0)   # still there
    assert mc.victim_candidate(1) is None  # other set has free ways


def test_mark_dirty_reports_transition():
    mc = make_cache()
    mc.insert(0, node(), dirty=False)
    assert mc.mark_dirty(0) is True     # clean -> dirty
    assert mc.mark_dirty(0) is False    # already dirty
    assert mc.is_dirty(0)
    mc.mark_clean(0)
    assert not mc.is_dirty(0)
    assert mc.mark_dirty(0) is True


def test_remove_frees_way():
    mc = make_cache(lines=4, ways=1)
    mc.insert(0, node(), False)
    removed = mc.remove(0)
    assert removed is not None
    assert not mc.contains(0)
    assert mc.remove(0) is None
    mc.insert(0, node(), False)  # way is reusable
    assert mc.contains(0)


def test_entries_iteration():
    mc = make_cache()
    mc.insert(0, node(index=0), dirty=True)
    mc.insert(1, node(index=1), dirty=False)
    all_entries = {(off, d) for off, _, d in mc.entries()}
    assert all_entries == {(0, True), (1, False)}
    assert dict(mc.dirty_entries()).keys() == {0}
    assert mc.dirty_count() == 1
    assert len(mc) == 2


def test_set_entries():
    mc = make_cache(lines=8, ways=2)
    sets = mc.num_sets
    mc.insert(0, node(index=0), True)
    mc.insert(sets, node(index=1), False)
    entries = mc.set_entries(0)
    assert {off for off, _, _ in entries} == {0, sets}


def test_clear_resets_ways():
    mc = make_cache(lines=4, ways=2)
    sets = mc.num_sets
    mc.insert(0, node(), True)
    mc.insert(sets, node(), True)
    held = [*mc.sets, *mc.free_ways]
    mc.clear()
    assert len(mc) == 0
    # refilled in place: the controller's install kernel may hold them
    assert all(a is b for a, b in zip(held, [*mc.sets, *mc.free_ways]))
    # all ways free again: two inserts in set 0 evict nothing
    assert mc.insert(0, node(), False) is None
    assert mc.insert(sets, node(), False) is None


def test_way_of_unknown_offset():
    mc = make_cache()
    with pytest.raises(KeyError):
        mc.way_of(123)
