"""Set-associative cache semantics: LRU order, dirtiness, eviction.

Pinned on the per-level reference cache, which the hierarchy's fused
kernel must match (tests/test_hierarchy.py).
"""
from repro.common.config import CacheConfig
from tests.cache_reference import RefCache, dirty_lines


def make_cache(lines=8, ways=2) -> RefCache:
    return RefCache(CacheConfig(lines * 64, ways))


def test_miss_then_hit():
    c = make_cache()
    hit, ev = c.access(100, make_dirty=False)
    assert not hit and ev is None
    hit, _ = c.access(100, make_dirty=False)
    assert hit
    assert c.stats.hits == 1 and c.stats.misses == 1


def test_lru_eviction_order():
    c = make_cache(lines=4, ways=2)  # 2 sets x 2 ways
    s = c.num_sets
    a, b, d = 0, s, 2 * s            # all map to set 0
    c.access(a, False)
    c.access(b, False)
    c.access(a, False)               # a becomes MRU
    _, ev = c.access(d, False)       # evicts b (LRU)
    assert ev is not None and ev.key == b


def test_dirty_propagation_and_eviction():
    c = make_cache(lines=4, ways=1)
    s = c.num_sets
    c.access(0, make_dirty=True)
    _, ev = c.access(s, make_dirty=False)
    assert ev is not None and ev.key == 0 and ev.dirty


def test_hit_ors_dirty_bit():
    c = make_cache()
    c.access(1, make_dirty=False)
    assert not c.is_dirty(1)
    c.access(1, make_dirty=True)
    assert c.is_dirty(1)
    c.access(1, make_dirty=False)   # dirtiness is sticky
    assert c.is_dirty(1)


def test_mark_clean_preserves_position():
    c = make_cache(lines=4, ways=2)
    s = c.num_sets
    c.access(0, True)
    c.access(s, False)   # 0 is LRU now
    c.mark_clean(0)
    _, ev = c.access(2 * s, False)
    assert ev.key == 0 and not ev.dirty


def test_invalidate():
    c = make_cache()
    c.access(5, False)
    assert c.invalidate(5)
    assert not c.contains(5)
    assert not c.invalidate(5)


def test_touch():
    c = make_cache(lines=4, ways=2)
    s = c.num_sets
    c.access(0, False)
    c.access(s, False)
    assert c.touch(0)           # 0 to MRU
    _, ev = c.access(2 * s, False)
    assert ev.key == s
    assert not c.touch(12345)


def test_keys_and_dirty_keys():
    c = make_cache()
    c.access(1, True)
    c.access(2, False)
    assert set(c.keys()) == {1, 2}
    assert dirty_lines(c) == {1}
    assert len(c) == 2


def test_clear():
    c = make_cache()
    c.access(1, True)
    c.clear()
    assert len(c) == 0
    assert not c.contains(1)


def test_set_contents():
    c = make_cache(lines=4, ways=2)
    c.access(0, True)
    contents = c.set_contents(0)
    assert contents == {0: True}
    contents[0] = False          # a copy: cache unaffected
    assert c.is_dirty(0)


def test_hit_rate():
    c = make_cache()
    c.access(1, False)
    c.access(1, False)
    c.access(1, False)
    assert c.stats.hit_rate == 2 / 3
