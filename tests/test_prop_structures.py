"""Property-based tests of caches, geometry, and bit packing."""
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.bitfield import pack_fields, unpack_fields
from repro.common.config import CacheConfig
from repro.integrity.geometry import TreeGeometry
from tests.cache_reference import RefCache, dirty_lines
from tests.conftest import scaled


@settings(max_examples=scaled(60))
@given(st.lists(st.tuples(st.integers(0, 200), st.booleans()),
                min_size=1, max_size=300))
def test_cache_capacity_and_residency(ops):
    """The cache never exceeds capacity, and the most recent key of a
    non-conflicting sequence is always resident."""
    cache = RefCache(CacheConfig(8 * 64, 2))
    for key, dirty in ops:
        cache.access(key, dirty)
        assert len(cache) <= 8
        assert cache.contains(key)   # just-accessed key is resident


@settings(max_examples=scaled(60))
@given(st.lists(st.integers(0, 100), min_size=1, max_size=200))
def test_cache_dirty_only_from_writes(keys):
    cache = RefCache(CacheConfig(16 * 64, 4))
    for key in keys:
        cache.access(key, make_dirty=False)
    assert dirty_lines(cache) == set()


@settings(max_examples=scaled(40))
@given(st.integers(65, 1 << 20), st.sampled_from([8, 64]))
def test_geometry_offsets_bijective(num_blocks, coverage):
    g = TreeGeometry(num_data_blocks=num_blocks, leaf_coverage=coverage)
    # probe a sample of nodes at every level
    for level in range(g.num_levels):
        size = g.level_sizes[level]
        for index in sorted({0, size // 2, size - 1}):
            off = g.node_offset(level, index)
            assert g.offset_to_node(off) == (level, index)


@settings(max_examples=scaled(40))
@given(st.integers(65, 1 << 20), st.sampled_from([8, 64]),
       st.integers(0, 1 << 20))
def test_geometry_branch_consistency(num_blocks, coverage, raw_addr):
    g = TreeGeometry(num_data_blocks=num_blocks, leaf_coverage=coverage)
    addr = raw_addr % num_blocks
    branch = g.branch(addr)
    assert branch[-1][0] == g.top_level
    assert addr in g.leaf_data_blocks(branch[0][1])
    # parent slots address the right child everywhere
    for child, parent in zip(branch, branch[1:]):
        slot = g.parent_slot(*child)
        assert g.children(*parent)[slot] == child


@settings(max_examples=scaled(60))
@given(st.lists(st.integers(1, 64), min_size=1, max_size=10).flatmap(
    lambda widths: st.tuples(
        st.just(widths),
        st.tuples(*(st.integers(0, (1 << w) - 1) for w in widths)))))
def test_pack_unpack_roundtrip(widths_values):
    widths, values = widths_values
    packed = pack_fields(widths, list(values))
    assert unpack_fields(widths, packed) == list(values)
