"""Tree geometry: level math, offsets, the paper's stated heights."""
import pytest

from repro.common.config import ConfigError, CounterMode, default_config
from repro.common.units import GB
from repro.integrity.geometry import TreeGeometry, geometry_for


def small_geometry(coverage=8) -> TreeGeometry:
    return TreeGeometry(num_data_blocks=4096, leaf_coverage=coverage,
                        root_arity=8)


def test_paper_heights_for_16gb():
    """Sec. IV: height 9 with general counters, 8 with split counters."""
    cfg = default_config()
    gc = geometry_for(cfg.num_data_blocks, cfg.security)
    assert gc.height == 9
    sc = geometry_for(
        cfg.with_counter_mode(CounterMode.SPLIT).num_data_blocks,
        cfg.with_counter_mode(CounterMode.SPLIT).security)
    assert sc.height == 8
    assert gc.num_data_blocks == 16 * GB // 64


def test_level_sizes_shrink_by_arity():
    g = small_geometry()
    assert g.level_sizes[0] == 512          # 4096 / 8
    for below, above in zip(g.level_sizes, g.level_sizes[1:]):
        assert above == -(-below // 8)
    assert g.level_sizes[-1] <= g.root_arity


def test_parent_child_inverse():
    g = small_geometry()
    for level in range(1, g.num_levels):
        for index in range(min(20, g.level_sizes[level])):
            for child in g.children(level, index):
                assert g.parent(*child) == (level, index)
                slot = g.parent_slot(*child)
                assert g.children(level, index)[slot] == child
            # a child's position in its range is its parent slot
            for slot, child in enumerate(g.child_range(level, index)):
                assert g.parent_slot(level - 1, child) == slot


def test_top_level_parent_is_root():
    g = small_geometry()
    top = g.top_level
    assert g.parent(top, 0) is None
    assert g.parent_slot(top, 0) == 0
    assert g.parent_slot(top, g.level_sizes[top] - 1) \
        == g.level_sizes[top] - 1


def test_leaf_block_mapping():
    g = small_geometry()
    assert g.leaf_for_block(0) == 0
    assert g.leaf_for_block(7) == 0
    assert g.leaf_for_block(8) == 1
    assert g.leaf_slot_for_block(13) == 5
    assert list(g.leaf_data_blocks(1)) == list(range(8, 16))


def test_offsets_are_dense_and_invertible():
    g = small_geometry()
    seen = set()
    for level in range(g.num_levels):
        for index in range(g.level_sizes[level]):
            off = g.node_offset(level, index)
            assert g.offset_to_node(off) == (level, index)
            seen.add(off)
    assert seen == set(range(g.total_nodes))


def test_branch_walks_to_top():
    g = small_geometry()
    branch = g.branch(100)
    assert branch[0] == (0, g.leaf_for_block(100))
    assert branch[-1][0] == g.top_level
    for (lo_level, lo_idx), (hi_level, hi_idx) in zip(branch, branch[1:]):
        assert (hi_level, hi_idx) == g.parent(lo_level, lo_idx)
    assert len(branch) == g.num_levels


def test_split_coverage_shrinks_tree():
    gc = TreeGeometry(num_data_blocks=1 << 18, leaf_coverage=8)
    sc = TreeGeometry(num_data_blocks=1 << 18, leaf_coverage=64)
    assert sc.num_levels < gc.num_levels
    assert sc.total_nodes < gc.total_nodes


def test_bounds_checking():
    g = small_geometry()
    with pytest.raises(ConfigError):
        g.check_node(99, 0)
    with pytest.raises(ConfigError):
        g.check_node(0, g.level_sizes[0])
    with pytest.raises(ConfigError):
        g.leaf_for_block(g.num_data_blocks)
    with pytest.raises(ConfigError):
        g.offset_to_node(g.total_nodes)
    with pytest.raises(ConfigError):
        g.children(0, 0)   # leaves have data children


def test_invalid_geometry_rejected():
    with pytest.raises(ConfigError):
        TreeGeometry(num_data_blocks=0, leaf_coverage=8)
    with pytest.raises(ConfigError):
        TreeGeometry(num_data_blocks=8, leaf_coverage=8, arity=1)
    with pytest.raises(ConfigError):
        TreeGeometry(num_data_blocks=8, leaf_coverage=8, root_arity=4)


def test_tiny_tree_single_level():
    g = TreeGeometry(num_data_blocks=32, leaf_coverage=8, root_arity=8)
    assert g.num_levels == 1
    assert g.top_level == 0
    assert g.parent(0, 3) is None


def test_partial_last_children():
    # 520 leaves: level 1 has 65 nodes, the last with fewer children
    g = TreeGeometry(num_data_blocks=520 * 8, leaf_coverage=8,
                     root_arity=128)
    last = g.level_sizes[1] - 1
    kids = g.children(1, last)
    assert 1 <= len(kids) <= 8
    assert all(idx < g.level_sizes[0] for _, idx in kids)
