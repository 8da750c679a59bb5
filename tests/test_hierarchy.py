"""Three-level cache hierarchy: inclusion, writebacks, clwb, and the
fused access kernel against the per-level reference algorithm."""
import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.figures import figure_config
from repro.common.config import CacheConfig, HierarchyConfig
from repro.mem.hierarchy import CacheHierarchy, MemOp
from repro.workloads import get_profile
from tests.cache_reference import RefHierarchy
from tests.conftest import scaled


def tiny_hierarchy() -> CacheHierarchy:
    return CacheHierarchy(HierarchyConfig(
        l1=CacheConfig(2 * 64, 1),
        l2=CacheConfig(4 * 64, 2),
        l3=CacheConfig(8 * 64, 2),
    ))


def test_cold_miss_produces_memory_read():
    h = tiny_hierarchy()
    res = h.access(100, is_write=False)
    assert [r.op for r in res.requests] == [MemOp.READ]
    assert res.requests[0].line_addr == 100


def test_hit_after_fill_is_free_of_requests():
    h = tiny_hierarchy()
    h.access(100, False)
    res = h.access(100, False)
    assert res.requests == []
    assert res.cycles == h.cfg.l1_hit_cycles


def test_l2_hit_latency():
    h = tiny_hierarchy()
    h.access(0, False)
    # push 0 out of the 2-line direct-mapped L1 but keep it in L2
    h.access(2, False)
    h.access(4, False)
    res = h.access(0, False)
    assert res.cycles in (h.cfg.l2_hit_cycles, h.cfg.l3_hit_cycles)
    assert res.requests == []


def test_dirty_line_eventually_written_back():
    h = tiny_hierarchy()
    h.access(0, is_write=True)
    writes = []
    # stream enough distinct lines through to force 0 out of every level
    for addr in range(1, 64):
        res = h.access(addr, False)
        writes += [r.line_addr for r in res.requests if r.op is MemOp.WRITE]
    assert 0 in writes


def test_clean_lines_never_written_back():
    h = tiny_hierarchy()
    for addr in range(64):
        res = h.access(addr, False)
        assert all(r.op is MemOp.READ for r in res.requests)


def test_clwb_clears_dirtiness():
    h = tiny_hierarchy()
    h.access(0, is_write=True)
    assert h.clwb(0)            # was dirty somewhere
    assert not h.clwb(0)        # now clean
    writes = []
    for addr in range(1, 64):
        res = h.access(addr, False)
        writes += [r.line_addr for r in res.requests if r.op is MemOp.WRITE]
    assert 0 not in writes      # no double writeback after clwb


def test_flush_dirty_lists_all_levels():
    h = tiny_hierarchy()
    h.access(0, True)
    h.access(2, True)
    assert set(h.flush_dirty()) >= {0, 2}


def test_clear_drops_everything():
    h = tiny_hierarchy()
    h.access(0, True)
    h.clear()
    res = h.access(0, False)
    assert [r.op for r in res.requests] == [MemOp.READ]


def test_write_allocates_line():
    h = tiny_hierarchy()
    res = h.access(7, is_write=True)
    # write miss fills the line from memory (write-allocate)
    assert MemOp.READ in [r.op for r in res.requests]
    res2 = h.access(7, is_write=False)
    assert res2.requests == []


# ------------------------------------------------ fused kernel vs reference
# Kernel configs: the tiny one above; figure_config()'s geometry (L1
# 2-way, L2 and L3 8-way, sizes 1:8:32) scaled down 64x; and lower
# levels smaller than L1, where most fills back-invalidate.
KERNEL_CONFIGS = {
    "tiny": HierarchyConfig(
        l1=CacheConfig(2 * 64, 1),
        l2=CacheConfig(4 * 64, 2),
        l3=CacheConfig(8 * 64, 2),
    ),
    "figure-ratios": HierarchyConfig(
        l1=CacheConfig(4 * 64, 2),
        l2=CacheConfig(32 * 64, 8),
        l3=CacheConfig(128 * 64, 8),
    ),
    "inverted": HierarchyConfig(
        l1=CacheConfig(8 * 64, 4),
        l2=CacheConfig(4 * 64, 1),
        l3=CacheConfig(4 * 64, 1),
    ),
}


def cache_state(h) -> list:
    """Every set's (key, dirty) pairs in LRU order, then every stats
    field, level by level."""
    return [([list(s.items()) for s in level.sets],
             dataclasses.astuple(level.stats))
            for level in (h.l1, h.l2, h.l3)]


def assert_inclusive(h) -> None:
    """Every L1 line is in L2 and every L2 line in L3: the invariant
    that lets the kernel treat a writeback one level down as a hit."""
    resident = [{key for s in level.sets for key in s}
                for level in (h.l1, h.l2, h.l3)]
    assert resident[0] <= resident[1] <= resident[2]


def replay(cfg: HierarchyConfig, ops, check_every: int = 1) -> None:
    """Drive the fused kernel and the reference with the same ops."""
    fused, ref = CacheHierarchy(cfg), RefHierarchy(cfg)
    for i, (kind, line) in enumerate(ops):
        if kind == "clwb":
            assert fused.clwb(line) == bool(ref.clwb(line))
        else:
            got = fused.access(line, kind == "store")
            want = ref.access(line, kind == "store")
            assert got.cycles == want.cycles
            assert ([(r.op, r.line_addr) for r in got.requests]
                    == [(r.op, r.line_addr) for r in want.requests])
        if i % check_every == 0:
            assert cache_state(fused) == cache_state(ref)
            assert_inclusive(fused)
    assert cache_state(fused) == cache_state(ref)
    assert fused.flush_dirty() == sorted(
        set(ref.l1.dirty_keys()) | set(ref.l2.dirty_keys())
        | set(ref.l3.dirty_keys()))


def op_lists(lines: int):
    return st.lists(st.tuples(st.sampled_from(("load", "store", "clwb")),
                              st.integers(0, lines - 1)),
                    min_size=1, max_size=400)


@settings(max_examples=scaled(150))
@given(op_lists(24))
def test_fused_kernel_matches_reference_tiny(ops):
    replay(KERNEL_CONFIGS["tiny"], ops)


@settings(max_examples=scaled(150))
@given(op_lists(16))
def test_fused_kernel_matches_reference_inverted(ops):
    replay(KERNEL_CONFIGS["inverted"], ops)


@settings(max_examples=scaled(100))
@given(op_lists(320))
def test_fused_kernel_matches_reference_figure_ratios(ops):
    replay(KERNEL_CONFIGS["figure-ratios"], ops)


@pytest.mark.parametrize("workload", ["xalancbmk", "mcf_r", "pers_hash"])
def test_fused_kernel_matches_reference_figure_config(workload):
    """figure_config() itself on a real trace, a clwb after every
    store, past the LLC fill."""
    trace = get_profile(workload).generate(7, 20_000, 1 << 14)
    is_write, lines, _ = trace.columns
    ops = []
    for line, store in zip(lines, is_write):
        ops.append(("store" if store else "load", line))
        if store:
            ops.append(("clwb", line))
    replay(figure_config().hierarchy, ops, check_every=5_000)


# ----------------------------------------------- known back-invalidation gap
@pytest.mark.xfail(strict=True, reason=(
    "back-invalidation drops a dirty upper-level copy with no writeback "
    "(docs/performance.md); fixing it changes the golden stats"))
@pytest.mark.parametrize("cfg,ops", [
    # L2 evicts line 0 (clean there) and invalidates its dirty L1 copy
    (HierarchyConfig(l1=CacheConfig(4 * 64, 2), l2=CacheConfig(4 * 64, 1),
                     l3=CacheConfig(16 * 64, 2)),
     [(0, True), (4, False)]),
    # L3 evicts line 0 (clean there) and invalidates its dirty L1 copy
    (HierarchyConfig(l1=CacheConfig(4 * 64, 4), l2=CacheConfig(4 * 64, 4),
                     l3=CacheConfig(2 * 64, 2)),
     [(0, True), (1, False), (2, False)]),
], ids=["l2-victim", "l3-victim"])
def test_back_invalidation_keeps_dirty_data(cfg, ops):
    h = CacheHierarchy(cfg)
    written = []
    for line, is_write in ops:
        written += [r.line_addr for r in h.access(line, is_write).requests
                    if r.op is MemOp.WRITE]
    # the store to line 0 must be written back or still dirty somewhere
    assert 0 in written or 0 in h.flush_dirty()
