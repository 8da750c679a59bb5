"""Three-level cache hierarchy: inclusion, writebacks, clwb, and the
fused access kernel against the per-level reference algorithm."""
import dataclasses
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.figures import figure_config
from repro.common.config import CacheConfig, HierarchyConfig
from repro.mem.hierarchy import (
    CLWB,
    READ,
    TAIL,
    WRITE_BACK,
    CacheHierarchy,
    MemOp,
)
from repro.workloads import get_profile
from tests.cache_reference import RefHierarchy, dirty_lines
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
    assert dirty_lines(h.l1, h.l2, h.l3) >= {0, 2}


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
    assert (dirty_lines(fused.l1, fused.l2, fused.l3)
            == dirty_lines(ref.l1, ref.l2, ref.l3))


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


# ------------------------------------------------- segment kernel vs reference
def reference_segment(ref: RefHierarchy, segment, flush_writes: bool):
    """The calls the access loop made around the per-level algorithm:
    ``(cycles, line << 2 | kind, index << 32 | k)`` per controller call,
    cycles accumulated since the previous call, then the ``TAIL``."""
    counts: dict[int, int] = {}
    calls = []
    pending = 0
    for i, (is_write, line, gap) in enumerate(segment):
        if is_write:
            counts[line] = counts.get(line, 0) + 1
        result = ref.access(line, is_write)
        pending += gap + result.cycles
        for request in result.requests:
            if request.op is MemOp.WRITE:
                calls.append((pending, request.line_addr << 2 | WRITE_BACK,
                              i << 32 | counts.get(request.line_addr, 0)))
            else:
                calls.append((pending, request.line_addr << 2 | READ,
                              i << 32))
            pending = 0
        if is_write and flush_writes and ref.clwb(line):
            calls.append((pending, line << 2 | CLWB, i << 32 | counts[line]))
            pending = 0
    calls.append((pending, TAIL, len(segment) << 32))
    return calls, counts


def segments(lines: int):
    access = st.tuples(st.booleans(), st.integers(0, lines - 1),
                       st.integers(0, 500))
    return st.lists(st.tuples(st.lists(access, max_size=120), st.booleans()),
                    min_size=1, max_size=6)


def run_segments(cfg: HierarchyConfig, segs) -> None:
    """Run segments through the kernel and the reference on one
    hierarchy each; after each, the same calls in order, store counts,
    sets in LRU order and per-level stats."""
    kernel, ref = CacheHierarchy(cfg), RefHierarchy(cfg)
    for segment, flush_writes in segs:
        counts: dict[int, int] = {}
        got = list(kernel.run([a[1] for a in segment],
                              [a[0] for a in segment],
                              [a[2] for a in segment], flush_writes, counts))
        assert (got, counts) == reference_segment(ref, segment, flush_writes)
        assert cache_state(kernel) == cache_state(ref)
        assert_inclusive(kernel)


@settings(max_examples=scaled(100))
@given(segments(24))
def test_segment_kernel_matches_reference_tiny(segs):
    run_segments(KERNEL_CONFIGS["tiny"], segs)


@settings(max_examples=scaled(100))
@given(segments(16))
def test_segment_kernel_matches_reference_inverted(segs):
    run_segments(KERNEL_CONFIGS["inverted"], segs)


@settings(max_examples=scaled(60))
@given(segments(320))
def test_segment_kernel_matches_reference_figure_ratios(segs):
    run_segments(KERNEL_CONFIGS["figure-ratios"], segs)


def test_closed_kernel_stops_at_the_call_it_yielded():
    """A consumer that stops at a call sees the hierarchy as the loop
    left it there: that access run (its ``clwb`` only for a ``CLWB``
    call), later ones not, and the stats of the accesses run."""
    cfg = KERNEL_CONFIGS["tiny"]
    segment = [(i % 3 == 0, (7 * i) % 24, i) for i in range(60)]
    full = list(CacheHierarchy(cfg).run([a[1] for a in segment],
                                        [a[0] for a in segment],
                                        [a[2] for a in segment], True, {}))
    for stop in range(len(full)):
        kernel = CacheHierarchy(cfg)
        counts: dict[int, int] = {}
        calls = kernel.run([a[1] for a in segment], [a[0] for a in segment],
                           [a[2] for a in segment], True, counts)
        for _ in range(stop + 1):
            call = next(calls)
        calls.close()
        index, kind = call[2] >> 32, call[1] & 3
        ref = RefHierarchy(cfg)
        if kind == TAIL:
            reference_segment(ref, segment, True)
        else:
            head = segment[:index]
            reference_segment(ref, head, True)
            is_write, line, _ = segment[index]
            ref.access(line, is_write)
            if kind == CLWB:
                ref.clwb(line)
        assert cache_state(kernel) == cache_state(ref)
        assert counts == Counter(line for is_write, line, _
                                 in segment[:index + 1] if is_write)


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
    assert 0 in written or 0 in dirty_lines(h.l1, h.l2, h.l3)
