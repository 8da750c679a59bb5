"""The lazy reference model of ``SecureNVMSystem`` against the eager one.

The fill-time check compares what a scheme returns with ``persisted``,
which records whatever value was written back, so it cannot catch a
wrong value.  This test does: it drives the system and
``tests/system_reference.RefSystem`` (the eager model, verbatim) with
the same random stores, loads, compute gaps, ``run_stream`` segments
and crash+recover cycles, on a hierarchy small enough that dirty L3
victims are written back, and after every op requires equal persisted
values, equal architectural values, equal NVM data lines, equal
controller and device stats, and equal simulated time.
"""
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import CacheConfig, HierarchyConfig, small_config
from repro.nvm.layout import Region
from repro.sim.runner import VARIANTS
from repro.sim.system import SecureNVMSystem
from repro.workloads.trace import TraceArrays
from tests.conftest import scaled
from tests.system_reference import RefSystem

#: blocks the ops touch: four times the tiny L3, so it keeps evicting
BLOCKS = 32

TINY = HierarchyConfig(
    l1=CacheConfig(2 * 64, 1),
    l2=CacheConfig(4 * 64, 2),
    l3=CacheConfig(8 * 64, 2),
)

block = st.integers(0, BLOCKS - 1)
gap = st.integers(0, 400)
OPS = st.one_of(
    st.tuples(st.just("store"), block, st.booleans()),
    st.tuples(st.just("load"), block),
    st.tuples(st.just("advance"), gap),
    st.tuples(st.just("stream"),
              st.lists(st.tuples(st.booleans(), block, gap), max_size=40),
              st.booleans()),
    st.tuples(st.just("crash")),
)


def build(cls, variant: str) -> SecureNVMSystem:
    scheme, mode = VARIANTS[variant]
    cfg = dataclasses.replace(small_config(mode), hierarchy=TINY)
    return cls(scheme, cfg, check=True)


def apply(system: SecureNVMSystem, op: tuple) -> None:
    kind = op[0]
    if kind == "store":
        system.store(op[1], flush=op[2])
    elif kind == "load":
        system.load(op[1])
    elif kind == "advance":
        system.advance(op[1])
    elif kind == "stream":
        accesses, flush_writes = op[1], op[2]
        system.run_stream(TraceArrays(
            np.array([a[0] for a in accesses], dtype=bool),
            np.array([a[1] for a in accesses], dtype=np.int64),
            np.array([a[2] for a in accesses], dtype=np.int32),
        ), flush_writes=flush_writes)
    else:
        system.crash()
        system.recover()


def assert_same_state(lazy: SecureNVMSystem, ref: RefSystem) -> None:
    assert lazy.persisted == ref.persisted
    for addr in range(BLOCKS):
        assert lazy.value_of(addr) == ref.current.get(addr, 0), addr
        assert lazy.device.peek(Region.DATA, addr) == \
            ref.device.peek(Region.DATA, addr), addr
    assert vars(lazy.controller.stats) == vars(ref.controller.stats)
    assert lazy.device.stats.snapshot() == ref.device.stats.snapshot()
    assert lazy.clock.now_ps == ref.clock.now_ps
    assert lazy.accesses == ref.accesses


@pytest.mark.parametrize("variant", ["steins-gc", "asit"])
@settings(max_examples=scaled(40))
@given(ops=st.lists(OPS, max_size=30))
def test_lazy_values_match_eager_model(variant, ops):
    lazy = build(SecureNVMSystem, variant)
    ref = build(RefSystem, variant)
    for op in ops:
        apply(lazy, op)
        apply(ref, op)
        assert_same_state(lazy, ref)


def test_unflushed_store_is_written_back_with_its_value():
    """A dirty L3 victim carries the stored value, not a stale one."""
    lazy = build(SecureNVMSystem, "steins-gc")
    ref = build(RefSystem, "steins-gc")
    ops = [("store", 0, False), ("store", 0, False)]
    ops += [("load", addr) for addr in range(1, BLOCKS)]
    for op in ops:
        apply(lazy, op)
        apply(ref, op)
    assert_same_state(lazy, ref)
    assert 0 in lazy.persisted


def test_crash_forgets_unflushed_stores():
    lazy = build(SecureNVMSystem, "steins-gc")
    ref = build(RefSystem, "steins-gc")
    for op in [("store", 3, True), ("store", 3, False), ("crash",),
               ("load", 3), ("store", 3, True)]:
        apply(lazy, op)
        apply(ref, op)
        assert_same_state(lazy, ref)
