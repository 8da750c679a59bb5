"""The iterative SIT fetch walk against the recursive one it replaced.

Every scheme is built twice on the same configuration: once as shipped,
once with ``tests/walk_reference.RecursiveWalk`` in front of it.  Both
get the same random writes, reads and ``flush_all`` calls on a metadata
cache of 8 or 16 lines, so fetch walks climb several levels, eviction-
flush chains run inside them, Steins' NV buffer fills and drains, and
the eager update scheme bumps whole branches.  After every op the two
must agree on the returned plaintext (or the error raised), the
metadata cache's stats, the controller's stats, every energy op count,
the simulated time and the persisted TREE region.
"""
import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import UpdateScheme, small_config
from repro.nvm.device import NVMDevice
from repro.nvm.energy import EnergyMeter
from repro.sim.clock import MemClock
from repro.sim.runner import VARIANTS
from repro.sim.system import SCHEMES, make_layout
from tests.conftest import scaled
from tests.walk_reference import with_recursive_walk

#: a near span that shares ancestors, and the whole 1M-block space
ADDR = st.one_of(st.integers(0, 1023), st.integers(0, (1 << 20) - 1))
OPS = st.one_of(
    st.tuples(st.just("write"), ADDR, st.integers(0, (1 << 64) - 1)),
    st.tuples(st.just("read"), ADDR),
    st.tuples(st.just("flush")),
)
#: (lines, ways) of the metadata cache: 4 sets of 2 ways, 4 sets of 4
SHAPES = st.sampled_from([(8, 2), (16, 4)])

#: every variant on the lazy update scheme, and those that support it
#: on the eager one
CASES = [(variant, False) for variant in VARIANTS] + [
    (variant, True) for variant in VARIANTS
    if SCHEMES[VARIANTS[variant][0]].supports_eager_updates]


def build(variant: str, eager: bool, recursive: bool,
          shape: tuple[int, int] = (16, 4)):
    scheme, mode = VARIANTS[variant]
    lines, ways = shape
    cfg = small_config(mode).with_metadata_cache(lines * 64, ways=ways)
    if eager:
        cfg = dataclasses.replace(cfg, security=dataclasses.replace(
            cfg.security, update_scheme=UpdateScheme.EAGER))
    cls = SCHEMES[scheme]
    if recursive:
        cls = with_recursive_walk(cls)
    device = NVMDevice(make_layout(cfg))
    clock = MemClock(cfg, device, EnergyMeter(cfg.energy))
    return cls(cfg, device, clock)


def apply(controller, op: tuple):
    """The op's result, or the type of the error it raised."""
    try:
        if op[0] == "write":
            return controller.write_data(op[1], op[2])
        if op[0] == "read":
            return controller.read_data(op[1])
        return controller.flush_all()
    except Exception as exc:  # compared across the two walks
        return type(exc)


def observed(controller) -> tuple:
    return (vars(controller.metacache.stats),
            vars(controller.stats),
            controller.clock.meter.breakdown.as_dict(),
            controller.clock.now_ps,
            controller.tree_state_fingerprint())


@pytest.mark.parametrize("variant,eager", CASES,
                         ids=[f"{v}-{'eager' if e else 'lazy'}"
                              for v, e in CASES])
@settings(max_examples=scaled(25))
@given(shape=SHAPES, ops=st.lists(OPS, min_size=1, max_size=40))
def test_iterative_walk_matches_recursive(variant, eager, shape, ops):
    flat = build(variant, eager, recursive=False, shape=shape)
    ref = build(variant, eager, recursive=True, shape=shape)
    for op in ops:
        assert apply(flat, op) == apply(ref, op), op
        assert observed(flat) == observed(ref), op


@pytest.mark.parametrize("variant,eager", CASES,
                         ids=[f"{v}-{'eager' if e else 'lazy'}"
                              for v, e in CASES])
def test_walks_climb_and_evict(variant, eager):
    """The random runs above reach the paths they exist to compare: a
    scattered run on the 16-line cache fetches several levels per miss
    and flushes dirty victims from inside the walk."""
    flat = build(variant, eager, recursive=False)
    ref = build(variant, eager, recursive=True)
    for i in range(60):
        addr = (i * 104_729) % (1 << 20)
        for controller in (flat, ref):
            controller.write_data(addr, i)
            assert controller.read_data(addr) == i
    for controller in (flat, ref):
        controller.flush_all()
    assert observed(flat) == observed(ref)
    stats = flat.metacache.stats
    assert flat.stats.metadata_fetches > 2 * 60
    assert stats.dirty_evictions > 0
