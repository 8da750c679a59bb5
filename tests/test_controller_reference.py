"""The data-path kernels against the call-per-charge methods they replaced.

Every registered variant is built twice on
``small_config(metadata_cache_bytes=512)`` (one set of eight ways): once
as shipped, once with ``tests/controller_reference.CallPerCharge`` in
front of it.  Both get the same random writes, reads, ``flush_all``
calls, bursts that overflow a split leaf's minors, tampered lines,
out-of-range requests and, on recoverable schemes, crash + recover.
After every op the two must agree on the return value (or the error's
type and text), the controller's stats, every energy op count, the
simulated time, the NVM timing stats, the metadata cache's stats and
each set's (offset, dirty, way) entries in LRU order with its free
ways, and every persisted line.
"""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import small_config
from repro.nvm.device import NVMDevice
from repro.nvm.energy import EnergyMeter
from repro.nvm.layout import Region
from repro.sim.clock import MemClock
from repro.sim.runner import VARIANTS
from repro.sim.system import SCHEMES, make_layout
from tests.conftest import scaled
from tests.controller_reference import with_reference

#: a near span that shares ancestors, and the whole 1M-block space
ADDR = st.one_of(st.integers(0, 1023), st.integers(0, (1 << 20) - 1))
#: mostly 64-bit values, sometimes the widest legal and an illegal one
VALUE = st.one_of(st.integers(0, (1 << 64) - 1),
                  st.sampled_from([(1 << 512) - 1, 1 << 512]))
OPS = st.one_of(
    st.tuples(st.just("write"), ADDR, VALUE),
    st.tuples(st.just("read"), ADDR),
    st.tuples(st.just("flush")),
    st.tuples(st.just("crash")),
    # 64 writes overflow a split leaf's 6-bit minor: re-encryption
    st.tuples(st.just("burst"), st.integers(0, 1023),
              st.integers(60, 70)),
    st.tuples(st.just("tamper"), ADDR,
              st.sampled_from(["hmac", "wide", "drop", "tree"])),
    st.tuples(st.just("read"), st.just(1 << 20)),
)


def build(variant: str, reference: bool):
    scheme, mode = VARIANTS[variant]
    cfg = small_config(mode, metadata_cache_bytes=512)
    cls = SCHEMES[scheme]
    if reference:
        cls = with_reference(cls)
    device = NVMDevice(make_layout(cfg))
    clock = MemClock(cfg, device, EnergyMeter(cfg.energy))
    return cls(cfg, device, clock)


def tamper(controller, addr: int, kind: str) -> None:
    """Corrupt a persisted line the way an attacker could."""
    device = controller.device
    if kind == "tree":
        offset = controller.geometry.node_offset(
            0, addr // controller.geometry.leaf_coverage)
        snap = device.peek(Region.TREE, offset)
        if snap is not None:
            device.poke(Region.TREE, offset, snap[:4] + (snap[4] ^ 1,)
                        + snap[5:])
        return
    line = device.peek(Region.DATA, addr)
    if kind == "drop" or line is None:
        device.poke(Region.DATA, addr, None)
        return
    tag, cipher, hmac, echo = line
    if kind == "hmac":
        device.poke(Region.DATA, addr, (tag, cipher, hmac ^ 1, echo))
    else:
        device.poke(Region.DATA, addr, (tag, cipher | 1 << 512, hmac, echo))


def apply(controller, op: tuple):
    """The op's result, or the type and text of the error it raised."""
    try:
        if op[0] == "write":
            return controller.write_data(op[1], op[2])
        if op[0] == "read":
            return controller.read_data(op[1])
        if op[0] == "flush":
            return controller.flush_all()
        if op[0] == "burst":
            for i in range(op[2]):
                controller.write_data(op[1], i)
            return controller.read_data(op[1])
        if op[0] == "tamper":
            return tamper(controller, op[1], op[2])
        if not controller.supports_recovery:
            return None
        controller.clock.drain_writes()
        controller.device.crash_drain(None)
        controller.crash()
        return vars(controller.recover())
    except Exception as exc:  # compared across the two data paths
        return type(exc), str(exc)


def observed(controller) -> tuple:
    metacache = controller.metacache
    return (vars(controller.stats),
            controller.clock.meter.breakdown.as_dict(),
            controller.clock.now_ps,
            vars(controller.clock.timing.stats),
            vars(metacache.stats),
            [[(offset, dirty, way)
              for offset, (_, dirty, way) in entries.items()]
             for entries in metacache.sets],
            metacache.free_ways,
            controller.device.lines())


@pytest.mark.parametrize("variant", sorted(VARIANTS))
@settings(max_examples=scaled(25))
@given(ops=st.lists(OPS, min_size=1, max_size=30))
def test_kernels_match_call_per_charge(variant, ops):
    kernel = build(variant, reference=False)
    ref = build(variant, reference=True)
    for op in ops:
        assert apply(kernel, op) == apply(ref, op), op
        assert observed(kernel) == observed(ref), op


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_runs_reach_every_path(variant):
    """A fixed run reaches what the random runs exist to compare:
    multi-level fetches, dirty and clean victims, a minor overflow on
    split leaves, a recovery and each tamper error."""
    kernel = build(variant, reference=False)
    ref = build(variant, reference=True)
    ops = [("write", (i * 104_729) % (1 << 20), i) for i in range(40)]
    ops += [("read", (i * 104_729) % (1 << 20)) for i in range(40)]
    ops += [("burst", 3, 65), ("crash",), ("read", 3), ("flush",),
            ("tamper", 3, "hmac"), ("read", 3), ("tamper", 5, "drop"),
            ("read", 5), ("tamper", 0, "wide"), ("read", 0)]
    results = []
    for op in ops:
        results.append(apply(kernel, op))
        assert results[-1] == apply(ref, op), op
        assert observed(kernel) == observed(ref), op
    stats = kernel.metacache.stats
    assert kernel.stats.metadata_fetches > 80
    assert stats.evictions > stats.dirty_evictions > 0
    errors = {r[1].split(" for ")[0].split(" must")[0]
              for r in results if isinstance(r, tuple)}
    assert {"data HMAC mismatch", "ciphertext"} <= errors
    if kernel.leaf_split:
        assert kernel.stats.reencrypted_blocks > 0
