"""The eager update scheme (paper Sec. II-C).

Eager: every data write updates all ancestors on the branch; evictions
seal under the parent's current counter (no bump).  The paper uses lazy
everywhere for performance; eager exists as the comparison point, and
STAR/Steins legitimately *require* lazy (their recovery protocols depend
on dirty nodes being consistent with persisted children).
"""
from dataclasses import replace

import pytest

from repro.baselines.asit import ASITController
from repro.baselines.star import STARController
from repro.baselines.wb import WBController
from repro.common.config import UpdateScheme, small_config
from repro.common.errors import RecoveryError, TamperDetectedError
from repro.common.rng import make_rng
from repro.core.controller import SteinsController
from repro.nvm.device import NVMDevice
from repro.nvm.energy import EnergyMeter
from repro.sim.clock import MemClock
from repro.sim.system import make_layout


def eager_rig(controller_cls=WBController, cache_bytes=8 * 1024):
    cfg = small_config(metadata_cache_bytes=cache_bytes)
    cfg = replace(cfg, security=replace(
        cfg.security, update_scheme=UpdateScheme.EAGER))
    device = NVMDevice(make_layout(cfg))
    clock = MemClock(cfg, device, EnergyMeter(cfg.energy))
    return controller_cls(cfg, device, clock), device, clock


def lazy_rig(controller_cls=WBController, cache_bytes=8 * 1024):
    cfg = small_config(metadata_cache_bytes=cache_bytes)
    device = NVMDevice(make_layout(cfg))
    clock = MemClock(cfg, device, EnergyMeter(cfg.energy))
    return controller_cls(cfg, device, clock), device, clock


def test_eager_roundtrip():
    controller, _, _ = eager_rig()
    rng = make_rng(61, "eager")
    written = {}
    for addr in rng.integers(0, 3000, 300):
        controller.write_data(int(addr), int(addr) * 9)
        written[int(addr)] = int(addr) * 9
    for addr, value in written.items():
        assert controller.read_data(addr) == value


def test_eager_dirties_whole_branch():
    controller, _, _ = eager_rig()
    controller.write_data(0, 1)
    g = controller.geometry
    for level, index in g.branch(0):
        offset = g.node_offset(level, index)
        assert controller.metacache.is_dirty(offset), \
            f"level {level} not dirty under eager updates"


def test_lazy_dirties_only_leaf():
    controller, _, _ = lazy_rig()
    controller.write_data(0, 1)
    g = controller.geometry
    dirty_levels = {node.level for _, node
                    in controller.metacache.dirty_entries()}
    assert dirty_levels == {0}


def test_eager_root_tracks_every_write():
    controller, _, _ = eager_rig()
    for i in range(7):
        controller.write_data(i, i)
    # with eager updates the root slot counts the subtree's writes
    slot = controller.geometry.parent_slot(
        *controller.geometry.branch(0)[-1])
    assert controller.root.counter(slot) == 7


def test_eager_flush_and_refetch_verifies():
    controller, _, _ = eager_rig(cache_bytes=1024)  # heavy churn
    rng = make_rng(62, "eager-churn")
    written = {}
    for addr in rng.integers(0, 6000, 500):
        controller.write_data(int(addr), 5)
        written[int(addr)] = 5
    controller.flush_all()
    controller.metacache.clear()
    for addr in written:
        assert controller.read_data(addr) == 5


@pytest.mark.xfail(strict=True, raises=TamperDetectedError, reason=(
    "known gap: the eager branch update can flush a lower branch node "
    "before its parent's slot is bumped"))
def test_eager_branch_survives_two_way_cache():
    """Known gap.  On a 4-set, 2-way metadata cache every node on block
    0's branch maps to one set.  The branch update bumps the leaf's
    parent, then fetches the grandparent; that install evicts and
    flushes the level-1 node, sealed under the grandparent's not yet
    bumped slot.  The next fetch of the level-1 node fails verification
    under the bumped slot.  A fix changes eager simulated behaviour, so
    it is a change of its own; this test then passes."""
    cfg = small_config().with_metadata_cache(8 * 64, ways=2)
    cfg = replace(cfg, security=replace(
        cfg.security, update_scheme=UpdateScheme.EAGER))
    device = NVMDevice(make_layout(cfg))
    controller = WBController(
        cfg, device, MemClock(cfg, device, EnergyMeter(cfg.energy)))
    controller.write_data(0, 1)
    assert controller.read_data(0) == 1


def test_eager_costs_more_than_lazy():
    """The reason the paper picks lazy: eager pays branch-length hash
    and fetch work on every write."""
    eager, _, eclock = eager_rig()
    lazy, _, lclock = lazy_rig()
    rng = make_rng(63, "cost")
    addrs = [int(a) for a in rng.integers(0, 8000, 400)]
    for addr in addrs:
        eager.write_data(addr, 1)
        lazy.write_data(addr, 1)
    assert eclock.meter.breakdown.hashes > lazy.clock.meter.breakdown.hashes
    assert eclock.now_ps > lclock.now_ps


def test_asit_supports_eager():
    controller, device, _ = eager_rig(ASITController)
    controller.write_data(0, 42)
    controller.crash()
    controller.recover()
    assert controller.read_data(0) == 42


@pytest.mark.parametrize("cls", [STARController, SteinsController])
def test_lazy_only_schemes_reject_eager(cls):
    with pytest.raises(RecoveryError, match="lazy"):
        eager_rig(cls)


def test_update_scheme_flags():
    assert WBController.supports_eager_updates
    assert ASITController.supports_eager_updates
    assert not STARController.supports_eager_updates
    assert not SteinsController.supports_eager_updates
