"""Security analysis validation (paper Sec. II-A, III-D, III-H).

Every attack class the threat model admits must be *detected* — by HMAC
verification (tampering) or by the monotonic trust bases (replay):
LIncs for Steins, the cache-trees for ASIT/STAR.
"""
from dataclasses import replace

import pytest

from repro.attacks import AttackInjector
from repro.baselines.asit import ASITController
from repro.baselines.base import SecureMemoryController
from repro.baselines.star import STARController
from repro.common.config import CounterMode, small_config
from repro.common.errors import (
    ConfigError,
    IntegrityError,
    ReplayDetectedError,
    TamperDetectedError,
)
from repro.common.rng import make_rng
from repro.integrity.sit import verify_node
from repro.nvm.device import NVMDevice
from repro.nvm.energy import EnergyMeter
from repro.nvm.layout import Region
from repro.sim.clock import MemClock
from repro.sim.runner import VARIANTS
from repro.sim.system import SCHEMES, make_layout
from tests.test_controller_base import make_rig
from tests.test_steins_controller import steins_rig


def populate(controller, n=200, span=1600, seed=41):
    rng = make_rng(seed, "attack-wl")
    for addr in rng.integers(0, span, n):
        controller.write_data(int(addr), int(addr) * 3)


def variant_rig(variant, cache_bytes=2048, secret_key=None):
    scheme, mode = VARIANTS[variant]
    cfg = small_config(mode, metadata_cache_bytes=cache_bytes)
    if secret_key is not None:
        cfg = replace(cfg, security=replace(cfg.security,
                                            secret_key=secret_key))
    device = NVMDevice(make_layout(cfg))
    clock = MemClock(cfg, device, EnergyMeter(cfg.energy))
    return SCHEMES[scheme](cfg, device, clock), device


class TestRuntimeAttacks:
    def test_data_tamper_detected(self):
        controller, device, _ = steins_rig()
        controller.write_data(7, 99)
        AttackInjector(device).tamper_data_block(7)
        with pytest.raises(TamperDetectedError):
            controller.read_data(7)

    def test_data_mac_tamper_detected(self):
        controller, device, _ = steins_rig()
        controller.write_data(7, 99)
        AttackInjector(device).tamper_data_mac(7)
        with pytest.raises(TamperDetectedError):
            controller.read_data(7)

    def test_data_replay_detected(self):
        """Replaying an old (data, HMAC) pair fails because the cached
        counter has advanced (the role of the counter in CME+SIT)."""
        controller, device, _ = steins_rig()
        controller.write_data(7, 111)
        injector = AttackInjector(device)
        injector.record(Region.DATA, 7)
        controller.write_data(7, 222)
        injector.replay(Region.DATA, 7)
        with pytest.raises(TamperDetectedError):
            controller.read_data(7)

    def test_tree_node_tamper_detected_on_fetch(self):
        controller, device, _ = steins_rig(cache_bytes=1024)
        populate(controller)
        controller.flush_all()
        controller.metacache.clear()
        injector = AttackInjector(device)
        offset = injector.pick_populated(Region.TREE)
        injector.tamper_tree_counter(offset)
        level, index = controller.geometry.offset_to_node(offset)
        with pytest.raises(TamperDetectedError):
            controller._ensure_node(level, index)

    def test_tree_node_replay_detected_on_fetch(self):
        """A replayed (authentic, stale) node mismatches the parent's
        advanced counter — the double protection of Sec. II-C."""
        controller, device, _ = steins_rig()
        injector = AttackInjector(device)
        # persist version 1 of the leaf covering addr 0
        controller.write_data(0, 1)
        controller.flush_all()
        leaf_offset = controller.geometry.node_offset(0, 0)
        injector.record(Region.TREE, leaf_offset)
        # advance and persist version 2
        controller.write_data(0, 2)
        controller.flush_all()
        controller.metacache.clear()
        injector.replay(Region.TREE, leaf_offset)
        with pytest.raises(TamperDetectedError):
            controller._ensure_node(0, 0)


@pytest.mark.parametrize("variant", list(VARIANTS))
class TestNeverPersistedNodes:
    """The fetch walk takes a never-persisted node's seal from a memo
    shared by every controller over the same key, and checks it only
    under a non-zero parent counter.  Neither shortcut may let an attack
    or a foreign key through."""

    def test_deleted_node_detected(self, variant):
        """Deleting a persisted node makes it read as never written: the
        canonical empty node then meets a non-zero parent counter.  The
        fetch is of the node itself, so no data HMAC check can stand in
        for the node's own."""
        controller, device = variant_rig(variant)
        populate(controller)
        controller.flush_all()
        g = controller.geometry
        offset = min(off for off, _ in device.populated(Region.TREE)
                     if g.offset_to_node(off)[0] == 0)
        level, index = g.offset_to_node(offset)
        controller.metacache.clear()
        assert controller._parent_counter(level, index) != 0
        controller.metacache.clear()
        device.poke(Region.TREE, offset, None)
        with pytest.raises(TamperDetectedError):
            controller._ensure_node(level, index)

    def test_seals_do_not_cross_keys(self, variant):
        a, device_a = variant_rig(variant, secret_key=0xA11CE)
        b, device_b = variant_rig(variant, secret_key=0xB0B)
        for level, index in ((0, 5), (1, 3), (2, 0)):
            sealed_a = a._empty_node(level, index)
            sealed_b = b._empty_node(level, index)
            verify_node(b.engine, sealed_b, 0)
            with pytest.raises(TamperDetectedError):
                verify_node(b.engine, sealed_a, 0)
        # the same run under both keys; then B's NVM gets A's copy of a
        # persisted leaf, the only difference being the key it carries
        for controller in (a, b):
            populate(controller)
            controller.flush_all()
            controller.metacache.clear()
        g = b.geometry
        offset = min(off for off, _ in device_b.populated(Region.TREE)
                     if g.offset_to_node(off)[0] == 0)
        device_b.poke(Region.TREE, offset,
                      device_a.peek(Region.TREE, offset))
        with pytest.raises(TamperDetectedError):
            b.read_data(g.offset_to_node(offset)[1] * g.leaf_coverage)

    def test_shared_memo_stays_within_cap(self, variant, monkeypatch):
        monkeypatch.setattr(SecureMemoryController, "_SHARED_EMPTY_HMACS",
                            {})
        monkeypatch.setattr(SecureMemoryController, "_EMPTY_HMAC_CAP", 16)
        controller, _ = variant_rig(variant)
        memos = SecureMemoryController._SHARED_EMPTY_HMACS
        (memo,) = memos.values()
        stride = controller.geometry.leaf_coverage * 8
        for addr in range(0, 200 * stride, stride):
            assert controller.read_data(addr) == 0
            assert len(memo) <= 16
        assert controller.stats.metadata_fetches > 2 * 16
        for key in range(100):
            variant_rig(variant, secret_key=key)
            assert len(memos) <= 64


class TestRecoveryAttacksSteins:
    def crashed_rig(self, seed=43):
        controller, device, _ = steins_rig(cache_bytes=2048)
        populate(controller, seed=seed)
        controller.crash()
        return controller, device, AttackInjector(device)

    def test_tampered_child_detected(self):
        controller, device, injector = self.crashed_rig()
        offset = injector.pick_populated(Region.TREE)
        injector.tamper_tree_counter(offset)
        with pytest.raises(IntegrityError):
            controller.recover()

    def test_replayed_child_detected(self):
        controller, device, _ = steins_rig(cache_bytes=2048)
        injector = AttackInjector(device)
        populate(controller, seed=44)
        controller.flush_all()
        injector.record_populated(Region.TREE)   # snapshot old epoch
        populate(controller, seed=45)            # advance state
        controller.crash()
        injector.replay_all_recorded()           # roll the tree back
        with pytest.raises(IntegrityError):
            controller.recover()

    def test_replayed_data_blocks_detected(self):
        """Replaying data+MAC pairs under a dirty leaf shrinks the
        computed L0Inc (Sec. III-D observation 3)."""
        controller, device, _ = steins_rig(cache_bytes=2048)
        injector = AttackInjector(device)
        controller.write_data(3, 1)
        injector.record(Region.DATA, 3)
        controller.write_data(3, 2)   # leaf still dirty, counter advanced
        controller.crash()
        injector.replay(Region.DATA, 3)
        with pytest.raises(IntegrityError):
            controller.recover()

    def test_erased_record_detected(self):
        """Sec. III-H: marking a dirty node clean makes the recomputed
        LInc smaller than the stored LInc."""
        controller, device, injector = self.crashed_rig(seed=46)
        # find a genuinely dirty leaf offset in the records whose delta
        # is non-zero: any recorded leaf with a persisted... use records
        offsets, _ = controller.tracker.read_all_offsets(device)
        target = None
        for off in sorted(offsets):
            level, _ = controller.geometry.offset_to_node(off)
            if level == 0:
                target = off
                break
        assert target is not None
        injector.erase_offset_record(target)
        with pytest.raises(ReplayDetectedError):
            controller.recover()

    def test_forged_clean_record_is_harmless(self):
        """Sec. III-H: marking clean nodes dirty does not change the
        computed LInc — recovery succeeds."""
        controller, device, _ = steins_rig(cache_bytes=4096)
        injector = AttackInjector(device)
        populate(controller, n=40, span=320, seed=47)
        controller.flush_all()          # persist some clean nodes
        populate(controller, n=40, span=320, seed=48)
        golden_dirty = {off for off, _ in
                        controller.metacache.dirty_entries()}
        clean = [off for off, _ in device.populated(Region.TREE)
                 if off not in golden_dirty][:2]
        controller.crash()
        for off in clean:
            injector.forge_offset_record(off)
        report = controller.recover()    # must not raise
        assert report.nodes_recovered >= len(clean)

    def test_tampered_record_offsets_cannot_hide_state(self):
        """Swapping a record's offset for another node either is
        harmless (clean node) or triggers the LInc check."""
        controller, device, injector = self.crashed_rig(seed=49)
        offsets, _ = controller.tracker.read_all_offsets(device)
        dirty_leaf = next(off for off in sorted(offsets)
                          if controller.geometry.offset_to_node(off)[0] == 0)
        injector.erase_offset_record(dirty_leaf)
        injector.forge_offset_record(
            controller.geometry.node_offset(0, 777))  # unrelated clean
        with pytest.raises(IntegrityError):
            controller.recover()


class TestRecoveryAttacksBaselines:
    @pytest.mark.parametrize("cls", [ASITController, STARController])
    def test_tampered_recovery_source_detected(self, cls):
        controller, device, _ = make_rig(CounterMode.GENERAL, cls, 2048)
        populate(controller, seed=50)
        controller.crash()
        injector = AttackInjector(device)
        if cls is ASITController:
            # corrupt one shadow entry: cache-tree root mismatch
            slot, snap = next(iter(
                (s, v) for s, v in device.populated(Region.SHADOW)))
            from repro.integrity.node import SITNode
            node = SITNode.from_snapshot(snap)
            node.block.counters[0] += 1
            device.poke(Region.SHADOW, slot, node.snapshot())
        else:
            # corrupt a persisted child of a *dirty* node (recovery only
            # reads those): its HMAC check fails
            from repro.baselines.report import RecoveryReport
            g = controller.geometry
            dirty = controller.bitmap.scan_dirty(RecoveryReport("probe"))
            target = None
            for off in sorted(dirty):
                level, index = g.offset_to_node(off)
                if level == 0:
                    continue
                for child in g.children(level, index):
                    child_off = g.node_offset(*child)
                    if device.peek(Region.TREE, child_off) is not None:
                        target = child_off
                        break
                if target is not None:
                    break
            assert target is not None, "no persisted child of a dirty node"
            injector.tamper_tree_counter(target)
        with pytest.raises(IntegrityError):
            controller.recover()

    def test_asit_replayed_shadow_detected(self):
        controller, device, _ = make_rig(CounterMode.GENERAL,
                                         ASITController, 2048)
        injector = AttackInjector(device)
        populate(controller, seed=51)
        injector.record_populated(Region.SHADOW)
        populate(controller, seed=52)   # shadow advances
        controller.crash()
        injector.replay_all_recorded()
        with pytest.raises(IntegrityError):
            controller.recover()


class TestInjectorErrors:
    def test_unrecorded_replay_rejected(self):
        controller, device, _ = steins_rig()
        with pytest.raises(ConfigError):
            AttackInjector(device).replay(Region.DATA, 0)

    def test_tamper_missing_data_rejected(self):
        controller, device, _ = steins_rig()
        with pytest.raises(ConfigError):
            AttackInjector(device).tamper_data_block(0)

    def test_erase_unknown_record_rejected(self):
        controller, device, _ = steins_rig()
        with pytest.raises(ConfigError):
            AttackInjector(device).erase_offset_record(123456)
