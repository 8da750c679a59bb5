"""ASIT and STAR crash recovery, and the leaf-rebuild primitive every
echo-rebuilding scheme shares."""
import pytest

from repro.baselines.asit import ASITController
from repro.baselines.report import RecoveryReport
from repro.baselines.star import MultiLayerBitmap, STARController
from repro.common.config import CounterMode, small_config
from repro.common.errors import RecoveryError, TamperDetectedError
from repro.common.rng import make_rng
from repro.faults.torn import TornLine
from repro.integrity.node import SITNode
from repro.nvm.layout import Region
from repro.sim.runner import make_system
from repro.workloads import get_profile
from tests.test_controller_base import make_rig


def run_and_crash(controller, n_writes=250, span=3000, seed=31):
    rng = make_rng(seed, "baseline-crash")
    written = {}
    for addr in rng.integers(0, span, n_writes):
        value = int(addr) * 13 + 1
        controller.write_data(int(addr), value)
        written[int(addr)] = value
    golden = {off: node.snapshot()
              for off, node in controller.metacache.dirty_entries()}
    controller.crash()
    return written, golden


@pytest.mark.parametrize("cls", [ASITController, STARController])
def test_recover_restores_dirty_nodes(cls):
    controller, _, _ = make_rig(CounterMode.GENERAL, cls, 2048)
    written, golden = run_and_crash(controller)
    controller.recover()
    for offset, snap in golden.items():
        from repro.sim.crash import counters_dominate
        node = controller.metacache.peek(offset)
        if node is not None:
            assert controller.metacache.is_dirty(offset)
            assert counters_dominate(node.snapshot(), snap)
        else:
            found = controller.device.peek(Region.TREE, offset)
            assert found is not None, f"offset {offset} lost"
            assert counters_dominate(found, snap)


class TestCountersDominate:
    """Slot-wise domination must be exact, never vacuous."""

    @staticmethod
    def node(counters, level=0, index=0, kind="general"):
        return ("sitnode", level, index, (kind, counters), 0)

    def test_equal_and_advanced_dominate(self):
        from repro.sim.crash import counters_dominate
        g = self.node((1, 2, 3, 4))
        assert counters_dominate(self.node((1, 2, 3, 4)), g)
        assert counters_dominate(self.node((1, 2, 3, 5)), g)

    def test_regressed_slot_fails(self):
        from repro.sim.crash import counters_dominate
        g = self.node((1, 2, 3, 4))
        assert not counters_dominate(self.node((1, 2, 2, 4)), g)

    def test_mismatched_arity_fails_not_truncates(self):
        # the bug: zip() silently stopped at the shorter tuple, so a
        # malformed 2-slot block "dominated" an 8-slot golden vacuously
        from repro.sim.crash import counters_dominate
        golden = self.node((1, 1, 1, 1, 1, 1, 1, 1))
        found_short = self.node((9, 9))
        assert not counters_dominate(found_short, golden)
        # and the symmetric direction: wider found with regressed tail
        golden_short = self.node((9, 9))
        found_wide = self.node((9, 9, 0, 0))
        assert not counters_dominate(found_wide, golden_short)

    def test_kind_mismatch_fails(self):
        from repro.sim.crash import counters_dominate
        general = self.node((1, 1))
        split = ("sitnode", 0, 0, ("split", 1, (0, 0)), 0)
        assert not counters_dominate(general, split)

    def test_root_arity_mismatch_raises(self):
        # root arity is fixed by the geometry: losing root slots across
        # recovery is a divergence, not a shorter comparison
        from repro.sim.crash import check_recovered

        class FakeRoot:
            def snapshot(self):
                return (1, 1)

        class FakeCache:
            def dirty_entries(self):
                return []

            def peek(self, offset):
                return None

        class FakeController:
            root = FakeRoot()
            metacache = FakeCache()

            def tree_state_fingerprint(self):
                return {}

        class FakeSystem:
            controller = FakeController()

        golden = {"root": (1, 1, 1, 1), "tree": {}, "dirty": {}}
        with pytest.raises(RecoveryError, match="root-regress"):
            check_recovered(FakeSystem(), golden)


@pytest.mark.parametrize("cls", [ASITController, STARController])
def test_data_readable_after_recovery(cls):
    controller, _, _ = make_rig(CounterMode.GENERAL, cls, 2048)
    written, _ = run_and_crash(controller)
    controller.recover()
    for addr, value in written.items():
        assert controller.read_data(addr) == value


@pytest.mark.parametrize("cls", [ASITController, STARController])
def test_recover_without_crash_rejected(cls):
    controller, _, _ = make_rig(CounterMode.GENERAL, cls)
    with pytest.raises(RecoveryError):
        controller.recover()


@pytest.mark.parametrize("cls", [ASITController, STARController])
def test_second_epoch_after_recovery(cls):
    controller, _, _ = make_rig(CounterMode.GENERAL, cls, 2048)
    written, _ = run_and_crash(controller)
    controller.recover()
    for addr in range(64):
        controller.write_data(addr, addr * 3)
        written[addr] = addr * 3
    controller.crash()
    controller.recover()
    for addr, value in written.items():
        assert controller.read_data(addr) == value


def test_asit_shadow_write_per_modification():
    controller, device, _ = make_rig(CounterMode.GENERAL, ASITController)
    controller.write_data(0, 1)
    controller.write_data(1, 2)
    # every metadata modification shadows: >= one shadow write per data
    # write (the 2x traffic of Fig. 13)
    assert device.stats.writes[Region.SHADOW] >= 2
    assert controller.stats.extra["shadow_writes"] == \
        device.stats.writes[Region.SHADOW]


def test_asit_recovery_reads_whole_shadow_table():
    controller, _, _ = make_rig(CounterMode.GENERAL, ASITController)
    controller.write_data(0, 1)
    controller.crash()
    report = controller.recover()
    # one read per cache slot regardless of dirty count (its trade-off)
    assert report.nvm_reads >= controller.num_slots


def test_detected_shadow_tamper_keeps_cache_tree_root():
    """A failed cache-tree check must not install the rebuilt (tampered)
    root: the NV register keeps the trusted root, so a restarted
    recovery detects the tamper again instead of accepting it."""
    controller, device, _ = make_rig(CounterMode.GENERAL, ASITController,
                                     2048)
    run_and_crash(controller)
    slot, snap = next((slot, snap) for slot, snap
                      in sorted(device.populated(Region.SHADOW))
                      if snap[3][0] == "general")
    kind, counters = snap[3]
    device.poke(Region.SHADOW, slot,
                snap[:3] + ((kind, (counters[0] + 1,) + counters[1:]),)
                + snap[4:])
    root = controller.cache_tree.root
    with pytest.raises(TamperDetectedError):
        controller.recover()
    assert controller.cache_tree.root == root
    with pytest.raises(TamperDetectedError):
        controller.recover()


def test_star_bitmap_tracks_transitions():
    controller, device, _ = make_rig(CounterMode.GENERAL, STARController)
    controller.write_data(0, 1)
    assert controller.stats.extra.get("bitmap_writes", 0) >= 1
    before = device.stats.writes[Region.BITMAP]
    controller.write_data(0, 2)  # already dirty: no transition
    assert device.stats.writes[Region.BITMAP] == before


def test_star_bitmap_scan_finds_dirty():
    controller, device, _ = make_rig(CounterMode.GENERAL, STARController)
    controller.write_data(0, 1)
    controller.write_data(100, 2)
    controller.crash()
    from repro.baselines.report import RecoveryReport
    offsets = controller.bitmap.scan_dirty(RecoveryReport("star"))
    dirty_leaves = {controller.geometry.node_offset(0, 0),
                    controller.geometry.node_offset(0, 12)}
    assert dirty_leaves <= offsets


def test_star_echo_embedded_in_persisted_nodes():
    controller, device, _ = make_rig(CounterMode.GENERAL, STARController,
                                     1024)
    rng = make_rng(5, "echo")
    for addr in rng.integers(0, 4000, 300):
        controller.write_data(int(addr), 1)
    controller.flush_all()
    from repro.integrity.node import SITNode
    found_echo = False
    for _, snap in device.populated(Region.TREE):
        echo = SITNode.snapshot_echo(snap)
        assert echo is not None
        found_echo = True
        node = SITNode.from_snapshot(snap)
        assert node.hmac_matches(controller.engine, echo)
    assert found_echo


def test_multilayer_bitmap_layers():
    from repro.nvm.device import NVMDevice
    from repro.nvm.layout import build_layout
    device = NVMDevice(build_layout(64, 64, 64, bitmap_lines=600))
    bm = MultiLayerBitmap(total_nodes=512 * 512 + 5, device=device)
    # 262149 bits -> 513 lines -> 2 summary lines -> 1 top line
    assert bm.layer_sizes == [513, 2, 1]
    assert bm.layer_bases == [0, 513, 515]


def test_multilayer_bitmap_terminates_single_line():
    from repro.nvm.device import NVMDevice
    from repro.nvm.layout import build_layout
    device = NVMDevice(build_layout(64, 64, 64, bitmap_lines=10))
    bm = MultiLayerBitmap(total_nodes=100, device=device)
    assert bm.layer_sizes == [1]


@pytest.mark.parametrize("scheme", ["asit", "star", "scue"])
def test_recovery_idempotent_fingerprint(scheme):
    """Recovery is a one-step fixed point for the baselines: a second
    crash+recover reproduces the first's state bit for bit.  (Steins
    converges over a few passes instead — its reinstall evictions park
    NV-buffer updates; see test_prop_steins.)"""
    from repro.common.config import small_config
    from repro.sim.system import SecureNVMSystem
    from tests.recovery_fingerprint import controller_fingerprint

    system = SecureNVMSystem(
        scheme, small_config(metadata_cache_bytes=2048))
    rng = make_rng(23, "idem", scheme)
    for addr in rng.integers(0, 2000, 250):
        system.store(int(addr), flush=True)
    system.crash()
    system.recover()
    once = controller_fingerprint(system)
    system.crash()
    system.recover()
    assert controller_fingerprint(system) == once


@pytest.mark.parametrize("variant", ["star", "scue", "phoenix",
                                     "steins-gc", "steins-sc"])
def test_rebuild_leaf_matches_persisted_leaf(variant):
    """Once every dirty node is flushed, a leaf rebuilt from its data
    echoes equals the persisted leaf, at one read per covered block and
    one hash per written one.  The hot footprint drives split minors
    past overflow, so the echoed majors are non-zero."""
    system = make_system(variant, small_config(metadata_cache_bytes=2048))
    system.run_stream(get_profile("pers_hash").generate(5, 3000, 128),
                      flush_writes=True)
    c = system.controller
    c.flush_all()
    g = c.geometry
    written = {addr for addr, _ in c.device.populated(Region.DATA)}
    leaves = [(g.offset_to_node(off)[1], snap)
              for off, snap in c.device.populated(Region.TREE)
              if g.offset_to_node(off)[0] == 0]
    assert leaves
    for index, snap in leaves:
        report = RecoveryReport(c.name)
        rebuilt = c.rebuild_leaf(index, report)
        assert rebuilt.block.snapshot() == \
            SITNode.from_snapshot(snap).block.snapshot()
        blocks = g.leaf_data_blocks(index)
        assert report.nvm_reads == len(blocks)
        assert report.hashes == len(written.intersection(blocks))


# ------------------------------------------- loud failures, batched reads
def crashed_with_dirty(variant):
    """``variant`` on a 16-line metadata cache after scattered writes,
    which dirty inner nodes, then writes to a few leaves; crashed.  Also
    the offsets that were dirty in the metadata cache at the crash."""
    system = make_system(variant,
                         small_config().with_metadata_cache(16 * 64, ways=4))
    rng = make_rng(41, "loud-recovery", variant)
    c = system.controller
    for i, addr in enumerate([*rng.integers(0, 1 << 20, 100),
                              *rng.integers(0, 256, 100)]):
        c.write_data(int(addr), i)
    dirty = {off for off, _ in c.metacache.dirty_entries()}
    system.crash()
    return system, dirty


def rebuilt_leaf_blocks(system, dirty) -> range:
    """The data blocks of a leaf the recovery rebuilds (dirty at the
    crash) that covers at least two written blocks."""
    g = system.controller.geometry
    for offset in sorted(dirty):
        level, index = g.offset_to_node(offset)
        blocks = g.leaf_data_blocks(index) if level == 0 else range(0)
        if sum(system.device.peek(Region.DATA, addr) is not None
               for addr in blocks) >= 2:
            return blocks
    raise AssertionError("no dirty leaf covers two written blocks")


@pytest.mark.parametrize("variant", ["steins-gc", "steins-sc", "scue",
                                     "star"])
def test_tampered_block_inside_rebuilt_leaf_is_loud(variant):
    system, dirty = crashed_with_dirty(variant)
    blocks = rebuilt_leaf_blocks(system, dirty)
    # the last written block of the leaf: the lines before it verify
    target = max(addr for addr in blocks
                 if system.device.peek(Region.DATA, addr) is not None)
    tag, cipher, hmac, echo = system.device.peek(Region.DATA, target)
    system.device.poke(Region.DATA, target, (tag, cipher ^ 1, hmac, echo))
    with pytest.raises(TamperDetectedError,
                       match=rf"data block {target} failed HMAC"):
        system.recover()


@pytest.mark.parametrize("variant", ["steins-gc", "steins-sc", "scue",
                                     "star"])
def test_torn_line_inside_rebuilt_leaf_is_loud(variant):
    system, dirty = crashed_with_dirty(variant)
    blocks = rebuilt_leaf_blocks(system, dirty)
    target = blocks[len(blocks) // 2]
    system.device.poke(Region.DATA, target, TornLine(
        old=None, new=system.device.peek(Region.DATA, target),
        words_written=4))
    with pytest.raises(TamperDetectedError,
                       match=rf"torn line at data\[{target}\]"):
        system.recover()


@pytest.mark.parametrize("variant", ["steins-gc", "steins-sc", "star"])
def test_tampered_child_of_rebuilt_inner_node_is_loud(variant):
    system, dirty = crashed_with_dirty(variant)
    g = system.controller.geometry
    child = next(
        (level - 1, i)
        for level, index in sorted(g.offset_to_node(off) for off in dirty)
        if level > 0
        for i in g.child_range(level, index)
        if system.device.peek(Region.TREE, g.node_offset(level - 1, i))
        is not None)
    offset = g.node_offset(*child)
    snap = system.device.peek(Region.TREE, offset)
    system.device.poke(Region.TREE, offset,
                       snap[:4] + (snap[4] ^ 1,) + snap[5:])
    with pytest.raises(TamperDetectedError,
                       match=rf"child \({child[0]},{child[1]}\) failed HMAC"):
        system.recover()
