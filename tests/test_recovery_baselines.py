"""ASIT and STAR crash recovery."""
import pytest

from repro.baselines.asit import ASITController
from repro.baselines.star import MultiLayerBitmap, STARController
from repro.common.config import CounterMode
from repro.common.errors import RecoveryError
from repro.common.rng import make_rng
from repro.nvm.layout import Region
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
        # the sibling zip over root counters is strict: losing root
        # slots across recovery is a bug, not a shorter comparison
        from repro.sim.crash import GoldenState, check_recovered

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

        class FakeSystem:
            controller = FakeController()

        golden = GoldenState(root_counters=(1, 1, 1, 1))
        with pytest.raises(ValueError):
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
        scheme, small_config(metadata_cache_bytes=2048), check=True)
    rng = make_rng(23, "idem", scheme)
    for addr in rng.integers(0, 2000, 250):
        system.store(int(addr), flush=True)
    system.crash()
    system.recover()
    once = controller_fingerprint(system)
    system.crash()
    system.recover()
    assert controller_fingerprint(system) == once
