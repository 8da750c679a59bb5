"""NVM device model: persistence, statistics, immutability, regions."""
import pytest

from repro.common.errors import LayoutError, TamperDetectedError
from repro.faults.torn import TornLine
from repro.nvm.device import NVMDevice
from repro.nvm.layout import Region, build_layout


@pytest.fixture
def device():
    return NVMDevice(build_layout(data_lines=1024, tree_lines=256,
                                  metadata_cache_lines=64,
                                  shadow_lines=64, bitmap_lines=8))


def test_read_write_roundtrip(device):
    device.write(Region.DATA, 5, ("data", 123, 456, 1))
    assert device.read(Region.DATA, 5) == ("data", 123, 456, 1)


def test_unwritten_reads_default(device):
    assert device.read(Region.DATA, 7) is None
    assert device.read(Region.TREE, 0, default="empty") == "empty"


def test_stats_count_per_region(device):
    device.write(Region.DATA, 0, 1)
    device.write(Region.TREE, 0, 2)
    device.write(Region.TREE, 1, 3)
    device.read(Region.TREE, 0)
    assert device.stats.writes[Region.DATA] == 1
    assert device.stats.writes[Region.TREE] == 2
    assert device.stats.reads[Region.TREE] == 1
    assert device.stats.total_writes == 3
    assert device.stats.total_reads == 1
    snap = device.stats.snapshot()
    assert snap["write_tree"] == 2
    assert snap["total_reads"] == 1


def test_peek_poke_bypass_stats(device):
    device.poke(Region.DATA, 3, 99)
    assert device.peek(Region.DATA, 3) == 99
    assert device.stats.total_writes == 0
    assert device.stats.total_reads == 0


def test_peek_lines_equals_per_line_peeks(device):
    for region in Region:
        limit = device.layout.region_lines(region)
        for i in range(0, limit, 3):
            device.poke(region, i, (region.value, i))
    device.poke(Region.DATA, 1, 7)
    for region in Region:
        limit = device.layout.region_lines(region)
        for lo, hi in [(0, limit), (0, 1), (1, min(9, limit)),
                       (limit - 1, limit), (2, 2), (5, 1)]:
            assert device.peek_lines(region, lo, hi) == \
                [device.peek(region, i) for i in range(lo, hi)]
    assert device.stats.total_reads == 0


def test_peek_lines_range_checked_like_peek(device):
    limit = device.layout.region_lines(Region.TREE)
    for lo, hi, bad in [(-1, 4, -1), (limit - 2, limit + 1, limit),
                        (limit, limit + 3, limit),
                        (limit + 5, limit + 6, limit + 5)]:
        with pytest.raises(LayoutError) as per_line:
            device.peek(Region.TREE, bad)
        with pytest.raises(LayoutError) as batched:
            device.peek_lines(Region.TREE, lo, hi)
        assert str(batched.value) == str(per_line.value)


def test_peek_lines_names_first_torn_line(device):
    device.poke(Region.DATA, 10, ("data", 1, 2, 3))
    device.poke(Region.DATA, 12, TornLine(old=None, new=5, words_written=3))
    device.poke(Region.DATA, 14, TornLine(old=None, new=6, words_written=1))
    with pytest.raises(TamperDetectedError) as per_line:
        device.peek(Region.DATA, 12)
    with pytest.raises(TamperDetectedError) as batched:
        device.peek_lines(Region.DATA, 8, 16)
    assert str(batched.value) == str(per_line.value)
    assert "data[12]" in str(batched.value)
    assert device.peek_lines(Region.DATA, 8, 12)[2] == ("data", 1, 2, 3)


def test_out_of_range_rejected(device):
    with pytest.raises(LayoutError):
        device.read(Region.DATA, 1024)
    with pytest.raises(LayoutError):
        device.write(Region.TREE, -1, 0)
    with pytest.raises(LayoutError):
        device.poke(Region.BITMAP, 99, 0)


def test_mutable_values_rejected(device):
    with pytest.raises(TypeError):
        device.write(Region.DATA, 0, [1, 2, 3])
    with pytest.raises(TypeError):
        device.write(Region.DATA, 0, {"a": 1})


def test_contents_survive_crash(device):
    device.write(Region.DATA, 1, 42)
    device.crash()
    assert device.read(Region.DATA, 1) == 42


def test_clone_restore_roundtrip(device):
    device.write(Region.DATA, 1, 11)
    snap = device.clone_store()
    device.write(Region.DATA, 1, 22)
    device.restore_store(snap)
    assert device.peek(Region.DATA, 1) == 11


def test_populated_iteration(device):
    device.poke(Region.TREE, 3, "a")
    device.poke(Region.TREE, 7, "b")
    device.poke(Region.DATA, 1, "c")
    assert dict(device.populated(Region.TREE)) == {3: "a", 7: "b"}


def test_occupancy(device):
    assert len(device) == 0
    device.poke(Region.DATA, 0, 1)
    assert len(device) == 1


def test_layout_region_math():
    layout = build_layout(data_lines=1024, tree_lines=256,
                          metadata_cache_lines=64)
    # 64 cache lines -> 64 records -> 4 record lines of 16 entries
    assert layout.record_lines == 4
    assert layout.region_lines(Region.DATA) == 1024
    assert layout.region_lines(Region.TREE) == 256
    # flat addressing: regions do not overlap
    ends = []
    base = 0
    for region in Region:
        assert layout.region_base(region) == base
        base += layout.region_lines(region)
        ends.append(base)
    assert sorted(ends) == ends
