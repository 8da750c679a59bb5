"""The simulation clock: stalls, overlap, posted writes, energy coupling.

The clock runs on integer picoseconds (``now_ps``); ``now_ns`` is the
reporting boundary.  Assertions here check both: exact equality on the
ps ints (that is the whole point of exact time) and value checks on the
ns views.
"""
import pytest

from repro.common.config import EnergyConfig, small_config
from repro.nvm.device import NVMDevice
from repro.nvm.energy import EnergyMeter
from repro.nvm.layout import Region, build_layout
from repro.sim.clock import MemClock


@pytest.fixture
def rig():
    cfg = small_config()
    device = NVMDevice(build_layout(1024, 256, 64))
    meter = EnergyMeter(EnergyConfig())
    return MemClock(cfg, device, meter), device, meter


def test_advance(rig):
    clock, _, _ = rig
    clock.advance_cycles(200)   # 2 GHz -> 100 ns exactly
    assert clock.now_ps == 100_000
    assert clock.now_ns == 100.0
    clock.advance_cycles(100)
    assert clock.now_ps == 150_000
    assert clock.now_ns == 150.0


def test_time_is_exact_integer(rig):
    clock, _, _ = rig
    # the drift bug this replaces: many small float additions stopped
    # matching one big one.  Integer ps makes the sum order-free.
    for _ in range(1000):
        clock.advance_cycles(3)
    assert isinstance(clock.now_ps, int)
    assert clock.now_ps == 3000 * clock.cfg.cycle_ps


def test_blocking_read_stalls_and_meters(rig):
    clock, device, meter = rig
    device.poke(Region.DATA, 3, 42)
    value = clock.nvm_read(Region.DATA, 3)
    assert value == 42
    assert clock.now_ns >= 63.0       # tRCD + tCL row miss
    assert meter.breakdown.nvm_reads == 1


def test_overlapped_read_does_not_stall(rig):
    clock, device, _ = rig
    device.poke(Region.DATA, 3, 42)
    value, done = clock.nvm_read_overlapped(Region.DATA, 3)
    assert value == 42
    assert clock.now_ps == 0
    assert done > 0


def test_posted_write_returns_completion(rig):
    clock, device, meter = rig
    done = clock.nvm_write(Region.DATA, 1, ("data", 1, 2, 3))
    assert clock.now_ps < done        # posted: issuer continues
    assert done >= 300_000            # tWR = 300 ns = 300000 ps
    assert device.peek(Region.DATA, 1) == ("data", 1, 2, 3)
    assert meter.breakdown.nvm_writes == 1


def test_hash_critical_vs_pipelined(rig):
    clock, _, meter = rig
    clock.hash_op(2)                   # on path: 2 x 20 ns
    assert clock.now_ps == 40_000
    clock.hash_op(3, on_critical_path=False)
    assert clock.now_ps == 40_000             # no stall
    assert meter.breakdown.hashes == 5        # but all metered


def test_aes_and_alu(rig):
    clock, _, meter = rig
    clock.aes_op()
    assert clock.now_ps == 20_000
    clock.alu_op(cycles_each=4)
    assert clock.now_ps == 22_000
    clock.sram_op(2)
    assert clock.now_ps == 22_000     # register traffic: free
    assert meter.breakdown.sram_accesses == 2


def test_drain_writes(rig):
    clock, _, _ = rig
    clock.nvm_write(Region.DATA, 0, 1)
    clock.nvm_write(Region.DATA, 1, 2)
    assert clock.timing.queue_depth == 2
    clock.drain_writes()
    assert clock.timing.queue_depth == 0
    assert clock.now_ps > 0


def test_row_mapping_regions_do_not_alias(rig):
    clock, _, _ = rig
    # same index in different regions must map to different rows when
    # the regions are further apart than one row: both reads miss
    clock.nvm_read(Region.DATA, 0)
    assert not clock.timing.last_row_hit
    clock.nvm_read(Region.TREE, 0)
    assert not clock.timing.last_row_hit
    assert clock.timing.stats.row_misses == 2
