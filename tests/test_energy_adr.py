"""Energy meter and the ADR / non-volatile register primitives."""
import pytest

from repro.common.config import EnergyConfig, small_config
from repro.common.errors import ConfigError
from repro.nvm.adr import ADRDomain, NonVolatileRegister
from repro.nvm.device import NVMDevice
from repro.nvm.energy import EnergyMeter
from repro.nvm.layout import Region, build_layout
from repro.sim.clock import MemClock


def metered_clock():
    meter = EnergyMeter(EnergyConfig())
    device = NVMDevice(build_layout(1024, 256, 64))
    return MemClock(small_config(), device, meter), meter


def test_energy_accumulates_by_op():
    """Every op is charged through the clock, straight to the counters."""
    clock, meter = metered_clock()
    clock.nvm_read(Region.DATA, 0)
    clock.nvm_read_overlapped(Region.DATA, 1)
    clock.nvm_write(Region.DATA, 2, 7)
    clock.hash_op(3)
    clock.aes_op()
    clock.alu_op(10)
    clock.sram_op(4)
    b = meter.breakdown
    assert b.as_dict() == {"nvm_reads": 2, "nvm_writes": 1, "hashes": 3,
                           "aes_ops": 1, "alu_ops": 10, "sram_accesses": 4}
    cfg = meter.cfg
    expected = (2 * cfg.nvm_read_nj + cfg.nvm_write_nj + 3 * cfg.hash_nj
                + cfg.aes_nj + 10 * cfg.alu_nj + 4 * cfg.sram_access_nj)
    assert meter.total_nj == pytest.approx(expected)


def test_energy_write_dominates_read():
    cfg = EnergyConfig()
    assert cfg.nvm_write_nj > cfg.nvm_read_nj > cfg.hash_nj


def test_energy_as_dict():
    clock, meter = metered_clock()
    clock.hash_op()
    assert meter.breakdown.as_dict()["hashes"] == 1


def test_adr_register_and_flush():
    flushed = []
    adr = ADRDomain(capacity_bytes=256)
    adr.register("records", 128, flush=lambda v: flushed.append(v))
    adr.register("scratch", 64)
    adr.put("records", ("line", 1))
    adr.put("scratch", "volatile-ish")
    adr.flush_on_crash()
    assert flushed == [("line", 1)]  # only slots with flushers persist


def test_adr_capacity_enforced():
    adr = ADRDomain(capacity_bytes=100)
    adr.register("a", 80)
    with pytest.raises(ConfigError):
        adr.register("b", 40)


def test_adr_unknown_slot_rejected():
    adr = ADRDomain(capacity_bytes=64)
    with pytest.raises(ConfigError):
        adr.put("nope", 1)
    with pytest.raises(ConfigError):
        adr.get("nope")


def test_adr_duplicate_slot_rejected():
    adr = ADRDomain(capacity_bytes=64)
    adr.register("x", 8)
    with pytest.raises(ConfigError):
        adr.register("x", 8)


def test_adr_get_default_and_contains():
    adr = ADRDomain(capacity_bytes=64)
    adr.register("x", 8)
    assert "x" not in adr
    assert adr.get("x", 42) == 42
    adr.put("x", 1)
    assert "x" in adr
    adr.clear()
    assert "x" not in adr


def test_nv_register_holds_value():
    reg = NonVolatileRegister("root", 64, initial=[0] * 8)
    reg.value[3] = 7
    assert reg.value[3] == 7
    reg.value = "replaced"
    assert reg.value == "replaced"


def test_nv_register_rejects_bad_size():
    with pytest.raises(ConfigError):
        NonVolatileRegister("bad", 0)
