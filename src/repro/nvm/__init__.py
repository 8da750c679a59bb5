"""NVM substrate: layout, persistent device model, timing, energy, ADR."""
from repro.nvm.adr import ADRDomain, NonVolatileRegister
from repro.nvm.device import DeviceStats, NVMDevice
from repro.nvm.energy import EnergyBreakdown, EnergyMeter
from repro.nvm.layout import MemoryLayout, Region, build_layout
from repro.nvm.timing import NVMTimingModel, TimingStats

__all__ = [
    "ADRDomain",
    "DeviceStats",
    "EnergyBreakdown",
    "EnergyMeter",
    "MemoryLayout",
    "NVMDevice",
    "NVMTimingModel",
    "NonVolatileRegister",
    "Region",
    "TimingStats",
    "build_layout",
]
