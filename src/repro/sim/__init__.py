"""Simulation layer: clock, system wiring, crash orchestration, runners."""
from repro.sim.clock import MemClock
from repro.sim.multi import MultiControllerSystem, MultiRunResult
from repro.sim.crash import (
    capture_golden,
    check_recovered,
    crash_and_recover,
    run_with_crash,
)
from repro.sim.runner import (
    GC_VARIANTS,
    SC_VARIANTS,
    VARIANTS,
    RunSpec,
    make_system,
    run_cell,
    run_trace,
)
from repro.sim.stats import RunResult, geometric_mean
from repro.sim.system import SCHEMES, SecureNVMSystem, make_layout

__all__ = [
    "GC_VARIANTS",
    "MultiControllerSystem",
    "MultiRunResult",
    "MemClock",
    "RunResult",
    "RunSpec",
    "SCHEMES",
    "SC_VARIANTS",
    "SecureNVMSystem",
    "VARIANTS",
    "capture_golden",
    "check_recovered",
    "crash_and_recover",
    "geometric_mean",
    "make_layout",
    "make_system",
    "run_cell",
    "run_trace",
    "run_with_crash",
]
