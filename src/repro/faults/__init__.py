"""Fault injection: crashes between persists, torn writes, ADR budgets.

The registry and the torn-write model are dependency-free and imported
by the instrumented low layers (device, ADR, metacache, controllers).
The crash engine that arms them lives in :mod:`repro.explore`, which
imports ``repro.sim``; nothing here may import it back, or the
controllers that call :func:`fire` would close an import cycle.
"""
from repro.faults.registry import (
    INJECTION_POINTS,
    POINT_RECOVERY,
    FaultPlan,
    ResidualBudget,
    active_plan,
    armed,
    atomic,
    fire,
    residual_budget,
)
from repro.faults.torn import WORDS_PER_LINE, TornLine, tear_value

__all__ = [
    "INJECTION_POINTS",
    "POINT_RECOVERY",
    "FaultPlan",
    "ResidualBudget",
    "TornLine",
    "WORDS_PER_LINE",
    "active_plan",
    "armed",
    "atomic",
    "fire",
    "residual_budget",
    "tear_value",
]
