"""Fault-injection hygiene.

Crash points are threaded through the persist paths via the
``repro.faults`` registry (named injection points, a single armed
:class:`~repro.faults.registry.FaultPlan`).  That discipline is what
makes crash sweeps deterministic and their coverage meaningful: the
registry counts every fire, enforces single-shot delivery, and
suppresses fires inside crash-atomic transactions.  An ad-hoc
``if crash_now:`` flag or a home-grown ``fire()`` helper bypasses all
three, so injected crashes stop being countable, replayable, or
atomicity-aware.

* SL403 ``ad-hoc-fault-hook`` (ERROR) — a crash/fault trigger flag
  tested outside the registry, or a ``fire(...)`` call whose name was
  not imported from ``repro.faults``.
"""
from __future__ import annotations

import ast
import re
from typing import Iterator

from repro.analysis.lint.diagnostics import Diagnostic, Severity
from repro.analysis.lint.registry import (
    FileUnit,
    ProjectContext,
    Rule,
    register,
)

#: flag spellings that smell like a hand-rolled crash trigger; plan and
#: bookkeeping fields (crash_after, crash_delivered, _crashed) stay legal
_TRIGGER_FLAG = re.compile(
    r"^_?((crash|fault|inject)_(now|flag|pending|armed|requested|enabled)"
    r"|(should|do|want)_(crash|fault|inject))$")

_FAULT_MODULES = ("repro.faults", "repro.faults.registry")


def _flag_names(test: ast.expr) -> Iterator[tuple[ast.expr, str]]:
    """(node, name) pairs in a condition that look like trigger flags."""
    for node in ast.walk(test):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        else:
            continue
        if _TRIGGER_FLAG.match(name):
            yield node, name


def _registry_fire_names(tree: ast.Module) -> set[str]:
    """Local names bound to the registry's ``fire`` by an import."""
    names = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.module in _FAULT_MODULES:
            for alias in node.names:
                if alias.name == "fire":
                    names.add(alias.asname or alias.name)
    return names


@register
class AdHocFaultHookRule(Rule):
    id = "SL403"
    name = "ad-hoc-fault-hook"
    severity = Severity.ERROR
    description = ("fault injection bypassing the repro.faults "
                   "registry")
    invariant = ("every injected crash flows through a named, counted "
                 "registry point: crash sweeps stay deterministic and "
                 "atomic sections stay crash-free")
    paper = "fault-injection design (docs/fault_injection.md)"

    def check(self, unit: FileUnit,
              project: ProjectContext) -> Iterator[Diagnostic]:
        # the registry itself (and its package) legitimately manipulates
        # trigger state
        if "faults" in unit.parts[:-1]:
            return
        fire_names = _registry_fire_names(unit.tree)
        for node in ast.walk(unit.tree):
            if isinstance(node, (ast.If, ast.While)):
                for flag_node, name in _flag_names(node.test):
                    yield self.diag(unit, flag_node, (
                        f"ad-hoc fault trigger '{name}': inject "
                        "crashes via a named repro.faults injection "
                        "point (fire(...)), not a hand-rolled flag"))
            elif (isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Name)
                  and node.func.id == "fire"
                  and node.func.id not in fire_names):
                yield self.diag(unit, node, (
                    "'fire' is not imported from repro.faults: "
                    "injection hooks must go through the registry so "
                    "they are counted and atomicity-aware"))
