"""Crash-space exploration hygiene.

Crash enumeration lives in ``repro.explore``, the one crash engine: its
probe records every fault-point fire (``ExploreProbe.fires``), its
planner picks the crash cases — the oracle's and the fault campaign's
selection policies included — and its runner executes them,
digest-pruned and cached.  ``repro.oracle`` and ``repro.faults`` build
their crash cells on that engine (and ``repro.faults`` owns the
``FaultPlan`` registry), so they are sanctioned too.  A hand-rolled
loop that arms ``FaultPlan`` after ``FaultPlan``, walks the
injection-point table, or replays a probe's fires re-grows the
pre-explorer failure mode: ad-hoc sweeps with no pruning, no caching,
no report, and coverage claims nobody can audit
(docs/crash_exploration.md):

* SL801 ``crash-loop-outside-explore`` (ERROR) — a ``for``/``while``
  loop that constructs ``FaultPlan`` in its body, or iterates over
  ``INJECTION_POINTS`` / a probe's ``fires``, outside the sanctioned
  crash-tooling packages (``repro.explore``, ``repro.oracle``,
  ``repro.faults``).

A deliberate one-off sweep takes the reasoned-suppression path:
``# simlint: disable-next=SL801 -- <why the explorer cannot host it>``.
"""
from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.lint.diagnostics import Diagnostic, Severity
from repro.analysis.lint.registry import (
    FileUnit,
    ProjectContext,
    Rule,
    register,
)

#: packages allowed to enumerate crashes: the explorer itself and the
#: oracle and fault campaign built on it (plus the FaultPlan registry)
_SANCTIONED_DIRS = frozenset({"explore", "oracle", "faults"})


def _is_sanctioned(unit: FileUnit) -> bool:
    return bool(_SANCTIONED_DIRS & set(unit.parts[:-1]))


def _mentions(node: ast.AST, name: str) -> bool:
    """Does ``node`` reference ``name`` as a bare name or attribute?"""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and sub.id == name:
            return True
        if isinstance(sub, ast.Attribute) and sub.attr == name:
            return True
    return False


def _reads_attribute(node: ast.AST, attr: str) -> bool:
    """Does ``node`` read ``<something>.<attr>``?"""
    return any(isinstance(sub, ast.Attribute) and sub.attr == attr
               for sub in ast.walk(node))


def _fault_plan_calls(body: list[ast.stmt]) -> Iterator[ast.Call]:
    for stmt in body:
        for sub in ast.walk(stmt):
            if isinstance(sub, ast.Call) \
                    and _mentions(sub.func, "FaultPlan"):
                yield sub


@register
class CrashLoopOutsideExploreRule(Rule):
    id = "SL801"
    name = "crash-loop-outside-explore"
    severity = Severity.ERROR
    description = ("ad-hoc loop over injection points / fire indices "
                   "outside repro.explore and the sanctioned crash "
                   "tooling")
    invariant = ("every crash-space sweep flows through repro.explore, "
                 "so enumeration is pruned, cached, reported, and "
                 "auditable")
    paper = "crash-space explorer (docs/crash_exploration.md)"

    def check(self, unit: FileUnit,
              project: ProjectContext) -> Iterator[Diagnostic]:
        if _is_sanctioned(unit):
            return
        flagged: set[int] = set()
        for node in ast.walk(unit.tree):
            if not isinstance(node, (ast.For, ast.While)):
                continue
            if isinstance(node, ast.For) and (
                    _mentions(node.iter, "INJECTION_POINTS")
                    or _reads_attribute(node.iter, "fires")):
                if id(node) not in flagged:
                    flagged.add(id(node))
                    yield self.diag(unit, node, (
                        "loop over the injection-point table / a "
                        "probe's fires: crash-space sweeps belong in "
                        "repro.explore (run_explore), which prunes, "
                        "caches, and reports what this loop would "
                        "re-enumerate ad hoc"))
            for call in _fault_plan_calls(node.body):
                if id(call) in flagged:
                    continue
                flagged.add(id(call))
                yield self.diag(unit, call, (
                    "FaultPlan constructed inside a loop: arming one "
                    "plan per iteration is a hand-rolled crash "
                    "enumeration — use repro.explore so the sweep is "
                    "pruned and cached"))
