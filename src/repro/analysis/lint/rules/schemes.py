"""Scheme-registry hygiene.

The scheme registry (:mod:`repro.schemes`) is the one wiring point a
controller needs: registration makes it appear in the simulator, the
CLI, the figure harness, the oracle, and the explorer at once — and runs the dynamic half of the plugin contract.
A ``*Controller`` subclass that names itself but is never registered is
a scheme the conformance gate silently skips: it simulates fine when
instantiated by hand, yet no oracle suite, crash exploration, or figure
ever covers it.

* SL1001 ``scheme-not-registered`` (ERROR) — a class subclassing a
  ``*Controller`` that declares a literal ``name = "..."`` in its body
  while no analyzed file passes that literal to ``register_scheme``.

Shared bases stay out of scope by construction: they either have no
``*Controller`` base (``SecureMemoryController``) or declare no
``name`` literal of their own (``GeneratedCounterController``).
Exempt: classes named ``Test*``; dynamic registration (a non-literal
first argument) should carry a reasoned suppression instead.
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

_KEY = "SL1001/registered"


def _base_name(node: ast.expr) -> str:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return ""


def _subclasses_a_controller(node: ast.ClassDef) -> bool:
    return any(_base_name(b).endswith("Controller") for b in node.bases)


def _declared_name(node: ast.ClassDef) -> str | None:
    """The literal ``name = "..."`` assignment in the class body."""
    for item in node.body:
        targets = ()
        if isinstance(item, ast.Assign):
            targets = item.targets
        elif isinstance(item, ast.AnnAssign) and item.value is not None:
            targets = (item.target,)
        if not any(isinstance(t, ast.Name) and t.id == "name"
                   for t in targets):
            continue
        value = item.value
        if isinstance(value, ast.Constant) and isinstance(value.value,
                                                          str):
            return value.value
    return None


@register
class SchemeNotRegisteredRule(Rule):
    id = "SL1001"
    name = "scheme-not-registered"
    severity = Severity.ERROR
    description = ("named *Controller subclass never passed to "
                   "register_scheme")
    invariant = ("every scheme flows through the plugin registry, so "
                 "the conformance gate (oracle suite, crash explorer, "
                 "figure harness) covers it instead of silently "
                 "skipping an unlisted controller")
    paper = "scheme-plugin API (docs/schemes.md)"

    def collect(self, unit: FileUnit, project: ProjectContext) -> None:
        registered: set = project.setdefault(_KEY, set())
        for node in ast.walk(unit.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            callee = func.id if isinstance(func, ast.Name) else (
                func.attr if isinstance(func, ast.Attribute) else "")
            if callee != "register_scheme" or not node.args:
                continue
            first = node.args[0]
            if isinstance(first, ast.Constant) and isinstance(
                    first.value, str):
                registered.add(first.value)

    def check(self, unit: FileUnit,
              project: ProjectContext) -> Iterator[Diagnostic]:
        registered = project.get(_KEY, set())
        for node in ast.walk(unit.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if node.name.startswith("Test"):
                continue
            if not _subclasses_a_controller(node):
                continue
            declared = _declared_name(node)
            if declared is None or declared in registered:
                continue
            yield self.diag(unit, node, (
                f"class '{node.name}' names itself {declared!r} but is "
                "never registered: call repro.schemes.register_scheme"
                f"({declared!r}, {node.name}, ...) so the conformance "
                "gate covers it"))
