"""Differential-oracle conformance hygiene.

Every scheme controller is crash-tested on the crash engine
(``repro.explore``), whose durable-state digest reads the
scheme-specific durable state through one uniform hook:
``oracle_extra_state`` on the base class, which delegates to
``_oracle_extra_state``.  A new controller subclass that does not
override the hook silently reports *no* scheme-specific durable state —
its NV registers, buffers, or shadow structures drop out of the digest,
and the explorer merges crash points that differ in exactly the state
the new scheme added:

* SL701 ``scheme-bypasses-oracle-hooks`` (ERROR) — a ``*Controller``
  subclass that does not define ``_oracle_extra_state`` in its own
  body.

A controller with genuinely no extra durable state declares that
explicitly (``return {}``), which is the base behaviour made visible —
and auditable — at the subclass.  Exempt: classes named ``Test*``.
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

_HOOK = "_oracle_extra_state"


def _base_name(node: ast.expr) -> str:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return ""


def _subclasses_a_controller(node: ast.ClassDef) -> bool:
    return any(_base_name(b).endswith("Controller") for b in node.bases)


def _defines_hook(node: ast.ClassDef) -> bool:
    return any(isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
               and item.name == _HOOK
               for item in node.body)


@register
class SchemeBypassesOracleHooksRule(Rule):
    id = "SL701"
    name = "scheme-bypasses-oracle-hooks"
    severity = Severity.ERROR
    description = ("*Controller subclass without its own "
                   "_oracle_extra_state override")
    invariant = ("every scheme exposes its durable state to the "
                 "differential oracle, so conformance runs diff the "
                 "whole controller rather than passing vacuously on "
                 "state the snapshot never saw")
    paper = "differential oracle (docs/testing.md)"

    def check(self, unit: FileUnit,
              project: ProjectContext) -> Iterator[Diagnostic]:
        for node in ast.walk(unit.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if node.name.startswith("Test"):
                continue
            if _subclasses_a_controller(node) and not _defines_hook(node):
                yield self.diag(unit, node, (
                    f"class '{node.name}': controller subclasses must "
                    f"define {_HOOK}() so the differential oracle "
                    "snapshots their scheme-specific durable state "
                    "(return {} to declare there is none)"))
