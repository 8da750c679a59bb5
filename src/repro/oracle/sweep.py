"""Oracle suite planning and the parallel, cached crash-point sweep.

The suite covers four case roles per scheme, planned deterministically
from a pinned seed.  Like ``repro explore`` and ``repro faults``, it is
a planner over the shared front end
(:class:`~repro.explore.explorer.CellBatcher`): its probes and its
cases are ``"explore"`` cells on the crash engine, so they fan out over
processes and a warm rerun is answered from the content-addressed cache
without simulating anything:

* ``clean``  — untampered run + graceful shutdown + full read-back
  (a ``{"mode": "clean"}`` case: no crash trigger),
* ``crash``  — power failure at the first, middle and last fire of
  *every* injection point the scheme actually fires, plus
  crash-during-recovery doses (the
  :func:`~repro.explore.planner.first_middle_last_plans` policy over
  one probe cell per scheme and workload),
* ``tamper`` — a plan with an ``attack``
  (:data:`~repro.explore.runner.TAMPER_KINDS`) that must be detected or
  provably neutralized: data attacks on a clean run's flushed image,
  tree attacks between a shutdown crash and recovery
  (:func:`tamper_plans_for`),
* ``mutant`` — seeded controller bugs (:mod:`repro.oracle.mutants`),
  each run clean or crashed as it declares, that must come back in
  :data:`~repro.explore.runner.CAUGHT_OUTCOMES` (the oracle's
  self-test).

A cell's role is read off its plan (:func:`role_of`); every case runs on
the one case runner, :func:`~repro.explore.runner.run_case`, and yields
an :class:`~repro.oracle.harness.ExploreCaseResult`.

The acceptance bar, encoded in :meth:`SuiteSummary.failures`: zero
silent divergences anywhere, every tamper loud, every mutant caught.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.common.config import SystemConfig, small_config
from repro.exec.cache import ResultCache
from repro.exec.pool import ProgressFn
from repro.explore.explorer import Cell, CellBatcher
from repro.explore.planner import first_middle_last_plans
from repro.explore.runner import (
    CAUGHT_OUTCOMES,
    TAMPER_KINDS,
    ExploreCaseResult,
    ExploreProbe,
)
from repro.oracle.mutants import MUTANTS
from repro.schemes import get_scheme, resolve_schemes


def tamper_plans_for(scheme: str) -> list[dict[str, Any]]:
    """One plan per attack applicable to a scheme: data attacks corrupt
    the image after a clean run's graceful flush; tree attacks need the
    crash/recover cycle to force tree refetches, so they crash at the
    shutdown boundary and are skipped on non-recovering WB."""
    recovers = get_scheme(scheme).supports_recovery
    return [{"mode": "case", "at_shutdown": True, "attack": kind}
            if kind.startswith("tree-") else
            {"mode": "clean", "attack": kind}
            for kind in TAMPER_KINDS
            if recovers or not kind.startswith("tree-")]


def mutant_plans_for(scheme: str,
                     probe: ExploreProbe) -> list[dict[str, Any]]:
    """One crash-engine plan per mutant asserted on ``scheme``, from
    the unmutated ``probe`` of the trace the mutant runs on."""
    # the graceful flush's fires are recorded at access index len(trace)
    # (a generated trace may run past the requested access count)
    first_flush_fire = 1 + sum(1 for _, i, _ in probe.fires
                               if i < probe.accesses)
    plans: list[dict[str, Any]] = []
    for name, mutant in sorted(MUTANTS.items()):
        if scheme not in mutant.schemes:
            continue
        plan: dict[str, Any] = {"mode": "clean", "mutant": name}
        if mutant.crash is not None:
            plan = {"mode": "case", "at_shutdown": True, "mutant": name}
        if mutant.crash == "unflushed":
            # power lost at the graceful flush's first fire
            plan["crash_after"] = first_flush_fire
        plans.append(plan)
    return plans


def role_of(plan: dict[str, Any]) -> str:
    """The suite role of one cell plan: ``mutant``, ``tamper`` (an
    ``attack``), ``clean`` or ``crash``."""
    if "mutant" in plan:
        return "mutant"
    if "attack" in plan:
        return "tamper"
    return "clean" if plan["mode"] == "clean" else "crash"


@dataclass
class SuiteSummary:
    """Tallied outcome of one oracle suite run."""

    schemes: list[str]
    workloads: list[str]
    cases: list[dict[str, Any]] = field(default_factory=list)
    outcome_counts: dict[str, int] = field(default_factory=dict)
    cells_executed: int = 0
    cells_cached: int = 0

    def add(self, cell: Cell, result: ExploreCaseResult) -> None:
        scheme, workload, plan = cell
        mode = role_of(plan)
        self.cases.append({
            "scheme": scheme, "workload": workload,
            "mode": mode, "plan": plan, "outcome": result.outcome,
            "ok": self._case_ok(mode, result),
            "caught": result.outcome in CAUGHT_OUTCOMES,
            "detail": result.detail,
            "divergences": result.divergences,
        })
        self.outcome_counts[result.outcome] = \
            self.outcome_counts.get(result.outcome, 0) + 1

    @staticmethod
    def _case_ok(mode: str, result: ExploreCaseResult) -> bool:
        if mode in ("clean", "crash"):
            # untampered: only agreement (or an honest refusal) passes
            return result.outcome in ("match", "unsupported", "no_crash")
        if mode == "tamper":
            return result.outcome in ("detected", "neutralized")
        return result.outcome in CAUGHT_OUTCOMES

    @property
    def failures(self) -> list[dict[str, Any]]:
        return [c for c in self.cases if not c["ok"]]

    @property
    def silent_divergences(self) -> list[dict[str, Any]]:
        return [c for c in self.cases if c["outcome"] == "diverged"
                and c["mode"] in ("clean", "crash")]

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json(self) -> dict[str, Any]:
        return {
            "schemes": self.schemes, "workloads": self.workloads,
            "total": len(self.cases),
            "outcomes": dict(sorted(self.outcome_counts.items())),
            "failures": self.failures,
            "ok": self.ok,
        }

    def summary_lines(self) -> list[str]:
        counts = ", ".join(f"{k}={v}" for k, v in
                           sorted(self.outcome_counts.items()))
        lines = [f"oracle suite: {len(self.cases)} cases over "
                 f"{len(self.schemes)} schemes x "
                 f"{len(self.workloads)} workloads",
                 f"outcomes: {counts}"]
        for c in self.failures:
            lines.append(
                f"FAIL {c['scheme']}/{c['workload']} {c['mode']} "
                f"{c['plan']}: {c['outcome']} {c['detail']}")
        if self.ok:
            lines.append("all cases conform: no silent divergence, "
                         "every tamper loud, every mutant caught")
        return lines


def build_suite(schemes: list[str], workloads: list[str],
                probes: dict[tuple[str, str], ExploreProbe]
                ) -> list[Cell]:
    """Plan the full case list from one probe per (scheme, workload)
    (deterministic for a given seed/config)."""
    cells: list[Cell] = []
    for scheme in schemes:
        for workload in workloads:
            cells.append((scheme, workload, {"mode": "clean"}))
            cells += [(scheme, workload, plan) for plan in
                      first_middle_last_plans(probes[scheme, workload])]
        # tampers and mutants probe detection machinery, not workload
        # shape: one workload each keeps the suite tight
        plans = tamper_plans_for(scheme) + mutant_plans_for(
            scheme, probes[scheme, workloads[0]])
        cells += [(scheme, workloads[0], plan) for plan in plans]
    return cells


def run_oracle_suite(schemes: list[str] | None = None,
                     workloads: list[str] | None = None,
                     accesses: int = 400, footprint: int = 2048,
                     seed: int = 2024, jobs: int = 1,
                     cfg: SystemConfig | None = None,
                     cache: ResultCache | None = None,
                     progress: ProgressFn | None = None,
                     service: str | None = None) -> SuiteSummary:
    """Probe, plan and execute the differential suite; returns the
    tally.  Probes and cases are both cached ``"explore"`` cells, so a
    warm rerun simulates nothing.

    ``schemes`` is validated against the scheme registry: an unknown
    name raises :class:`~repro.common.errors.ConfigError` listing the
    registered schemes; ``None`` checks every registered scheme.
    """
    schemes = resolve_schemes(schemes)
    workloads = list(workloads) if workloads else ["pers_hash"]
    if cfg is None:
        cfg = small_config(metadata_cache_bytes=2048)
    batch = CellBatcher(accesses, footprint, seed, cfg, jobs=jobs,
                        cache=cache, progress=progress, service=service)
    pairs = [(s, w) for s in schemes for w in workloads]
    probes = batch.sweep([(s, w, {"mode": "probe"}) for s, w in pairs])
    cells = build_suite(schemes, workloads, dict(zip(pairs, probes)))
    tally = SuiteSummary(schemes=schemes, workloads=workloads)
    for cell, result in zip(cells, batch.sweep(cells)):
        tally.add(cell, result)
    tally.cells_executed = batch.executed
    tally.cells_cached = batch.cached
    return tally
