"""Oracle suite planning and the parallel, cached crash-point sweep.

The suite covers four case modes per scheme, planned deterministically
from a pinned seed and executed as ``"oracle"`` cells through
:mod:`repro.exec` (so cases fan out over processes and re-runs hit the
content-addressed cache):

* ``clean``  — untampered run + graceful shutdown + full read-back,
* ``crash``  — power failure at the first, middle and last fire of
  *every* injection point the scheme actually fires, plus
  crash-during-recovery doses (the
  :func:`~repro.explore.planner.first_middle_last_plans` policy over
  one :func:`~repro.explore.runner.run_probe` per scheme and workload),
* ``tamper`` — :mod:`repro.attacks` tampers/replays that must be
  detected or provably neutralized,
* ``mutant`` — seeded controller bugs that must *not* come back
  ``match`` (the oracle's self-test).

Clean and crash cells run on the crash engine
(:func:`repro.explore.runner.run_clean` / ``run_case``) and yield an
:class:`~repro.explore.runner.ExploreCaseResult`; tamper and mutant
cells yield an :class:`~repro.oracle.harness.OracleCaseResult`.

The acceptance bar, encoded in :meth:`SuiteSummary.failures`: zero
silent divergences anywhere, every tamper loud, every mutant caught.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.common.config import SystemConfig, small_config
from repro.common.errors import ConfigError
from repro.exec.cache import ResultCache
from repro.exec.configio import config_to_dict
from repro.exec.pool import ProgressFn, run_sweep
from repro.exec.spec import CellSpec
from repro.oracle.harness import (
    TAMPER_KINDS,
    OracleCaseResult,
    run_tamper_case,
)
from repro.oracle.mutants import MUTANTS, run_mutant_case
from repro.schemes import get_scheme, resolve_schemes
from repro.workloads.trace import TraceArrays

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.explore.runner import ExploreCaseResult

#: tamper kinds that need a crash/recover cycle to force tree refetches
_TREE_TAMPERS = ("tree-counter", "tree-replay")


def run_oracle_cell(scheme: str, workload: str, plan: dict[str, Any],
                    cfg: SystemConfig, trace: TraceArrays,
                    ) -> ExploreCaseResult | OracleCaseResult:
    """Executor entry point: dispatch one oracle cell by its plan."""
    # the crash engine drives a DifferentialRun, so it imports this
    # package: import it at call time, after both have initialised
    from repro.explore.runner import run_case, run_clean

    mode = plan.get("mode")
    if mode == "clean":
        return run_clean(scheme, cfg, trace)
    if mode == "crash":
        return run_case(scheme, cfg, trace, plan)
    if mode == "tamper":
        return run_tamper_case(plan["attack"], scheme, workload, trace,
                               cfg)
    if mode == "mutant":
        return run_mutant_case(plan["mutant"], scheme, workload, trace,
                               cfg)
    raise ConfigError(f"unknown oracle cell mode {plan.get('mode')!r}")


def tamper_plans_for(scheme: str) -> list[dict[str, Any]]:
    """Tamper kinds applicable to a scheme (tree tampers need the
    crash/recover cycle, so they are skipped on non-recovering WB)."""
    recovers = get_scheme(scheme).supports_recovery
    return [{"mode": "tamper", "attack": kind}
            for kind in TAMPER_KINDS
            if recovers or kind not in _TREE_TAMPERS]


def mutant_plans_for(scheme: str) -> list[dict[str, Any]]:
    return [{"mode": "mutant", "mutant": name}
            for name in sorted(MUTANTS)
            if scheme in MUTANTS[name].schemes]


@dataclass
class SuiteSummary:
    """Tallied outcome of one oracle suite run."""

    schemes: list[str]
    workloads: list[str]
    cases: list[dict[str, Any]] = field(default_factory=list)
    outcome_counts: dict[str, int] = field(default_factory=dict)
    cells_cached: int = 0
    cells_executed: int = 0

    def add(self, spec: CellSpec,
            result: ExploreCaseResult | OracleCaseResult,
            cached: bool) -> None:
        plan = spec.fault or {}
        mode = plan.get("mode", "?")
        caught = result.outcome != "match"
        ok = self._case_ok(mode, result)
        self.cases.append({
            "scheme": spec.variant, "workload": spec.workload,
            "mode": mode, "plan": plan, "outcome": result.outcome,
            "ok": ok, "caught": caught, "detail": result.detail,
            "divergences": result.to_json()["divergences"],
        })
        self.outcome_counts[result.outcome] = \
            self.outcome_counts.get(result.outcome, 0) + 1
        if cached:
            self.cells_cached += 1
        else:
            self.cells_executed += 1

    @staticmethod
    def _case_ok(mode: str,
                 result: ExploreCaseResult | OracleCaseResult) -> bool:
        if mode in ("clean", "crash"):
            # untampered: only agreement (or an honest refusal) passes
            return result.outcome in ("match", "unsupported", "no_crash")
        if mode == "tamper":
            return result.outcome in ("detected", "neutralized")
        if mode == "mutant":
            return result.outcome != "match"
        return False

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
            "cells_cached": self.cells_cached,
            "cells_executed": self.cells_executed,
            "ok": self.ok,
        }

    def summary_lines(self) -> list[str]:
        counts = ", ".join(f"{k}={v}" for k, v in
                           sorted(self.outcome_counts.items()))
        lines = [f"oracle suite: {len(self.cases)} cases over "
                 f"{len(self.schemes)} schemes x "
                 f"{len(self.workloads)} workloads "
                 f"({self.cells_executed} run, {self.cells_cached} "
                 f"cached)",
                 f"outcomes: {counts}"]
        for c in self.failures:
            lines.append(
                f"FAIL {c['scheme']}/{c['workload']} {c['mode']} "
                f"{c['plan']}: {c['outcome']} {c['detail']}")
        if self.ok:
            lines.append("all cases conform: no silent divergence, "
                         "every tamper loud, every mutant caught")
        return lines


def build_suite(schemes: list[str], workloads: list[str], accesses: int,
                footprint: int, seed: int,
                cfg: SystemConfig) -> list[CellSpec]:
    """Plan the full case list (deterministic for a given seed/config)."""
    from repro.explore.planner import first_middle_last_plans
    from repro.explore.runner import run_probe
    from repro.workloads import get_profile

    cfg_dict = config_to_dict(cfg)
    specs: list[CellSpec] = []

    def spec_for(scheme: str, workload: str,
                 plan: dict[str, Any]) -> CellSpec:
        return CellSpec("oracle", scheme, workload, accesses, footprint,
                        seed, check=False, config=cfg_dict, fault=plan)

    for scheme in schemes:
        for workload in workloads:
            trace = get_profile(workload).generate(
                seed=seed, n=accesses, footprint=footprint)
            specs.append(spec_for(scheme, workload,
                                  {"mode": "clean"}))
            probe = run_probe(scheme, cfg, trace)
            for plan in first_middle_last_plans(probe):
                specs.append(spec_for(scheme, workload, plan))
        # tampers and mutants probe detection machinery, not workload
        # shape: one workload each keeps the suite tight
        for plan in tamper_plans_for(scheme):
            specs.append(spec_for(scheme, workloads[0], plan))
        for plan in mutant_plans_for(scheme):
            specs.append(spec_for(scheme, workloads[0], plan))
    return specs


def run_oracle_suite(schemes: list[str] | None = None,
                     workloads: list[str] | None = None,
                     accesses: int = 400, footprint: int = 2048,
                     seed: int = 2024, jobs: int = 1,
                     cfg: SystemConfig | None = None,
                     cache: ResultCache | None = None,
                     progress: ProgressFn | None = None,
                     service: str | None = None) -> SuiteSummary:
    """Plan and execute the differential suite; returns the tally.

    ``schemes`` is validated against the scheme registry: an unknown
    name raises :class:`~repro.common.errors.ConfigError` listing the
    registered schemes; ``None`` checks every registered scheme.
    """
    schemes = resolve_schemes(schemes)
    workloads = list(workloads) if workloads else ["pers_hash"]
    if cfg is None:
        cfg = small_config(metadata_cache_bytes=2048)
    specs = build_suite(schemes, workloads, accesses, footprint, seed,
                        cfg)
    report = run_sweep(specs, jobs=jobs, cache=cache, progress=progress,
                       service=service)
    tally = SuiteSummary(schemes=schemes, workloads=workloads)
    for outcome in report.outcomes:
        tally.add(outcome.spec, outcome.value, outcome.cached)
    return tally
