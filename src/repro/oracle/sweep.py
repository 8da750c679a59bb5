"""Oracle suite planning and the parallel, cached crash-point sweep.

The suite covers four case roles per scheme, planned deterministically
from a pinned seed and executed as ``"explore"`` cells through
:mod:`repro.exec` on the crash engine's
:func:`~repro.explore.runner.run_explore_cell` (so cases fan out over
processes and re-runs hit the content-addressed cache):

* ``clean``  — untampered run + graceful shutdown + full read-back,
* ``crash``  — power failure at the first, middle and last fire of
  *every* injection point the scheme actually fires, plus
  crash-during-recovery doses (the
  :func:`~repro.explore.planner.first_middle_last_plans` policy over
  one :func:`~repro.explore.runner.run_probe` per scheme and workload),
* ``tamper`` — :mod:`repro.attacks` tampers/replays that must be
  detected or provably neutralized,
* ``mutant`` — seeded controller bugs (:mod:`repro.oracle.mutants`),
  each run clean or crashed as it declares, that must come back in
  :data:`~repro.explore.runner.CAUGHT_OUTCOMES` (the oracle's
  self-test).

A cell's role is read off its plan (:func:`role_of`); every cell yields
an :class:`~repro.oracle.harness.ExploreCaseResult`.

The acceptance bar, encoded in :meth:`SuiteSummary.failures`: zero
silent divergences anywhere, every tamper loud, every mutant caught.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.common.config import SystemConfig, small_config
from repro.exec.cache import ResultCache
from repro.exec.configio import config_to_dict
from repro.exec.pool import ProgressFn, run_sweep
from repro.exec.spec import CellSpec
from repro.explore.planner import first_middle_last_plans
from repro.explore.runner import CAUGHT_OUTCOMES, ExploreProbe, run_probe
from repro.oracle.harness import TAMPER_KINDS, ExploreCaseResult
from repro.oracle.mutants import MUTANTS
from repro.schemes import get_scheme, resolve_schemes
from repro.workloads import get_profile

#: tamper kinds that need a crash/recover cycle to force tree refetches
_TREE_TAMPERS = ("tree-counter", "tree-replay")


def tamper_plans_for(scheme: str) -> list[dict[str, Any]]:
    """Tamper kinds applicable to a scheme (tree tampers need the
    crash/recover cycle, so they are skipped on non-recovering WB)."""
    recovers = get_scheme(scheme).supports_recovery
    return [{"mode": "tamper", "attack": kind}
            for kind in TAMPER_KINDS
            if recovers or kind not in _TREE_TAMPERS]


def mutant_plans_for(scheme: str, probe: ExploreProbe,
                     trace_len: int) -> list[dict[str, Any]]:
    """One crash-engine plan per mutant asserted on ``scheme``, from
    the unmutated ``probe`` of the trace (``trace_len`` accesses) the
    mutant runs on."""
    # the graceful flush's fires are recorded at access index len(trace)
    first_flush_fire = 1 + sum(1 for _, i, _ in probe.fires
                               if i < trace_len)
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
    """The suite role of one cell plan: ``mutant``, ``tamper``,
    ``clean`` or ``crash``."""
    if "mutant" in plan:
        return "mutant"
    mode = plan.get("mode")
    return mode if mode in ("tamper", "clean") else "crash"


@dataclass
class SuiteSummary:
    """Tallied outcome of one oracle suite run."""

    schemes: list[str]
    workloads: list[str]
    cases: list[dict[str, Any]] = field(default_factory=list)
    outcome_counts: dict[str, int] = field(default_factory=dict)
    cells_cached: int = 0
    cells_executed: int = 0

    def add(self, spec: CellSpec, result: ExploreCaseResult,
            cached: bool) -> None:
        plan = spec.fault or {}
        mode = role_of(plan)
        self.cases.append({
            "scheme": spec.variant, "workload": spec.workload,
            "mode": mode, "plan": plan, "outcome": result.outcome,
            "ok": self._case_ok(mode, result),
            "caught": result.outcome in CAUGHT_OUTCOMES,
            "detail": result.detail,
            "divergences": result.divergences,
        })
        self.outcome_counts[result.outcome] = \
            self.outcome_counts.get(result.outcome, 0) + 1
        if cached:
            self.cells_cached += 1
        else:
            self.cells_executed += 1

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


def build_suite(schemes: list[str], workloads: list[str], accesses: int,
                footprint: int, seed: int,
                cfg: SystemConfig) -> list[CellSpec]:
    """Plan the full case list (deterministic for a given seed/config)."""
    cfg_dict = config_to_dict(cfg)
    specs: list[CellSpec] = []

    def spec_for(scheme: str, workload: str,
                 plan: dict[str, Any]) -> CellSpec:
        return CellSpec("explore", scheme, workload, accesses, footprint,
                        seed, config=cfg_dict, fault=plan)

    for scheme in schemes:
        mutant_plans: list[dict[str, Any]] | None = None
        for workload in workloads:
            trace = get_profile(workload).generate(
                seed=seed, n=accesses, footprint=footprint)
            specs.append(spec_for(scheme, workload, {"mode": "clean"}))
            probe = run_probe(scheme, cfg, trace)
            for plan in first_middle_last_plans(probe):
                specs.append(spec_for(scheme, workload, plan))
            if mutant_plans is None:
                mutant_plans = mutant_plans_for(scheme, probe, len(trace))
        # tampers and mutants probe detection machinery, not workload
        # shape: one workload each keeps the suite tight
        for plan in tamper_plans_for(scheme) + (mutant_plans or []):
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
