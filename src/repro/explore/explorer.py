"""The crash-space explorer: systematic enumeration with exact pruning.

For each (scheme, workload) the explorer runs four stages, every
simulation packaged as an ``"explore"`` :class:`~repro.exec.spec.CellSpec`
through :func:`repro.exec.pool.run_sweep` — so candidates fan out over
processes, re-runs hit the content-addressed cache (incremental
re-exploration: a warm rerun re-simulates nothing), and serial and
parallel runs produce byte-identical reports:

1. **Probe** — one instrumented run records every deliverable fire as
   ``(point, access index, durable-state digest)``.
2. **Phase 1** — partition fires into ``(digest, access index)``
   equivalence classes; for each representative, crash healthy and with
   each torn ADR budget; plus the untampered clean baseline.
3. **Phase 2/3** — from each representative's healthy result, crash at
   every step of its recovery (``recovery_fires``) and at bounded doses
   of the resumed segment (``resumed_fires``) — crash-during-recovery
   and double-crash coverage.
4. **Mutant hunt** — plant each seeded bug from
   :mod:`repro.oracle.mutants`, re-probe (a mutant can change the fire
   sequence), and re-run clean + phase-1 candidates: every mutant must
   surface somewhere *without the explorer being told where to crash*.

Pruned-candidate counts are exact, not estimates: a skipped class
member would have contributed precisely the same plan variants as its
representative (see ``docs/crash_exploration.md`` for the soundness
argument).  Budget mode (``class_budget``) bounds phase 1-3 to the
highest-ranked classes and reports the rest as ``skipped_budget`` —
bounded exploration is always loud, never silent.

Only ``diverged`` (silent disagreement with the reference model) and an
escaped mutant fail the run; ``detected``/``data_loss`` under a torn
budget are the loud outcomes lossy crashes are allowed to have.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable

from repro.common.config import SystemConfig, small_config
from repro.exec.cache import ResultCache
from repro.exec.configio import config_to_dict
from repro.exec.pool import ProgressFn, run_sweep
from repro.exec.spec import CellSpec
from repro.explore.planner import (
    FireClass,
    partition_fires,
    phase1_plans,
    phase2_plans,
    phase3_plans,
    select_frontier,
    shutdown_phase2_plans,
    shutdown_plans,
)
from repro.explore.runner import CAUGHT_OUTCOMES, ExploreCaseResult
from repro.oracle.mutants import MUTANTS
from repro.schemes import resolve_schemes

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.obs.metrics import MetricRegistry

#: outcomes that do not fail the explorer
_OK_OUTCOMES = frozenset(
    {"match", "detected", "data_loss", "unsupported", "inapplicable"})

#: one candidate to sweep: ``(scheme, workload, plan)``
Cell = tuple[str, str, dict[str, Any]]


@dataclass
class CellBatcher:
    """The front end every crash-sweep policy shares.

    ``repro explore`` and ``repro oracle`` plan :data:`Cell` triples;
    the batcher turns them into ``"explore"``
    :class:`~repro.exec.spec.CellSpec` cells on one trace shape and
    config, sweeps them through :func:`~repro.exec.pool.run_sweep`, and
    counts ``executed``/``cached`` over every batch, probes included.
    """

    accesses: int
    footprint: int
    seed: int
    cfg: SystemConfig
    jobs: int = 1
    cache: ResultCache | None = None
    progress: ProgressFn | None = None
    service: str | None = None
    executed: int = 0
    cached: int = 0

    def specs(self, cells: Iterable[Cell]) -> list[CellSpec]:
        cfg_dict = config_to_dict(self.cfg)
        return [CellSpec("explore", scheme, workload, self.accesses,
                         self.footprint, self.seed, config=cfg_dict,
                         fault=plan)
                for scheme, workload, plan in cells]

    def sweep(self, cells: Iterable[Cell]) -> list[Any]:
        """Each cell's decoded value, in cell order."""
        report = run_sweep(self.specs(cells), jobs=self.jobs,
                           cache=self.cache, progress=self.progress,
                           service=self.service)
        self.executed += report.executed
        self.cached += report.cached
        return report.values


@dataclass
class VariantSummary:
    """Exploration bookkeeping for one (scheme, workload) cell."""

    scheme: str
    workload: str
    fires: int = 0
    classes: int = 0
    frontier: int = 0
    skipped_budget: int = 0
    explored: dict[str, int] = field(default_factory=dict)
    pruned: dict[str, int] = field(default_factory=dict)
    outcome_counts: dict[str, int] = field(default_factory=dict)

    @property
    def explored_total(self) -> int:
        return sum(self.explored.values())

    @property
    def pruned_total(self) -> int:
        return sum(self.pruned.values())

    def tally(self, phase: str, result: ExploreCaseResult) -> None:
        self.explored[phase] = self.explored.get(phase, 0) + 1
        self.outcome_counts[result.outcome] = \
            self.outcome_counts.get(result.outcome, 0) + 1

    def to_json(self) -> dict[str, Any]:
        return {
            "scheme": self.scheme, "workload": self.workload,
            "fires": self.fires, "classes": self.classes,
            "frontier": self.frontier,
            "skipped_budget": self.skipped_budget,
            "explored": dict(sorted(self.explored.items())),
            "pruned": dict(sorted(self.pruned.items())),
            "explored_total": self.explored_total,
            "pruned_total": self.pruned_total,
            "outcomes": dict(sorted(self.outcome_counts.items())),
        }


@dataclass
class MutantSummary:
    """Whether one seeded bug was re-found, and by which candidate."""

    name: str
    scheme: str
    caught: bool = False
    caught_by: str = ""            #: phase/plan label of the first catch
    outcome_counts: dict[str, int] = field(default_factory=dict)

    def tally(self, label: str, result: ExploreCaseResult) -> None:
        self.outcome_counts[result.outcome] = \
            self.outcome_counts.get(result.outcome, 0) + 1
        if not self.caught and result.outcome in CAUGHT_OUTCOMES:
            self.caught = True
            self.caught_by = f"{label}: {result.outcome}"

    def to_json(self) -> dict[str, Any]:
        return {
            "name": self.name, "scheme": self.scheme,
            "caught": self.caught, "caught_by": self.caught_by,
            "outcomes": dict(sorted(self.outcome_counts.items())),
        }


@dataclass
class ExploreSummary:
    """Everything one exploration produced.

    ``to_json`` (and therefore the report file) deliberately excludes
    cache-hit and timing data: a cold parallel run and a warm serial
    rerun must produce byte-identical reports.  Cache provenance lives
    on :attr:`cells_executed` / :attr:`cells_cached` for the CLI's
    stderr summary and the benchmark emitter.
    """

    schemes: list[str]
    workloads: list[str]
    residuals: tuple[int, ...]
    class_budget: int | None
    recovery_cap: int | None
    variants: list[VariantSummary] = field(default_factory=list)
    mutants: list[MutantSummary] = field(default_factory=list)
    failures: list[dict[str, Any]] = field(default_factory=list)
    cells_executed: int = 0
    cells_cached: int = 0

    @property
    def escaped_mutants(self) -> list[MutantSummary]:
        return [m for m in self.mutants if not m.caught]

    @property
    def explored_total(self) -> int:
        return sum(v.explored_total for v in self.variants)

    @property
    def pruned_total(self) -> int:
        return sum(v.pruned_total for v in self.variants)

    @property
    def ok(self) -> bool:
        return not self.failures and not self.escaped_mutants

    def to_json(self) -> dict[str, Any]:
        return {
            "schemes": self.schemes, "workloads": self.workloads,
            "residuals": list(self.residuals),
            "class_budget": self.class_budget,
            "recovery_cap": self.recovery_cap,
            "variants": [v.to_json() for v in self.variants],
            "mutants": [m.to_json() for m in self.mutants],
            "explored_total": self.explored_total,
            "pruned_total": self.pruned_total,
            "failures": self.failures,
            "escaped_mutants": [m.name for m in self.escaped_mutants],
            "ok": self.ok,
        }

    def summary_lines(self) -> list[str]:
        # no cache/timing provenance here: cold and warm runs must print
        # identical tables (provenance goes to stderr via the CLI)
        lines = [
            "crash-space exploration: "
            f"{self.explored_total} candidates explored, "
            f"{self.pruned_total} pruned as state-equivalent",
            f"{'scheme':<8} {'workload':<10} {'fires':>5} {'classes':>7} "
            f"{'explored':>8} {'pruned':>6} {'skipped':>7}  outcomes",
        ]
        for v in self.variants:
            counts = ", ".join(f"{k}={n}" for k, n in
                               sorted(v.outcome_counts.items()))
            lines.append(
                f"{v.scheme:<8} {v.workload:<10} {v.fires:>5} "
                f"{v.classes:>7} {v.explored_total:>8} "
                f"{v.pruned_total:>6} {v.skipped_budget:>7}  {counts}")
        for m in self.mutants:
            status = f"caught ({m.caught_by})" if m.caught else "ESCAPED"
            lines.append(f"mutant {m.name:<22} on {m.scheme:<6} {status}")
        for f in self.failures:
            lines.append(
                f"FAIL {f['scheme']}/{f['workload']} {f['phase']} "
                f"{f['plan']}: {f['outcome']} {f['detail']}")
        if self.ok:
            mutant_note = (", every seeded mutant re-found"
                           if self.mutants else "")
            lines.append("crash space clear: no silent divergence"
                         + mutant_note)
        return lines


def run_explore(schemes: list[str] | None = None,
                workloads: list[str] | None = None,
                accesses: int = 120, footprint: int = 512,
                seed: int = 2025,
                residuals: tuple[int, ...] = (0, 8),
                class_budget: int | None = None,
                recovery_cap: int | None = None,
                with_mutants: bool = True,
                jobs: int = 1,
                cfg: SystemConfig | None = None,
                cache: ResultCache | None = None,
                progress: ProgressFn | None = None,
                metrics: "MetricRegistry | None" = None,
                service: str | None = None) -> ExploreSummary:
    """Enumerate and validate the crash space; returns the summary.

    ``class_budget=None`` / ``recovery_cap=None`` is full enumeration
    (the ``--small`` mode): every equivalence class explored, every
    recovery step crashed.  Finite values switch to the coverage-guided
    frontier for larger traces.

    ``schemes`` is validated against the scheme registry (unknown names
    raise :class:`~repro.common.errors.ConfigError`); the default is
    every recovery-capable scheme — crashing a scheme that cannot
    recover explores nothing, though naming one explicitly is allowed
    (its crash cells report ``unsupported``).
    """
    schemes = resolve_schemes(schemes, recoverable_only=schemes is None)
    workloads = list(workloads) if workloads else ["pers_hash"]
    if cfg is None:
        # the smallest metadata cache: short traces must still evict —
        # eviction fires are where state-equivalent candidates cluster
        # (pruning), and cache pressure is what makes persist-dropping
        # mutants observable at all
        cfg = small_config(metadata_cache_bytes=512)
    batch = CellBatcher(accesses, footprint, seed, cfg, jobs=jobs,
                        cache=cache, progress=progress, service=service)
    summary = ExploreSummary(schemes=schemes, workloads=workloads,
                             residuals=tuple(residuals),
                             class_budget=class_budget,
                             recovery_cap=recovery_cap)

    def record(vrep: VariantSummary, phase: str, plan: dict[str, Any],
               result: ExploreCaseResult) -> None:
        vrep.tally(phase, result)
        if result.outcome not in _OK_OUTCOMES:
            summary.failures.append({
                "scheme": vrep.scheme, "workload": vrep.workload,
                "phase": phase, "plan": plan,
                "outcome": result.outcome, "detail": result.detail,
                "divergences": result.divergences,
            })

    # ---------------------------------------------------- stage A: probe
    variant_keys = [(s, w) for s in schemes for w in workloads]
    probe_cells: list[Cell] = [(s, w, {"mode": "probe"})
                               for s, w in variant_keys]
    mutant_rows: list[tuple[str, str]] = []
    if with_mutants:
        for name in sorted(MUTANTS):
            eligible = sorted(set(MUTANTS[name].schemes) & set(schemes))
            if not eligible:
                continue
            mutant_rows.append((name, eligible[0]))
            probe_cells.append((eligible[0], workloads[0],
                                {"mode": "probe", "mutant": name}))
    probes = batch.sweep(probe_cells)

    # -------------------------------- stage B: clean + phase-1 candidates
    variants: dict[tuple[str, str], VariantSummary] = {}
    frontiers: dict[tuple[str, str], tuple[FireClass, ...]] = {}
    # (phase, class, cell) per candidate; a mutant's plans name it
    rows: list[tuple[str, FireClass | None, Cell]] = []
    for (s, w), probe in zip(variant_keys, probes):
        vrep = VariantSummary(scheme=s, workload=w, fires=len(probe.fires))
        classes = partition_fires(probe)
        vrep.classes = len(classes)
        frontier, skipped = select_frontier(classes, class_budget)
        vrep.frontier = len(frontier)
        vrep.skipped_budget = skipped
        variants[(s, w)] = vrep
        frontiers[(s, w)] = frontier
        rows.append(("clean", None, (s, w, {"mode": "clean"})))
        rows += [("phase1", None, (s, w, plan))
                 for plan in shutdown_plans(tuple(residuals))]
        for cls in frontier:
            vrep.pruned["phase1"] = vrep.pruned.get("phase1", 0) + \
                cls.pruned * (1 + len(residuals))
            rows += [("phase1", cls, (s, w, plan))
                     for plan in phase1_plans(cls, tuple(residuals))]
    mreps: dict[str, MutantSummary] = {}
    for (name, mscheme), probe in zip(
            mutant_rows, probes[len(variant_keys):]):
        mreps[name] = MutantSummary(name=name, scheme=mscheme)
        mfrontier, _ = select_frontier(partition_fires(probe), class_budget)
        mplans = [("clean", None, {"mode": "clean"}),
                  ("phase1", None, {"mode": "case", "at_shutdown": True})]
        mplans += [("phase1", cls, {"mode": "case", "crash_after": cls.rep})
                   for cls in mfrontier]
        rows += [(phase, cls, (mscheme, workloads[0],
                               {**plan, "mutant": name}))
                 for phase, cls, plan in mplans]

    # healthy phase-1 result per class: the phase-2/3 dose spans
    healthy: dict[tuple[str, str], dict[int, ExploreCaseResult]] = \
        {key: {} for key in variant_keys}
    results = batch.sweep(cell for _, _, cell in rows)
    for (phase, cls, (s, w, plan)), result in zip(rows, results):
        if "mutant" in plan:
            mreps[plan["mutant"]].tally(f"{phase} {plan}", result)
            continue
        record(variants[(s, w)], phase, plan, result)
        if phase == "phase1" and "residual_words" not in plan:
            # the shutdown-boundary candidate keys as rep 0 (real fire
            # indices are 1-based)
            healthy[(s, w)][cls.rep if cls is not None else 0] = result

    # ----------------------- stage C: recovery-crash + double-crash doses
    rows = []
    for (s, w), frontier in frontiers.items():
        vrep = variants[(s, w)]
        shutdown_result = healthy[(s, w)].get(0)
        if shutdown_result is not None:
            rows += [("phase2", None, (s, w, plan))
                     for plan in shutdown_phase2_plans(
                         shutdown_result.recovery_fires, recovery_cap)]
        for cls in frontier:
            result = healthy[(s, w)].get(cls.rep)
            if result is None:
                continue
            p2 = phase2_plans(cls, result.recovery_fires, recovery_cap)
            p3 = phase3_plans(cls, result.resumed_fires)
            vrep.pruned["phase2"] = vrep.pruned.get("phase2", 0) + \
                cls.pruned * len(p2)
            vrep.pruned["phase3"] = vrep.pruned.get("phase3", 0) + \
                cls.pruned * len(p3)
            rows += [(phase, cls, (s, w, plan))
                     for phase, plans in (("phase2", p2), ("phase3", p3))
                     for plan in plans]
    results = batch.sweep(cell for _, _, cell in rows)
    for (phase, _, (s, w, plan)), result in zip(rows, results):
        record(variants[(s, w)], phase, plan, result)

    summary.cells_executed = batch.executed
    summary.cells_cached = batch.cached
    summary.variants = [variants[key] for key in variant_keys]
    summary.mutants = [mreps[name] for name, _ in mutant_rows]
    if metrics is not None:
        metrics.counter("explore.candidates_explored").inc(
            summary.explored_total)
        metrics.counter("explore.candidates_pruned").inc(
            summary.pruned_total)
        metrics.counter("explore.cells_executed").inc(
            summary.cells_executed)
        metrics.counter("explore.cells_cached").inc(summary.cells_cached)
        metrics.counter("explore.failures").inc(len(summary.failures))
    return summary
