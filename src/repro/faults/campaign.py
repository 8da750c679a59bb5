"""Deterministic fault-injection campaign over schemes and workloads.

One *case* is one crash candidate of the crash engine
(:func:`repro.explore.runner.run_case`): a simulated machine driven
through one trace with a crash at a chosen fire (optionally with an
exhausted ADR energy budget, optionally followed by a second crash
*inside* the recovery that follows), recovered, checked against the
golden pre-crash snapshot, resumed, and read back through the secure
path against the reference model.

The campaign is a selection policy over the engine's probe
(:func:`repro.explore.planner.spread_plans`): crash points are spread
evenly, with seeded jitter, over the fire span one probe run measures,
so coverage tracks the instrumented persist boundaries rather than
wall-clock or access counts.  Probes and cases run as cached
``"explore"`` cells.  Everything derives from ``make_rng(seed, ...)``:
two runs with the same arguments produce the same report, byte for
byte.

Outcome classes (the engine's vocabulary)
-----------------------------------------

``match``
    Full success: recovery validated, trace resumed, read-back clean.
    Lossy plans skip the golden-state check (their budget models lost
    state) and are judged by recovery and read-back alone.
``detected``
    A lossy plan (finite ``residual_words``) lost state and a detection
    error surfaced — the acceptable failure mode (Sec. III-H).
``data_loss``
    A lossy plan rolled back writes the reference model had counted as
    persisted; expected only when the ADR energy contract is broken.
``unsupported``
    The scheme has no recovery path (WB) — crash coverage still
    exercises its runtime persist boundaries.
``no_crash``
    The plan's trigger lay beyond the trace's fire span.
``diverged``
    Anything else: silent corruption, lost state, or a detection error
    under a *healthy* ADR.  Always a bug; the campaign minimizes the
    reproducing trace prefix and fails the run.

This module imports :mod:`repro.sim` and therefore must never be pulled
in by ``repro.faults.__init__`` (the registry is imported from the hot
paths the simulator is built out of).
"""
from __future__ import annotations

from typing import Any

from repro.common.config import SystemConfig, small_config
from repro.exec import CellSpec, ResultCache, config_to_dict, run_sweep
from repro.explore import runner
from repro.explore.planner import spread_plans
from repro.schemes import resolve_schemes
from repro.workloads import get_profile
from repro.workloads.trace import TraceArrays


def minimize_case(scheme: str, plan: dict[str, Any], cfg: SystemConfig,
                  trace: TraceArrays, require_point: str = "") -> int:
    """Smallest trace prefix (in accesses) that still diverges.

    Binary search: divergence is near-monotone in the prefix length
    because the crash trigger is a fire *count* — prefixes too short to
    reach it cannot diverge.  Best effort, never worse than the full
    trace.

    ``require_point`` pins the minimized reproduction to the original
    failure: each candidate prefix is re-run end to end (re-probing
    where the crash trigger actually lands on the shortened trace), and
    a prefix only counts as reproducing if its crash fires at the same
    injection point.  Without the pin, a truncated trace can diverge
    through a *different* crash (the trigger is a global fire count, and
    what the resumed suffix exercises changes with the prefix length),
    so the reported minimized repro would crash at the wrong fire and
    debug a different bug than the campaign hit.
    """
    def diverges(n: int) -> bool:
        result = runner.run_case(scheme, cfg, trace.head(n), plan)
        if result.outcome != "diverged":
            return False
        return not require_point or result.crash_point == require_point

    lo, hi = 1, len(trace)
    if not diverges(hi):
        return hi
    while lo < hi:
        mid = (lo + hi) // 2
        if diverges(mid):
            hi = mid
        else:
            lo = mid + 1
    return hi


def run_campaign(schemes: list[str], workloads: list[str],
                 crashes: int = 200, seed: int = 2024,
                 accesses: int = 400, footprint: int = 2048,
                 cfg: SystemConfig | None = None,
                 jobs: int = 1, cache: ResultCache | None = None,
                 progress: Any = None,
                 service: str | None = None) -> dict[str, Any]:
    """Run the full campaign; returns a JSON-serializable report.

    Probes and cases are ``"explore"`` cells fanned out over
    ``repro.exec`` (``jobs`` worker processes, optional result cache;
    ``service`` routes both sweeps to a running ``repro serve`` socket
    instead).  The report is a pure
    function of the campaign parameters: it never contains timing or
    worker-count information, so serial, parallel, and distributed runs
    compare byte for byte.
    """
    schemes = resolve_schemes(schemes)
    if cfg is None:
        cfg = small_config(metadata_cache_bytes=2048)
    cfg_dict = config_to_dict(cfg)

    def sweep(cells: list[tuple[str, str, dict[str, Any]]]) -> list[Any]:
        specs = [CellSpec("explore", s, w, accesses, footprint, seed,
                          check=False, config=cfg_dict, fault=plan)
                 for s, w, plan in cells]
        return run_sweep(specs, jobs=jobs, cache=cache, progress=progress,
                         service=service).values

    pairs = [(s, w) for s in schemes for w in workloads]
    probes = sweep([(s, w, {"mode": "probe"}) for s, w in pairs])
    per_cell = max(1, crashes // len(pairs))
    cases = [(s, w, plan) for (s, w), probe in zip(pairs, probes)
             for plan in spread_plans(probe, per_cell, seed, "faults", s, w)]
    results = sweep(cases)

    # minimization re-runs cases in-process; traces are built on demand
    traces: dict[str, TraceArrays] = {}

    def trace_for(workload: str) -> TraceArrays:
        if workload not in traces:
            traces[workload] = get_profile(workload).generate(
                seed=seed, n=accesses, footprint=footprint)
        return traces[workload]

    outcomes: dict[str, int] = {}
    crash_points: dict[str, int] = {}
    cells: dict[str, dict[str, Any]] = {
        f"{s}/{w}": {"cases": 0, "outcomes": {},
                     "fire_span": len(probe.fires)}
        for (s, w), probe in zip(pairs, probes)}
    diverged: list[dict[str, Any]] = []
    for (scheme, workload, plan), result in zip(cases, results):
        outcomes[result.outcome] = outcomes.get(result.outcome, 0) + 1
        if result.crash_point:
            crash_points[result.crash_point] = \
                crash_points.get(result.crash_point, 0) + 1
        cell = cells[f"{scheme}/{workload}"]
        cell["cases"] += 1
        cell["outcomes"][result.outcome] = \
            cell["outcomes"].get(result.outcome, 0) + 1
        if result.outcome == "diverged":
            entry: dict[str, Any] = {
                "scheme": scheme, "workload": workload,
                "crash_after": plan["crash_after"],
                "recovery_crash_after": plan.get("recovery_crash_after"),
                "residual_words": plan.get("residual_words"),
                "crash_point": result.crash_point,
                "crash_index": result.crash_index,
                "detail": result.detail,
            }
            if len(diverged) < 3:  # minimization is a full re-run loop
                entry["minimized_prefix"] = minimize_case(
                    scheme, plan, cfg, trace_for(workload),
                    require_point=result.crash_point)
            diverged.append(entry)
    return {
        "seed": seed,
        "crashes_requested": crashes,
        "accesses": accesses,
        "footprint": footprint,
        "schemes": list(schemes),
        "workloads": list(workloads),
        "cases": len(cases),
        "outcomes": outcomes,
        "cells": cells,
        "crash_points": crash_points,
        "diverged": diverged,
    }
