"""Candidate planning: from one probed fire list to the crash space.

The probe (:func:`repro.explore.runner.run_probe`) records every
deliverable runtime fire as ``(point, access index, durable digest)``.
Every crash-selection policy is a plain function over that list, and
every candidate it picks runs through
:func:`repro.explore.runner.run_case`: :func:`first_middle_last_plans`
(``repro oracle``) and the exhaustive builders below (``repro
explore``), which turn the list into the candidate set actually
simulated, with the DPOR-style pruning the explorer reports on:

* **Partition** fires into equivalence classes keyed ``(digest, access
  index)``.  Two fires in the same class crash with byte-identical
  crash-relevant state *and* resume the same trace suffix, so every
  plan variant (torn budgets, recovery crashes, double crashes) run at
  one of them reproduces bit-for-bit at the other — exploring one
  representative covers the class (soundness argument in
  ``docs/crash_exploration.md``).  Pruned-candidate counts are exact:
  each skipped class member would have contributed the same variants as
  its representative.
* **Frontier selection** bounds the representative set for big traces:
  classes whose digest *changed* at the representative fire (the
  durable state just moved — the interesting crash windows) rank ahead
  of quiescent ones, newest first within each group.  Dropped classes
  are counted as ``skipped_budget``, never silently.
* **Plan builders** emit the plain-dict case plans ``"explore"`` cells
  carry in ``CellSpec.fault`` — canonical-JSON-stable by construction
  (sorted keys, ints/strings only) so cache keys are deterministic.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable

from repro.explore.runner import ExploreProbe


@dataclass(frozen=True)
class FireClass:
    """One pruning-equivalence class of probe fires."""

    digest: str
    access_index: int
    point: str                 #: injection point of the representative
    fires: tuple[int, ...]     #: member fire indices (1-based, ascending)
    changed: bool              #: digest differs from the previous fire's

    @property
    def rep(self) -> int:
        """The representative (first) fire index."""
        return self.fires[0]

    @property
    def pruned(self) -> int:
        """Class members covered by the representative."""
        return len(self.fires) - 1


def partition_fires(probe: ExploreProbe) -> tuple[FireClass, ...]:
    """Group fires into ``(digest, access index)`` classes, ordered by
    first appearance."""
    groups: dict[tuple[str, int], list[int]] = {}
    meta: dict[tuple[str, int], tuple[str, bool]] = {}
    prev_digest: str | None = None
    for k, (point, access_idx, digest) in enumerate(probe.fires, start=1):
        key = (digest, access_idx)
        if key not in groups:
            groups[key] = []
            meta[key] = (point, digest != prev_digest)
        groups[key].append(k)
        prev_digest = digest
    return tuple(
        FireClass(digest=digest, access_index=access_idx, point=meta[key][0],
                  fires=tuple(fires), changed=meta[key][1])
        for key, fires in groups.items()
        for digest, access_idx in (key,))


def select_frontier(classes: tuple[FireClass, ...],
                    budget: int | None) -> tuple[tuple[FireClass, ...], int]:
    """Bound the representative set to ``budget`` classes.

    Returns ``(kept, skipped)``.  ``budget=None`` keeps everything (the
    ``--small`` full-enumeration mode).  Otherwise classes are ranked
    state-changed-first, then newest-first (descending representative
    fire): the coverage-guided heuristic prefers crash windows where the
    durable state just moved, which is where recovery bugs live.
    """
    if budget is None or budget >= len(classes):
        return classes, 0
    ranked = sorted(classes,
                    key=lambda c: (not c.changed, -c.rep))
    kept = set(id(c) for c in ranked[:budget])
    # preserve probe order among the survivors: plan emission (and
    # therefore report ordering) must not depend on the ranking sort
    frontier = tuple(c for c in classes if id(c) in kept)
    return frontier, len(classes) - len(frontier)


def phase1_plans(cls: FireClass,
                 residuals: tuple[int, ...]) -> list[dict[str, Any]]:
    """First-crash plans for one representative: the healthy crash plus
    one torn variant per residual ADR word budget."""
    plans: list[dict[str, Any]] = [{"mode": "case", "crash_after": cls.rep}]
    plans.extend({"mode": "case", "crash_after": cls.rep,
                  "residual_words": words} for words in residuals)
    return plans


def shutdown_plans(residuals: tuple[int, ...]) -> list[dict[str, Any]]:
    """The shutdown-boundary candidates: power lost immediately after a
    graceful ``flush_all``.  Not reachable by any ``crash_after`` index —
    the final flush's own state transitions (e.g. the last root advance)
    happen *after* the last deliverable fire — so the boundary is its
    own candidate, healthy plus each torn variant."""
    plans: list[dict[str, Any]] = [{"mode": "case", "at_shutdown": True}]
    plans.extend({"mode": "case", "at_shutdown": True,
                  "residual_words": words} for words in residuals)
    return plans


def shutdown_phase2_plans(recovery_fires: int,
                          cap: int | None) -> list[dict[str, Any]]:
    """Crash-during-recovery doses on top of the shutdown crash."""
    return [{"mode": "case", "at_shutdown": True,
             "recovery_crash_after": step}
            for step in recovery_crash_picks(recovery_fires, cap)]


def recovery_crash_picks(recovery_fires: int,
                         cap: int | None) -> tuple[int, ...]:
    """Which recovery steps to crash at: all of ``1..recovery_fires``
    when ``cap`` is None (full enumeration), else an evenly spread
    subset of at most ``cap`` steps."""
    return _spread(recovery_fires, cap)


def phase2_plans(cls: FireClass, recovery_fires: int,
                 cap: int | None) -> list[dict[str, Any]]:
    """Crash-during-recovery plans for one representative."""
    return [{"mode": "case", "crash_after": cls.rep,
             "recovery_crash_after": step}
            for step in recovery_crash_picks(recovery_fires, cap)]


def second_crash_picks(resumed_fires: int) -> tuple[int, ...]:
    """Double-crash dosage over the resumed segment: first fire, middle
    fire, last fire (deduplicated for short segments)."""
    if resumed_fires <= 0:
        return ()
    return tuple(sorted({1, resumed_fires // 2 + 1, resumed_fires}))


def phase3_plans(cls: FireClass, resumed_fires: int) -> list[dict[str, Any]]:
    """Bounded double-crash plans for one representative."""
    return [{"mode": "case", "crash_after": cls.rep,
             "second_crash_after": pick}
            for pick in second_crash_picks(resumed_fires)]


def _spread(n: int, cap: int | None) -> tuple[int, ...]:
    """``1..n`` when it fits the cap, else ``cap`` evenly spread picks
    (always including 1 and ``n``)."""
    if n <= 0:
        return ()
    if cap is None or n <= cap:
        return tuple(range(1, n + 1))
    if cap == 1:
        return (1,)
    step = (n - 1) / (cap - 1)
    return tuple(sorted({1 + round(i * step) for i in range(cap)}))


def first_middle_last_plans(probe: ExploreProbe,
                            recovery_doses: Iterable[int] = (1, 2),
                            ) -> list[dict[str, Any]]:
    """The oracle's policy: crash at the first, middle, and last fire of
    every point that fired, plus crash-during-recovery doses on top of
    the run's middle fire.  Plans are :func:`~repro.explore.runner.run_case`
    plans, each labelled with the targeted ``point``."""
    occurrences: dict[str, list[int]] = {}
    for k, (point, _, _) in enumerate(probe.fires, start=1):
        occurrences.setdefault(point, []).append(k)
    plans: list[dict[str, Any]] = []
    for point in sorted(occurrences):
        hits = occurrences[point]
        for crash_after in sorted({hits[0], hits[len(hits) // 2],
                                   hits[-1]}):
            plans.append({"mode": "case", "point": point,
                          "crash_after": crash_after})
    if probe.fires:
        mid = len(probe.fires) // 2 + 1
        for dose in recovery_doses:
            plans.append({"mode": "case", "point": "recovery.step",
                          "crash_after": mid,
                          "recovery_crash_after": dose})
    return plans

