"""The crash engine and systematic crash-space exploration.

One probe (:func:`run_probe`) records every crash the fault registry
can deliver; one case runner (:func:`run_case`) crashes, recovers,
checks and reads back a single candidate through the differential
oracle.  Two selection policies pick candidates from a probe:
``repro explore`` enumerates every crash — torn-write variants, crashes
during recovery, bounded double-crash sequences — and prunes
state-equivalent candidates by durable-state digest (``--budget``
bounds it to the highest-ranked classes); ``repro oracle`` aims at the
first, middle and last fire of each point
(:func:`first_middle_last_plans`).  Both plan
``(scheme, workload, plan)`` cells for one shared front end,
:class:`~repro.explore.explorer.CellBatcher`, which sweeps them as
cached ``"explore"`` cells.  See ``docs/crash_exploration.md``.
"""
from repro.explore.digest import DurableDigest
from repro.explore.explorer import (
    ExploreSummary,
    MutantSummary,
    VariantSummary,
    run_explore,
)
from repro.explore.planner import (
    FireClass,
    first_middle_last_plans,
    partition_fires,
    phase1_plans,
    phase2_plans,
    phase3_plans,
    second_crash_picks,
    select_frontier,
)
from repro.explore.runner import (
    ExploreCaseResult,
    ExploreProbe,
    run_case,
    run_explore_cell,
    run_probe,
)

__all__ = [
    "DurableDigest",
    "ExploreCaseResult",
    "ExploreProbe",
    "ExploreSummary",
    "FireClass",
    "MutantSummary",
    "VariantSummary",
    "first_middle_last_plans",
    "partition_fires",
    "phase1_plans",
    "phase2_plans",
    "phase3_plans",
    "run_case",
    "run_explore",
    "run_explore_cell",
    "run_probe",
    "second_crash_picks",
    "select_frontier",
]
