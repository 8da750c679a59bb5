"""Idiomatic crash tooling use that must stay silent."""
from repro.explore import run_explore
from repro.faults.registry import FaultPlan, armed


def one_deterministic_crash(system, run):
    # a single armed plan is a test scenario, not an enumeration
    plan = FaultPlan(crash_after=7)
    with armed(plan):
        run(system)
    return plan.crash_delivered


def systematic_sweep():
    # the sanctioned path: pruned, cached, reported
    return run_explore(schemes=["steins"], accesses=40, footprint=128)


def unrelated_loops(points):
    # ordinary loops over ordinary data are fine
    for item in sorted(points):
        print(item)
    plans = [{"mode": "case", "crash_after": 3}]
    for plan in plans:
        print(plan["crash_after"])
    fires = [3, 5]   # a local list, not a probe's fires
    for fire in fires:
        print(fire)
