"""Hand-rolled crash enumeration the explorer already provides."""
from repro.faults.registry import INJECTION_POINTS, FaultPlan, armed


def sweep_every_point(system):
    for point in INJECTION_POINTS:
        print(point)


def sweep_every_fire(system, run):
    for k in range(1, 50):
        plan = FaultPlan(crash_after=k)
        with armed(plan):
            run(system)


def sweep_until_quiet(system, run):
    k = 1
    while k < 100:
        with armed(FaultPlan(recovery_crash_after=k)):
            run(system)
        k += 1


def replay_fires(probe):
    for point, _, _ in probe.fires:
        print(point)
