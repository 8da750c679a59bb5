"""The fault-injection layer: registry, torn writes, WPQ drain, ADR
slot independence, and crash-at-boundary regressions.

The acceptance sweep at the bottom is the issue's headline property: a
crash injected *inside* ``recover()`` followed by a second recovery
passes the golden-state check for Steins and every recoverable
baseline, at every recovery step the plan can reach.
"""
import pytest

from repro.common.config import small_config
from repro.common.errors import (
    ConfigError,
    CrashInjected,
    RecoveryError,
    TamperDetectedError,
)
from repro.faults.registry import (
    INJECTION_POINTS,
    FaultPlan,
    ResidualBudget,
    armed,
    atomic,
    fire,
)
from repro.faults.torn import WORDS_PER_LINE, TornLine, tear_value
from repro.nvm.adr import ADRDomain
from repro.nvm.device import NVMDevice
from repro.nvm.layout import Region
from repro.sim.crash import (
    capture_golden,
    check_recovered,
    run_with_crash,
)
from repro.sim.system import SecureNVMSystem, make_layout
from repro.workloads import get_profile

RECOVERABLE = ("steins", "asit", "star", "scue")


# --------------------------------------------------------------- registry
class TestRegistry:
    def test_unknown_point_rejected_even_unarmed(self):
        with pytest.raises(ConfigError):
            fire("controller.typo")

    def test_fire_without_plan_is_noop(self):
        for point in INJECTION_POINTS:
            fire(point)

    def test_crash_after_counts_runtime_fires(self):
        with armed(FaultPlan(crash_after=3)) as plan:
            fire("controller.write")
            fire("controller.read")
            with pytest.raises(CrashInjected) as exc:
                fire("controller.evict")
        assert exc.value.point == "controller.evict"
        assert plan.crash_delivered
        assert plan.run_fires == 3

    def test_single_shot_delivery(self):
        with armed(FaultPlan(crash_after=1)) as plan:
            with pytest.raises(CrashInjected):
                fire("controller.write")
            # the retried operation after recovery must not crash again
            fire("controller.write")
        assert plan.run_fires == 2

    def test_recovery_fires_counted_separately(self):
        with armed(FaultPlan(crash_after=1,
                             recovery_crash_after=2)) as plan:
            with pytest.raises(CrashInjected):
                fire("controller.write")
            fire("recovery.step")
            with pytest.raises(CrashInjected) as exc:
                fire("recovery.step")
            fire("recovery.step")  # single shot again
        assert exc.value.point == "recovery.step"
        assert plan.recovery_fires == 3
        assert plan.run_fires == 1

    def test_atomic_window_suppresses(self):
        with armed(FaultPlan(crash_after=1)) as plan:
            with atomic():
                fire("controller.write")
                with atomic():  # nests
                    fire("recovery.step")
            assert plan.suppressed_fires == 2
            assert not plan.crash_delivered

    def test_one_plan_at_a_time(self):
        with armed(FaultPlan()):
            with pytest.raises(ConfigError):
                with armed(FaultPlan()):
                    pass

    def test_residual_budget_exhausts(self):
        plan = FaultPlan(residual_words=10)
        budget = plan.begin_crash_flush()
        assert budget.take(8) == 8
        assert budget.take(8) == 2
        assert budget.take(8) == 0
        assert FaultPlan().begin_crash_flush() is None


# ------------------------------------------------------------ torn writes
class TestTornWrites:
    def test_uniform_int_tuple_mixes_at_word_granularity(self):
        old = (0,) * WORDS_PER_LINE
        new = tuple(range(1, WORDS_PER_LINE + 1))
        torn = tear_value(old, new, 3)
        assert torn == new[:3] + old[3:]

    def test_opaque_value_becomes_marker(self):
        torn = tear_value(17, 42, 3)
        assert isinstance(torn, TornLine)
        assert torn.words_written == 3


# ------------------------------------------------------------- device WPQ
def make_device() -> NVMDevice:
    return NVMDevice(make_layout(small_config()))


class TestDeviceCrashDrain:
    def test_healthy_crash_preserves_everything(self):
        device = make_device()
        for i in range(10):
            device.write(Region.DATA, i, (i, i, i, i))
        device.crash()
        assert device.read(Region.DATA, 9) == (9, 9, 9, 9)
        assert not device.wpq_snapshot()

    def test_exhausted_budget_tears_and_rolls_back(self):
        device = make_device()
        device.write(Region.DATA, 0, (1, 1, 1, 1))   # funded
        device.write(Region.DATA, 1, (2, 2, 2, 2))   # torn at word 4
        device.write(Region.DATA, 2, (3, 3, 3, 3))   # rolled back
        device.crash_drain(ResidualBudget(WORDS_PER_LINE + 4))
        assert device.read(Region.DATA, 0) == (1, 1, 1, 1)
        with pytest.raises(TamperDetectedError):
            device.read(Region.DATA, 1)
        assert device.read(Region.DATA, 2) is None
        assert device.wpq_torn == 1 and device.wpq_rolled_back == 1

    def test_repeated_writes_roll_back_to_oldest_preimage(self):
        device = make_device()
        device.poke(Region.DATA, 5, (0, 0, 0, 0))
        device.write(Region.DATA, 5, (1, 1, 1, 1))
        device.write(Region.DATA, 5, (2, 2, 2, 2))
        device.crash_drain(ResidualBudget(0))
        assert device.read(Region.DATA, 5) == (0, 0, 0, 0)


# ------------------------------------------------------- ADR (satellite 1)
class TestADRFlushIndependence:
    def test_failing_slot_does_not_strand_the_rest(self):
        adr = ADRDomain(capacity_bytes=256)
        flushed = []
        adr.register("bad", 8, lambda value: 1 / 0)
        adr.register("good", 8, flushed.append)
        adr.put("bad", 1)
        adr.put("good", 2)
        with pytest.raises(ZeroDivisionError):
            adr.flush_on_crash()
        assert flushed == [2]


# --------------------------------------- run_with_crash edges (satellite 2)
class TestRunWithCrashEdges:
    @pytest.mark.parametrize("crash_at", ["start", "end"])
    def test_crash_at_trace_boundaries(self, crash_at):
        trace = get_profile("pers_hash").generate(seed=5, n=300,
                                                  footprint=2048)
        system = SecureNVMSystem("steins",
                                 small_config(metadata_cache_bytes=2048))
        at = 0 if crash_at == "start" else len(trace)
        report = run_with_crash(system, trace, crash_at=at,
                                flush_writes=True)
        assert report is not None
        system.verify_all_persisted()


# ----------------------------------------- crash-during-recovery sweep
def drive_writes(system: SecureNVMSystem, n: int = 180) -> None:
    trace = get_profile("pers_hash").generate(seed=9, n=n, footprint=2048)
    for is_write, addr, gap in trace:
        system.advance(gap)
        if is_write:
            system.store(addr, flush=True)
        else:
            system.load(addr)


@pytest.mark.slow
@pytest.mark.parametrize("scheme", RECOVERABLE)
def test_crash_inside_every_recovery_step(scheme):
    """Crash recover() at its k-th step for every reachable k; the
    second recovery pass must land in the golden state each time."""
    k = 1
    while True:
        system = SecureNVMSystem(scheme,
                                 small_config(metadata_cache_bytes=2048))
        drive_writes(system)
        golden = capture_golden(system)
        plan = FaultPlan(recovery_crash_after=k)
        with armed(plan):
            system.crash()
            try:
                system.recover()
            except CrashInjected:
                system.crash()
                system.recover()
            check_recovered(system, golden)
        if not plan.recovery_crash_delivered:
            break  # k walked past the last reachable recovery step
        k += 1
    assert k > 1, "no recovery step was ever reached"


def test_wb_has_no_recovery_path():
    system = SecureNVMSystem("wb", small_config())
    drive_writes(system, n=60)
    system.crash()
    with pytest.raises(RecoveryError):
        system.recover()
