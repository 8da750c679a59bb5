"""Double-crash recovery properties (issue satellite): crash mid-run,
crash *again* partway through the recovery pass, then recover fully —
every recovery-capable scheme must land in the golden pre-crash state.

This is the fault-registry analogue of the explorer's phase-2/phase-3
candidates (``docs/crash_exploration.md``): here hypothesis draws the
crash fire and the recovery dose instead of enumerating them, so the
``deep`` profile keeps searching crash placements the bounded explorer
presets never reach.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import KnownDivergence, drive, scaled

from repro.common.config import small_config
from repro.common.errors import CrashInjected
from repro.explore.runner import run_case
from repro.faults.registry import FaultPlan, armed
from repro.schemes import recoverable_scheme_names
from repro.sim.crash import capture_golden, check_recovered
from repro.sim.system import SecureNVMSystem
from repro.workloads import get_profile
from repro.workloads.trace import TraceArrays

#: registry iteration: plugin schemes join the double-crash properties
#: the moment they register as recovery-capable
RECOVERABLE = recoverable_scheme_names()


def _crashed_system(scheme: str, crash_after: int):
    """Drive until the plan fires, then power off mid-run.

    Returns ``(system, golden)`` where golden is the durable state the
    recoveries must reconverge to.  If the trace is too short for the
    trigger, crash at the end instead — still a valid scenario.
    """
    system = SecureNVMSystem(scheme, small_config(metadata_cache_bytes=512))
    trace = get_profile("pers_hash").generate(seed=13, n=120, footprint=512)
    plan = FaultPlan(crash_after=crash_after)
    with armed(plan):
        try:
            drive(system, trace)
        except CrashInjected:
            pass
    golden = capture_golden(system)
    system.crash()
    return system, golden


def _recover_with_second_crash(system, dose: int) -> bool:
    """First recovery pass crashed after ``dose`` steps, second pass runs
    to completion.  Returns True when the second crash was delivered."""
    plan = FaultPlan(recovery_crash_after=dose)
    with armed(plan):
        try:
            system.recover()
        except CrashInjected:
            system.crash()
            system.recover()
    return plan.recovery_crash_delivered


@pytest.mark.parametrize("scheme", RECOVERABLE)
@settings(max_examples=scaled(15))
@given(crash_after=st.integers(min_value=1, max_value=160),
       dose=st.integers(min_value=1, max_value=12))
def test_recovery_survives_a_second_crash(scheme, crash_after, dose):
    system, golden = _crashed_system(scheme, crash_after)
    _recover_with_second_crash(system, dose)
    check_recovered(system, golden)
    system.verify_all_persisted()


@pytest.mark.parametrize("scheme", RECOVERABLE)
def test_second_crash_at_every_reachable_recovery_step(scheme):
    """Exhaustive in the dose: crash the first recovery pass at its
    k-th step for every k it can reach, for one fixed run crash."""
    k = 1
    while True:
        system, golden = _crashed_system(scheme, crash_after=40)
        delivered = _recover_with_second_crash(system, k)
        check_recovered(system, golden)
        system.verify_all_persisted()
        if not delivered:
            break  # recovery finished in fewer than k steps
        k += 1
    assert k > 1, "recovery never fired an injection point"


@pytest.mark.parametrize("scheme", RECOVERABLE)
def test_triple_recovery_is_idempotent(scheme):
    """Recover -> crash -> recover -> crash -> recover converges: extra
    interrupted passes never move the recovered state."""
    system, golden = _crashed_system(scheme, crash_after=40)
    _recover_with_second_crash(system, 1)
    check_recovered(system, golden)
    for _ in range(2):
        system.crash()
        system.recover()
        check_recovered(system, golden)


#: minimal double-crash reproducers, shrunk from ``repro explore
#: --accesses 40 --seed 2024``: (scheme, [is_write, block] accesses,
#: first crash fire, second crash fire, the error on resume)
REPRODUCERS = [
    pytest.param("star", [[1, 512], [1, 32768], [0, 64], [0, 9]], 5, 8,
                 "cache-tree root mismatch", id="star"),
    pytest.param("asit", [[1, 0], [0, 64], [1, 4096], [1, 512], [1, 0],
                          [1, 8]], 7, 15,
                 "data HMAC mismatch for block 512", id="asit"),
]


@pytest.mark.xfail(strict=True, raises=KnownDivergence,
                   reason="unfixed: ASIT and STAR diverge on resume after "
                          "a crash during the resumed trace")
@pytest.mark.parametrize("scheme, accesses, crash_after, "
                         "second_crash_after, error", REPRODUCERS)
def test_double_crash_reproducer(scheme, accesses, crash_after,
                                 second_crash_after, error):
    """Each case must come back ``match``.  Until it is fixed it raises
    :class:`KnownDivergence`, and only for its pinned outcome and
    message: any other failure fails the test outright."""
    trace = TraceArrays(np.array([w for w, _ in accesses], dtype=bool),
                        np.array([b for _, b in accesses], dtype=np.int64),
                        np.full(len(accesses), 10, dtype=np.int32))
    result = run_case(scheme, small_config(metadata_cache_bytes=512),
                      trace, {"mode": "case", "crash_after": crash_after,
                              "second_crash_after": second_crash_after})
    if result.outcome == "diverged" and error in result.detail:
        raise KnownDivergence(result.detail)
    assert result.outcome == "match", result.detail
