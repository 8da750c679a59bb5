"""The fault-injection registry: named crash points and crash plans.

Every place the simulator can lose power *between two persists* calls
:func:`fire` with a point name declared in :data:`INJECTION_POINTS`.
With no plan armed a fire is a no-op, so the instrumented hot paths cost
one dict lookup.  Arming a :class:`FaultPlan` (via :func:`armed`) turns
the n-th fire into a raised ``CrashInjected``, which the crash engine
(:func:`repro.explore.runner.run_case`) catches to crash and recover
the system mid-operation.

Design rules enforced here:

* **Atomic windows** — :func:`atomic` marks a hardware-atomic
  transaction (an on-chip register commit, a latched pending update);
  fires inside it are counted as suppressed but never raise, because no
  real crash can split the transaction.
* **Recovery fires are counted separately** — ``recovery.step`` fires
  drive ``recovery_crash_after`` (crash-during-recovery), all other
  points drive ``crash_after``, so one plan can place a runtime crash
  *and* a crash inside the recovery that follows it.
* **Single shot** — each trigger delivers at most once per plan; the
  retried operation after recovery does not crash again.
* **ADR energy budget** — a plan may carry ``residual_words``, the
  number of 8-byte words the capacitors can still persist at crash
  time; :meth:`FaultPlan.begin_crash_flush` converts it into the
  :class:`ResidualBudget` that the WPQ drain and the record-cache flush
  spend (torn writes and lost lines fall out of exhaustion).
"""
from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator

from repro.common.errors import ConfigError, CrashInjected

#: every named injection point and the persist boundary it models
INJECTION_POINTS: dict[str, str] = {
    "controller.write": "data write accepted, before its metadata persists",
    "controller.read": "demand read accepted, before verification",
    "controller.evict": "dirty victim chosen, before its flush persists",
    "controller.flush": "between two dirty-node flushes of flush_all",
    "metacache.evict": "cache way reclaimed, before the insert lands",
    "steins.drain": "between two NV-buffer applies during a drain",
    "recovery.step": "between two persist/register steps of recover()",
}

#: the one point whose fires count toward crash-during-recovery
POINT_RECOVERY = "recovery.step"


@dataclass
class ResidualBudget:
    """Words of ADR residual energy left for one crash's flushes."""

    remaining: int

    def take(self, words: int) -> int:
        """Spend up to ``words``; returns how many were actually funded."""
        granted = min(words, self.remaining)
        self.remaining -= granted
        return granted


@dataclass
class FaultPlan:
    """One deterministic crash scenario.

    ``crash_after=None`` makes the plan count-only (used to probe how
    many fires a trace produces before spreading crash points over
    them).
    """

    crash_after: int | None = None
    recovery_crash_after: int | None = None
    residual_words: int | None = None
    #: observer invoked at every *deliverable* runtime fire (after the
    #: counters advance, before any crash raises) — the crash-space
    #: explorer's probe uses it to digest the durable state a crash at
    #: exactly this fire would see; None costs nothing on the hot path
    on_fire: Callable[[str], None] | None = None
    run_fires: int = 0
    recovery_fires: int = 0
    suppressed_fires: int = 0
    crash_delivered: bool = False
    recovery_crash_delivered: bool = False
    budget: ResidualBudget | None = None

    def begin_crash_flush(self) -> ResidualBudget | None:
        """Start a crash's residual-power phase; None means healthy ADR."""
        if self.residual_words is None:
            self.budget = None
        else:
            self.budget = ResidualBudget(self.residual_words)
        return self.budget


_active: FaultPlan | None = None
_atomic_depth = 0


def active_plan() -> FaultPlan | None:
    """The armed plan, if any."""
    return _active


def residual_budget() -> ResidualBudget | None:
    """The current crash's energy budget (None: unlimited / no plan)."""
    return _active.budget if _active is not None else None


@contextmanager
def armed(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Arm ``plan`` for the duration of the block (one plan at a time)."""
    global _active
    if _active is not None:
        raise ConfigError("a fault plan is already armed")
    _active = plan
    try:
        yield plan
    finally:
        _active = None


@contextmanager
def atomic() -> Iterator[None]:
    """A hardware-atomic transaction: fires inside never raise."""
    global _atomic_depth
    _atomic_depth += 1
    try:
        yield
    finally:
        _atomic_depth -= 1


def fire(point: str) -> None:
    """Hit a named injection point; raises ``CrashInjected`` on trigger."""
    # Disabled-first ordering: with no plan armed (every production
    # sweep), a fire costs one global load and one membership probe —
    # the same <1%-when-disabled discipline as repro.obs.
    plan = _active
    if plan is None:
        if point in INJECTION_POINTS:
            return
        raise ConfigError(f"unknown injection point {point!r}")
    if point not in INJECTION_POINTS:
        raise ConfigError(f"unknown injection point {point!r}")
    if _atomic_depth > 0:
        plan.suppressed_fires += 1
        return
    if point == POINT_RECOVERY:
        plan.recovery_fires += 1
        if (plan.recovery_crash_after is not None
                and not plan.recovery_crash_delivered
                and plan.recovery_fires >= plan.recovery_crash_after):
            plan.recovery_crash_delivered = True
            raise CrashInjected(
                f"injected crash at {point} "
                f"(recovery fire #{plan.recovery_fires})", point=point)
    else:
        plan.run_fires += 1
        if plan.on_fire is not None:
            plan.on_fire(point)
        if (plan.crash_after is not None
                and not plan.crash_delivered
                and plan.run_fires >= plan.crash_after):
            plan.crash_delivered = True
            raise CrashInjected(
                f"injected crash at {point} (fire #{plan.run_fires})",
                point=point)
