"""The crash engine: digest probes and candidate cases.

These are the workers of ``"explore"`` cells — every ``repro explore``,
``repro faults`` and ``repro oracle`` probe and case.

Every routine here is a pure function of ``(scheme, plan dict, config,
trace)`` — the contract that lets :mod:`repro.exec` fan cells out over
processes and cache their payloads by content.  Three plan modes:

* ``{"mode": "probe"}`` — count-only instrumented run: every runtime
  fire is recorded as ``(point, access index, durable-state digest)``
  via the :class:`~repro.faults.registry.FaultPlan` ``on_fire`` hook.
  The planner derives the entire candidate space from this one list.
* ``{"mode": "clean"}`` — untampered run + graceful shutdown + full
  read-back (the baseline every crash candidate is compared against).
* ``{"mode": "case"}`` — one crash candidate: crash at a global fire
  index, optionally with a finite ADR energy budget (torn variant), a
  second crash inside recovery, or a second crash during the resumed
  trace (double-crash).  Validated through the differential oracle and
  the golden-state check.

All three accept an optional ``"mutant"`` key naming a seeded bug from
:mod:`repro.oracle.mutants` to plant for the duration of the run — the
explorer's self-test re-finds every mutant without being told where to
crash, and the oracle runs each mutant under the plan its ``crash``
field declares.
:func:`run_explore_cell` also runs the oracle's ``{"mode": "tamper"}``
cells (:func:`repro.oracle.harness.run_tamper_case`), which stage an
attack between two trace halves and have no crash to plan.

Outcome vocabulary, shared by every crash check: ``match`` /
``diverged`` / ``unsupported`` / ``no_crash``, plus ``detected`` /
``data_loss`` for torn (finite-budget) variants where a loud loss is
the acceptable failure mode, and ``inapplicable`` when a mutant's
post-crash corruption has no state to corrupt at this crash point.
``diverged`` is *always* a failure.
"""
from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any

from repro.common.config import SystemConfig
from repro.common.errors import (
    ConfigError,
    CrashInjected,
    IntegrityError,
    RecoveryError,
)
from repro.common.records import strict_record
from repro.explore.digest import DurableDigest
from repro.faults.registry import FaultPlan, armed
from repro.oracle.harness import (
    DifferentialRun,
    ExploreCaseResult,
    run_tamper_case,
)
from repro.oracle.model import OracleViolation
from repro.oracle.mutants import MUTANTS
from repro.workloads.trace import TraceArrays

#: one recorded probe fire: (point, access index, durable digest)
Fire = tuple[str, int, str]

#: outcomes that count as *catching* a planted mutant
CAUGHT_OUTCOMES = frozenset({"detected", "diverged", "data_loss"})


@dataclass(frozen=True)
class ExploreProbe:
    """The full instrumented fire list of one run (fires are 1-based:
    fire index k is ``fires[k-1]``)."""

    fires: tuple[Fire, ...]

    def to_json(self) -> dict[str, Any]:
        return {"fires": [list(f) for f in self.fires]}

    @classmethod
    def from_json(cls, data: dict[str, Any]) -> "ExploreProbe":
        """Decode :meth:`to_json`'s encoding; anything else (a missing,
        extra or mistyped key, a fire not ``[point, index, digest]``)
        raises :class:`ConfigError`."""
        fires = strict_record(data, {"fires": list}, "probe")["fires"]
        for fire in fires:
            if type(fire) is not list \
                    or [type(x) for x in fire] != [str, int, str]:
                raise ConfigError(
                    f"probe fire must be [point, access index, digest], "
                    f"got {fire!r}")
        return cls(fires=tuple((p, i, d) for p, i, d in fires))


def _mutant_ctx(dr: DifferentialRun, name: str | None):
    if name is None:
        return nullcontext()
    mutant = MUTANTS.get(name)
    if mutant is None:
        raise ConfigError(f"unknown mutant {name!r}; "
                          f"pick one of {sorted(MUTANTS)}")
    return mutant.patch(dr)


def run_probe(scheme: str, cfg: SystemConfig, trace: TraceArrays,
              mutant: str | None = None) -> ExploreProbe:
    """Instrumented count-only run: the candidate space of one cell.

    Graceful-shutdown fires (``flush_all``) are recorded with access
    index ``len(trace)`` — a crash there resumes nothing.
    """
    dr = DifferentialRun(scheme, cfg, check_counters=False)
    digest = DurableDigest(dr.system)
    fires: list[Fire] = []
    pos = {"i": 0}

    def observe(point: str) -> None:
        fires.append((point, pos["i"], digest()))

    with _mutant_ctx(dr, mutant), armed(FaultPlan(on_fire=observe)):
        try:
            for i in range(len(trace)):
                pos["i"] = i
                dr.step(trace, i)
            pos["i"] = len(trace)
            dr.controller.flush_all()
        # a planted mutant may die loudly mid-trace (e.g. counter reuse
        # trips the HMAC check on the first re-read); the fires recorded
        # up to that point *are* the mutant's reachable crash space
        # simlint: disable-next=SL402 -- probe truncation, not a verdict
        except (IntegrityError, RecoveryError, OracleViolation,
                AssertionError):
            pass
    return ExploreProbe(fires=tuple(fires))


def run_clean(scheme: str, cfg: SystemConfig, trace: TraceArrays,
              mutant: str | None = None) -> ExploreCaseResult:
    """Untampered baseline (and the cheapest mutant catcher: lockstep
    read diffs and counter echoes need no crash at all)."""
    dr = DifferentialRun(scheme, cfg)
    out = ExploreCaseResult(outcome="match")
    try:
        with _mutant_ctx(dr, mutant):
            dr.run_trace(trace)
            dr.controller.flush_all()
            dr.verify_end_state()
    # a detection error is a classified terminal outcome here, loud by
    # construction (the explorer fails the run on silent divergence)
    # simlint: disable-next=SL402 -- classified, not swallowed
    except (IntegrityError, RecoveryError, OracleViolation,
            AssertionError) as exc:
        out.outcome = "detected"
        out.detail = f"{type(exc).__name__}: {exc}"
    out.divergences = [d.to_json() for d in dr.divergences]
    if out.outcome == "match" and dr.divergences:
        out.outcome = "diverged"
    return out


def _classify(exc: Exception, dr: DifferentialRun, lossy: bool,
              out: ExploreCaseResult, when: str) -> ExploreCaseResult:
    """Map a post-crash error onto the outcome vocabulary."""
    out.detail = f"{when}: {type(exc).__name__}: {exc}"
    out.divergences = [d.to_json() for d in dr.divergences]
    if isinstance(exc, RecoveryError) \
            and not dr.controller.supports_recovery:
        out.outcome = "unsupported"
    elif isinstance(exc, (IntegrityError, RecoveryError, OracleViolation)):
        out.outcome = "detected" if lossy else "diverged"
    else:  # AssertionError: golden-state or read-back disagreement
        out.outcome = "data_loss" if lossy else "diverged"
    return out


def run_case(scheme: str, cfg: SystemConfig, trace: TraceArrays,
             plan: dict[str, Any]) -> ExploreCaseResult:
    """One crash candidate end to end.

    Phases: run to the planned fire -> crash (optionally torn) ->
    recover (optionally crashing mid-recovery, finishing on the second
    pass) -> golden check -> resume the trace (optionally crashing
    *again* at a fire of the resumed segment, recovering once more) ->
    full read-back against the reference model.
    """
    mutant_name = plan.get("mutant")
    mutant = MUTANTS.get(mutant_name) if mutant_name else None
    residual = plan.get("residual_words")
    lossy = residual is not None
    # the per-write counter echo reads the *persisted* line, which a
    # lossy crash legitimately rolls back; only healthy runs check it
    at_shutdown = bool(plan.get("at_shutdown"))
    dr = DifferentialRun(scheme, cfg, check_counters=not lossy)
    out = ExploreCaseResult(outcome="match")
    with _mutant_ctx(dr, mutant_name):
        plan1 = FaultPlan(
            crash_after=plan.get("crash_after"),
            recovery_crash_after=plan.get("recovery_crash_after"),
            residual_words=residual)
        with armed(plan1):
            i = 0
            try:
                while i < len(trace):
                    dr.step(trace, i)
                    i += 1
            except CrashInjected as exc:
                out.crash_point = exc.point
            # a detection error *before* the crash: a planted mutant
            # caught by the runtime checks (loud), or — with no mutant —
            # a spurious detection on an untampered run (a bug)
            # simlint: disable-next=SL402 -- classified, not swallowed
            except (IntegrityError, RecoveryError, OracleViolation) as exc:
                out.crash_index = i
                out.detail = f"pre-crash: {type(exc).__name__}: {exc}"
                out.outcome = "detected" if mutant else "diverged"
                out.divergences = [d.to_json() for d in dr.divergences]
                return out
            out.crash_index = i
            if at_shutdown or not plan1.crash_delivered:
                # either the shutdown-boundary candidate (power lost
                # right after a graceful flush — the only reachable
                # window for state the final flush itself creates, e.g.
                # the last root advance), or a trigger past the trace
                # landing inside flush_all
                try:
                    dr.controller.flush_all()
                except CrashInjected as exc:
                    out.crash_point = exc.point
            if at_shutdown and not plan1.crash_delivered:
                out.crash_point = "shutdown"
            elif not plan1.crash_delivered:
                out.outcome = "no_crash"
                return out
            pre = dr.crash()
            if mutant is not None and mutant.post_crash is not None:
                try:
                    mutant.post_crash(dr)
                except ConfigError as exc:
                    # nothing to corrupt at this crash point (e.g. the
                    # root never advanced before an early crash)
                    out.outcome = "inapplicable"
                    out.detail = str(exc)
                    return out
            try:
                try:
                    dr.system.recover()
                except CrashInjected:
                    out.recovery_crashed = True
                    dr.system.crash()
                    dr.system.recover()
                if not lossy:
                    dr.check_recovery(pre)
            # classified against the outcome vocabulary, never silent
            # simlint: disable-next=SL402 -- classified, not swallowed
            except (IntegrityError, RecoveryError) as exc:
                return _classify(exc, dr, lossy, out, "recovery")
            except AssertionError as exc:
                return _classify(exc, dr, lossy, out, "recovery")
            out.recovery_fires = plan1.recovery_fires
        # the resumed segment runs under its own plan: count-only by
        # default, or the double-crash trigger when the planner asks
        plan2 = FaultPlan(crash_after=plan.get("second_crash_after"))
        try:
            with armed(plan2):
                j = out.crash_index
                try:
                    while j < len(trace):
                        dr.step(trace, j)
                        j += 1
                except CrashInjected as exc:
                    out.second_crash_point = exc.point
                    out.second_crash_index = j
                out.resumed_fires = plan2.run_fires
                if plan2.crash_delivered:
                    pre2 = dr.crash()
                    dr.system.recover()
                    if not lossy:
                        dr.check_recovery(pre2)
                    dr.run_trace(trace, start=out.second_crash_index)
            dr.verify_end_state()
        # simlint: disable-next=SL402 -- classified, not swallowed
        except (IntegrityError, RecoveryError, OracleViolation) as exc:
            return _classify(exc, dr, lossy, out, "resume")
        except AssertionError as exc:
            return _classify(exc, dr, lossy, out, "resume")
    out.divergences = [d.to_json() for d in dr.divergences]
    if dr.divergences:
        out.outcome = "data_loss" if lossy else "diverged"
    return out


def run_explore_cell(scheme: str, plan: dict[str, Any], cfg: SystemConfig,
                     trace: TraceArrays) -> dict[str, Any]:
    """Executor entry point: dispatch one explore cell by its plan."""
    mode = plan.get("mode")
    if mode == "probe":
        probe = run_probe(scheme, cfg, trace, mutant=plan.get("mutant"))
        return {"probe": probe.to_json()}
    if mode == "clean":
        result = run_clean(scheme, cfg, trace, mutant=plan.get("mutant"))
        return {"case": result.to_json()}
    if mode == "case":
        return {"case": run_case(scheme, cfg, trace, plan).to_json()}
    if mode == "tamper":
        result = run_tamper_case(plan.get("attack"), scheme, trace, cfg)
        return {"case": result.to_json()}
    raise ConfigError(f"unknown explore cell mode {mode!r}")
