"""The crash engine: digest probes and candidate cases.

These are the workers of ``"explore"`` cells — every ``repro explore``
and ``repro oracle`` probe and case — plus :func:`minimize_case`, which
shrinks a diverged case's trace prefix.

Every routine here is a pure function of ``(scheme, plan dict, config,
trace)`` — the contract that lets :mod:`repro.exec` fan cells out over
processes and cache their payloads by content.  A plan names one of
three modes, and :func:`decode_plan` admits exactly the optional keys
:data:`PLAN_KEYS` lists for it, each of exactly its type:

* ``{"mode": "probe"}`` — count-only instrumented run
  (:func:`run_probe`): every runtime fire is recorded as ``(point,
  access index, durable-state digest)`` via the
  :class:`~repro.faults.registry.FaultPlan` ``on_fire`` hook.  The
  planner derives the entire candidate space from this one list.
* ``{"mode": "clean"}`` — a case with no crash trigger
  (:func:`run_case`): run the trace, flush gracefully, read every
  block back (the baseline every crash candidate is compared against).
* ``{"mode": "case"}`` — one crash candidate (:func:`run_case`): crash
  at a global fire index or right after the graceful flush
  (``at_shutdown``), optionally with a finite ADR energy budget (torn
  variant), a second crash inside recovery, or a second crash during
  the resumed trace (double-crash).  Validated through the
  differential oracle and the golden-state check.

Every mode accepts an optional ``"mutant"`` key naming a seeded bug
from :mod:`repro.oracle.mutants` to plant for the duration of the run —
the explorer's self-test re-finds every mutant without being told where
to crash, and the oracle runs each mutant under the plan its ``crash``
field declares.  ``clean`` and ``case`` plans also accept an
``"attack"`` (one of :data:`TAMPER_KINDS`): the durable image is
corrupted after the graceful flush (``clean``) or after the crash and
before recovery (``case``) — the slot a mutant's ``post_crash`` uses.

Outcome vocabulary, shared by every crash check: ``match`` /
``diverged`` / ``unsupported`` / ``no_crash``, plus ``detected`` /
``data_loss`` for torn (finite-budget) variants where a loud loss is
the acceptable failure mode, and ``inapplicable`` when a mutant's
post-crash corruption or an attack has no state to corrupt.  Under an
attack a detection error is ``detected``, a clean run ``neutralized``
(recovery healed the attack and every block read back correct —
legitimate for rebuild-from-data schemes like SCUE) and any divergence
``diverged``.  ``diverged`` is *always* a failure.
"""
from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any

from repro.attacks.injector import AttackInjector
from repro.common.config import SystemConfig
from repro.common.errors import (
    ConfigError,
    CrashInjected,
    IntegrityError,
    RecoveryError,
)
from repro.common.records import Fields, strict_record
from repro.explore.digest import DurableDigest
from repro.faults.registry import FaultPlan, armed
from repro.nvm.layout import Region
from repro.oracle.harness import DifferentialRun, ExploreCaseResult
from repro.oracle.model import OracleViolation
from repro.oracle.mutants import MUTANTS
from repro.workloads.trace import TraceArrays

#: one recorded probe fire: (point, access index, durable digest)
Fire = tuple[str, int, str]

#: outcomes that count as *catching* a planted mutant
CAUGHT_OUTCOMES = frozenset({"detected", "diverged", "data_loss"})

#: the attacks a plan's ``attack`` key stages: flip the ciphertext or
#: the HMAC of the most-rewritten block's data line, or a counter of its
#: tree leaf; or replay the data line or tree leaf of a block written in
#: both halves of the trace, as recorded at the trace's midpoint
TAMPER_KINDS = ("data-bits", "data-mac", "data-replay", "tree-counter",
                "tree-replay")

#: the optional keys of each plan mode and their exact types (every
#: plan also carries its ``mode``)
PLAN_KEYS: dict[str, Fields] = {
    "probe": {"mutant": str},
    "clean": {"mutant": str, "attack": str},
    "case": {"mutant": str, "attack": str, "point": str,
             "crash_after": int, "recovery_crash_after": int,
             "second_crash_after": int, "residual_words": int,
             "at_shutdown": bool},
}


def decode_plan(plan: Any) -> dict[str, Any]:
    """``plan`` itself, once it names a mode of :data:`PLAN_KEYS` and
    holds only that mode's optional keys, each of exactly its type (an
    ``attack`` also one of :data:`TAMPER_KINDS`); anything else raises
    :class:`ConfigError`."""
    mode = plan.get("mode") if type(plan) is dict else None
    if type(mode) is not str or mode not in PLAN_KEYS:
        raise ConfigError(f"explore cell plan {plan!r} names no mode of "
                          f"{sorted(PLAN_KEYS)}")
    optional = PLAN_KEYS[mode]
    strict_record(plan, {"mode": str, **{k: optional[k] for k in plan
                                         if k in optional}},
                  f"{mode} plan")
    if "attack" in plan and plan["attack"] not in TAMPER_KINDS:
        raise ConfigError(f"unknown attack {plan['attack']!r}; "
                          f"pick one of {TAMPER_KINDS}")
    return plan


@dataclass(frozen=True)
class ExploreProbe:
    """The full instrumented fire list of one run (fires are 1-based:
    fire index k is ``fires[k-1]``) over a trace of ``accesses``
    accesses — the access index its graceful-shutdown fires carry."""

    fires: tuple[Fire, ...]
    accesses: int

    def to_json(self) -> dict[str, Any]:
        return {"fires": [list(f) for f in self.fires],
                "accesses": self.accesses}

    @classmethod
    def from_json(cls, data: dict[str, Any]) -> "ExploreProbe":
        """Decode :meth:`to_json`'s encoding; anything else (a missing,
        extra or mistyped key, a fire not ``[point, index, digest]``)
        raises :class:`ConfigError`."""
        data = strict_record(data, {"fires": list, "accesses": int},
                             "probe")
        fires = data["fires"]
        for fire in fires:
            if type(fire) is not list \
                    or [type(x) for x in fire] != [str, int, str]:
                raise ConfigError(
                    f"probe fire must be [point, access index, digest], "
                    f"got {fire!r}")
        return cls(tuple((p, i, d) for p, i, d in fires), data["accesses"])


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
    return ExploreProbe(tuple(fires), len(trace))


# ------------------------------------------------------------- attacks
def _attacked_line(dr: DifferentialRun, kind: str,
                   block: int) -> tuple[Region, int]:
    """The durable line an attack of ``kind`` on ``block`` targets: the
    block's data line, or its tree leaf."""
    if kind.startswith("tree-"):
        g = dr.controller.geometry
        return Region.TREE, g.node_offset(0, g.leaf_for_block(block))
    return Region.DATA, block


def _snoop(dr: DifferentialRun, kind: str,
           trace: TraceArrays) -> tuple[Region, int, Any] | None:
    """A replay's recording at the trace midpoint: the line of the
    lowest block the trace writes in both halves (so the recording is
    stale by the end), or None when no block straddles."""
    half = len(trace) // 2
    is_write, address, _ = trace.columns
    first = {a for w, a in zip(is_write[:half], address[:half]) if w}
    both = sorted(first.intersection(
        a for w, a in zip(is_write[half:], address[half:]) if w))
    if not both:
        return None
    region, index = _attacked_line(dr, kind, both[0])
    return region, index, dr.system.device.peek(region, index)


def _apply_attack(dr: DifferentialRun, kind: str,
                  snooped: tuple[Region, int, Any] | None) -> None:
    """Corrupt the durable image with one of :data:`TAMPER_KINDS`;
    raises :class:`ConfigError` when the attack has no target."""
    device = dr.system.device
    if kind.endswith("-replay"):
        if snooped is None:
            raise ConfigError("no line recorded at the trace midpoint "
                              "to replay")
        region, index, line = snooped
        if line is None or line == device.peek(region, index):
            raise ConfigError(f"recorded {region.value}[{index}] is not "
                              f"stale; nothing to replay")
        device.poke(region, index, line)
        return
    counts = dr.model.write_counts
    block = max((a for a, n in counts.items() if n >= 2),
                key=lambda a: (counts[a], a), default=None)
    if block is None:
        raise ConfigError("trace produced no rewritten block to tamper")
    injector = AttackInjector(device)
    tamper = {"data-bits": injector.tamper_data_block,
              "data-mac": injector.tamper_data_mac,
              "tree-counter": injector.tamper_tree_counter}[kind]
    tamper(_attacked_line(dr, kind, block)[1])


# --------------------------------------------------------------- cases
def _classify(exc: Exception, dr: DifferentialRun, lossy: bool,
              excused: bool, out: ExploreCaseResult,
              when: str) -> ExploreCaseResult:
    """Map an error of a case's run onto the outcome vocabulary: a
    detection error is ``detected`` when ``excused`` (a planted bug, an
    attack, or a torn budget accounts for it)."""
    out.detail = f"{when}: {type(exc).__name__}: {exc}"
    out.divergences = [d.to_json() for d in dr.divergences]
    if isinstance(exc, RecoveryError) \
            and not dr.controller.supports_recovery:
        out.outcome = "unsupported"
    elif isinstance(exc, (IntegrityError, RecoveryError, OracleViolation)):
        out.outcome = "detected" if excused else "diverged"
    else:  # AssertionError: golden-state or read-back disagreement
        out.outcome = "data_loss" if lossy else "diverged"
    return out


def run_case(scheme: str, cfg: SystemConfig, trace: TraceArrays,
             plan: dict[str, Any]) -> ExploreCaseResult:
    """One ``clean`` or ``case`` plan end to end.

    Phases: run to the planned fire (a ``clean`` plan: through the
    graceful flush) -> crash (optionally torn) -> mutant/attack slot ->
    recover (optionally crashing mid-recovery, finishing on the second
    pass) -> golden check -> resume the trace (optionally crashing
    *again* at a fire of the resumed segment, recovering once more) ->
    full read-back against the reference model.  A ``clean`` plan skips
    the crash, recovery and resume.
    """
    if decode_plan(plan)["mode"] == "probe":
        raise ConfigError("a probe plan runs on run_probe, not run_case")
    clean = plan["mode"] == "clean"
    mutant_name = plan.get("mutant")
    mutant = MUTANTS.get(mutant_name) if mutant_name else None
    attack = plan.get("attack")
    residual = plan.get("residual_words")
    lossy = residual is not None
    # before a crash, a detection error is the catch of a planted bug or
    # an attack; a spurious detection on an untampered run is a bug
    excused = mutant is not None or attack is not None
    # a replay snoops its line at the trace midpoint
    snoop_at = len(trace) // 2 if attack and attack.endswith("-replay") \
        else -1
    snooped = None
    # the per-write counter echo reads the *persisted* line, which a
    # lossy crash legitimately rolls back; only healthy runs check it
    at_shutdown = plan.get("at_shutdown", False)
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
                    if i == snoop_at:
                        snooped = _snoop(dr, attack, trace)
                    dr.step(trace, i)
                    i += 1
                # the graceful flush; or the shutdown-boundary candidate
                # (power lost right after it — the only reachable window
                # for state the final flush itself creates, e.g. the
                # last root advance); or a trigger past the trace
                # landing inside it
                dr.controller.flush_all()
            except CrashInjected as exc:
                out.crash_point = exc.point
            # classified, never silent
            # simlint: disable-next=SL402 -- classified, not swallowed
            except (IntegrityError, RecoveryError, OracleViolation,
                    AssertionError) as exc:
                if not clean:
                    out.crash_index = i
                out.detail = (f"{'run' if clean else 'pre-crash'}: "
                              f"{type(exc).__name__}: {exc}")
                out.outcome = "detected" if excused else "diverged"
                out.divergences = [d.to_json() for d in dr.divergences]
                return out
            if not clean:
                out.crash_index = i
                if at_shutdown and not plan1.crash_delivered:
                    out.crash_point = "shutdown"
                elif not plan1.crash_delivered:
                    out.outcome = "no_crash"
                    return out
                pre = dr.crash()
                # a healthy crash must lose nothing: after it, only an
                # attack or a torn budget accounts for a detection
                excused = lossy or attack is not None
            try:
                if not clean and mutant is not None \
                        and mutant.post_crash is not None:
                    mutant.post_crash(dr)
                if attack is not None:
                    _apply_attack(dr, attack, snooped)
            except ConfigError as exc:
                # nothing to corrupt here (e.g. the root never advanced
                # before an early crash, or no block was rewritten)
                out.outcome = "inapplicable"
                out.detail = str(exc)
                return out
            if not clean:
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
                except (IntegrityError, RecoveryError,
                        AssertionError) as exc:
                    return _classify(exc, dr, lossy, excused, out,
                                     "recovery")
                out.recovery_fires = plan1.recovery_fires
        # the resumed segment runs under its own plan: count-only by
        # default, or the double-crash trigger when the planner asks
        plan2 = FaultPlan(crash_after=plan.get("second_crash_after"))
        try:
            with armed(plan2):
                j = i
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
        except (IntegrityError, RecoveryError, OracleViolation,
                AssertionError) as exc:
            return _classify(exc, dr, lossy, excused, out,
                             "read-back" if clean else "resume")
    out.divergences = [d.to_json() for d in dr.divergences]
    if dr.divergences:
        out.outcome = "data_loss" if lossy else "diverged"
    elif attack is not None:
        out.outcome = "neutralized"
    return out


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
    debug a different bug than the original case hit.
    """
    def diverges(n: int) -> bool:
        result = run_case(scheme, cfg, trace[:n], plan)
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


def run_explore_cell(scheme: str, plan: dict[str, Any], cfg: SystemConfig,
                     trace: TraceArrays) -> dict[str, Any]:
    """Executor entry point: a probe plan runs on :func:`run_probe`,
    every other plan on :func:`run_case`."""
    if decode_plan(plan)["mode"] == "probe":
        probe = run_probe(scheme, cfg, trace, mutant=plan.get("mutant"))
        return {"probe": probe.to_json()}
    return {"case": run_case(scheme, cfg, trace, plan).to_json()}
