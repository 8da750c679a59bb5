"""The differential conformance harness.

:class:`DifferentialRun` drives one *real* scheme and the pure
:class:`~repro.oracle.model.ReferenceModel` in lockstep at the secure
controller boundary — the API every scheme implements identically — and
diffs three things:

* every read's returned plaintext against the model,
* the end state (full read-back of every written block through the
  secure path) against the model,
* the post-recovery secure state against the pre-crash
  ``oracle_snapshot()``, through the one post-recovery check
  :func:`repro.sim.crash.recovery_divergences` (root never regresses,
  persisted nodes never vanish, every pre-crash dirty node is back in
  the metadata cache dirty and dominating its snapshot, or — once
  evicted — durably superseded in NVM).

The model is the system's own ``model``, the one record of what the
controller accepted.  Unlike the system's fill check (which shares the
simulator's view of the cache hierarchy), the harness talks to the
controller directly and trusts nothing but the model, so a
misconception shared by a scheme and the simulator stack still diverges
here.

Clean, crash and mutant cases run on the crash engine in
:mod:`repro.explore.runner` (``run_clean``/``run_case``), which drives a
:class:`DifferentialRun`.  This module keeps the runner for the attack
claim class, which the engine dispatches as ``{"mode": "tamper"}``
cells: :func:`run_tamper_case` stages a :mod:`repro.attacks`
tamper/replay between crash and recovery, which must surface as a
detection error (or be provably neutralized), never as silently wrong
data.

Tamper outcomes: ``detected`` (a detection error surfaced — the
expected result of tampering), ``neutralized`` (a tamper was
overwritten by recovery and all data read back correct — SCUE's
whole-tree rebuild does this), ``diverged`` (any silent disagreement —
always a bug).
"""
from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any

from repro.attacks.injector import AttackInjector
from repro.common.config import SystemConfig
from repro.common.errors import ConfigError, IntegrityError, RecoveryError
from repro.common.records import Fields, strict_record
from repro.common.rng import mix64
from repro.nvm.layout import Region
from repro.oracle.model import OracleViolation
from repro.sim.crash import Divergence, recovery_divergences
from repro.sim.system import SecureNVMSystem
from repro.workloads.trace import TraceArrays

#: attack kinds run_tamper_case knows how to stage
TAMPER_KINDS = ("data-bits", "data-mac", "data-replay", "tree-counter",
                "tree-replay")

#: the exact encodings :meth:`ExploreCaseResult.from_json` accepts
_CASE_FIELDS: Fields = {
    "outcome": str, "crash_point": str, "crash_index": int,
    "recovery_crashed": bool, "second_crash_point": str,
    "second_crash_index": int, "recovery_fires": int,
    "resumed_fires": int, "divergences": list, "detail": str,
}
_DIVERGENCE_FIELDS: Fields = dict.fromkeys(
    ("kind", "where", "expected", "got"), str)


@dataclass
class ExploreCaseResult:
    """What one case produced: every crash-engine case and every
    oracle cell (clean, crash, tamper, mutant) reports one of these."""

    outcome: str
    crash_point: str = ""
    crash_index: int = -1          #: access index of the first crash
    recovery_crashed: bool = False
    second_crash_point: str = ""
    second_crash_index: int = -1
    #: ``recovery.step`` fires of the first recovery (uninterrupted
    #: cells report the full span the planner doses crashes over)
    recovery_fires: int = 0
    #: runtime fires of the resumed trace segment (the double-crash
    #: planner's span)
    resumed_fires: int = 0
    divergences: list[dict[str, str]] = field(default_factory=list)
    detail: str = ""

    def to_json(self) -> dict[str, Any]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_json(cls, data: dict[str, Any]) -> "ExploreCaseResult":
        """Decode :meth:`to_json`'s encoding; anything else (a missing,
        extra or mistyped key) raises
        :class:`~repro.common.errors.ConfigError`."""
        strict_record(data, _CASE_FIELDS, "case result")
        for divergence in data["divergences"]:
            strict_record(divergence, _DIVERGENCE_FIELDS, "divergence")
        return cls(**data)


class DifferentialRun:
    """One scheme and the reference model, advancing in lockstep."""

    def __init__(self, scheme: str, cfg: SystemConfig,
                 check_counters: bool = True) -> None:
        self.system = SecureNVMSystem(scheme, cfg)
        #: the system's own model: the harness bypasses the hierarchy,
        #: so every write the model sees is one of ours
        self.model = self.system.model
        self.divergences: list[Divergence] = []
        self._check_counters = check_counters

    @property
    def controller(self):
        return self.system.controller

    # ------------------------------------------------------------ steps
    def write(self, addr: int) -> None:
        """One store at the controller boundary, mirrored into the model
        only once the controller *accepts* it (returns normally)."""
        value = mix64(addr, self.model.write_counts.get(addr, 0) + 1)
        self.controller.write_data(addr, value)
        self.model.write(addr, value)
        if self._check_counters:
            line = self.system.device.peek(Region.DATA, addr)
            if line is None:
                self.divergences.append(Divergence(
                    "persist", f"block {addr}",
                    "data line present after accepted write", "missing"))
            else:
                try:
                    self.model.observe_counter(addr, line[3])
                except OracleViolation as exc:
                    self.divergences.append(Divergence(
                        "counter", f"block {addr}",
                        "strictly increasing encryption counter",
                        str(exc)))

    def read(self, addr: int) -> None:
        """One load at the controller boundary, diffed against the model."""
        got = self.controller.read_data(addr)
        expected = self.model.read(addr)
        if got != expected:
            self.divergences.append(Divergence(
                "read", f"block {addr}", str(expected), str(got)))

    def step(self, trace: TraceArrays, i: int) -> None:
        # the python columns cached on the frozen trace: no numpy scalar
        # unboxing per access (the lists are only ever read)
        is_write, address, gap_cycles = trace.columns
        self.system.advance(gap_cycles[i])
        if is_write[i]:
            self.write(address[i])
        else:
            self.read(address[i])

    def run_trace(self, trace: TraceArrays, start: int = 0,
                  end: int | None = None) -> None:
        for i in range(start, len(trace) if end is None else end):
            self.step(trace, i)

    # ------------------------------------------------------------ crash
    def crash(self) -> dict[str, Any]:
        """Power failure (the model's contents survive it unchanged);
        returns the pre-crash snapshot the post-recovery check needs."""
        pre = self.controller.oracle_snapshot()
        self.system.crash()
        return pre

    def check_recovery(self, pre: dict[str, Any]) -> None:
        """Record every divergence of the recovered secure state from
        the pre-crash snapshot (:func:`repro.sim.crash.recovery_divergences`)."""
        self.divergences.extend(recovery_divergences(self.controller, pre))

    # -------------------------------------------------------- end state
    def verify_end_state(self) -> None:
        """Read every model block back through the secure path and
        diff it against the model."""
        for addr in sorted(self.model.blocks):
            value = self.controller.read_data(addr)
            if value != self.model.read(addr):
                self.divergences.append(Divergence(
                    "readback", f"block {addr}",
                    str(self.model.read(addr)), str(value)))


# ---------------------------------------------------------- tamper runs
def _replay_target(dr: DifferentialRun) -> int:
    """The most-rewritten block: its stale recording is guaranteed to
    disagree with the current contents."""
    counts = dr.model.write_counts
    rewritten = sorted(a for a, n in counts.items() if n >= 2)
    if not rewritten:
        raise RecoveryError("trace produced no rewritten block to replay")
    return max(rewritten, key=lambda a: (counts[a], a))


def _straddling_target(trace: TraceArrays, half: int) -> int:
    """A block written in *both* halves of the trace: recording it at
    the halfway flush guarantees the recording is stale by the end."""
    first = {int(a) for w, a in zip(trace.is_write[:half],
                                    trace.address[:half]) if w}
    second = {int(a) for w, a in zip(trace.is_write[half:],
                                     trace.address[half:]) if w}
    both = sorted(first & second)
    if not both:
        raise RecoveryError(
            "trace has no block written in both halves to replay")
    return both[0]


def run_tamper_case(kind: str, scheme: str, trace: TraceArrays,
                    cfg: SystemConfig) -> ExploreCaseResult:
    """Stage one attack between crash and recovery (or against stored
    data) and require a loud outcome.

    ``detected``    — a detection error surfaced (the expected result),
    ``neutralized`` — recovery healed the attack and every block read
                      back correct (legitimate for rebuild-from-data
                      schemes like SCUE),
    ``diverged``    — wrong data returned silently, or the attack left
                      no observable trace where one was required.
    """
    if kind not in TAMPER_KINDS:
        raise ConfigError(f"unknown tamper kind {kind!r}; "
                          f"pick one of {TAMPER_KINDS}")
    dr = DifferentialRun(scheme, cfg)
    injector = AttackInjector(dr.system.device)
    half = len(trace) // 2
    dr.run_trace(trace, end=half)

    recorded: int | None = None
    tree_offset: int | None = None
    if kind == "data-replay":
        # record a line now; the second half rewrites it
        dr.controller.flush_all()
        recorded = _straddling_target(trace, half)
        injector.record(Region.DATA, recorded)
    if kind == "tree-replay":
        dr.controller.flush_all()
        # record the persisted leaf covering the replay target; the
        # second half advances it again
        recorded = _straddling_target(trace, half)
        g = dr.controller.geometry
        tree_offset = g.node_offset(0, g.leaf_for_block(recorded))
        injector.record(Region.TREE, tree_offset)

    dr.run_trace(trace, start=half)
    dr.controller.flush_all()

    try:
        if kind == "data-bits":
            addr = _replay_target(dr)
            injector.tamper_data_block(addr)
        elif kind == "data-mac":
            addr = _replay_target(dr)
            injector.tamper_data_mac(addr)
        elif kind == "data-replay":
            assert recorded is not None
            if dr.model.write_counts[recorded] < 2:
                raise RecoveryError(
                    "replay target was not rewritten after recording")
            injector.replay(Region.DATA, recorded)
        elif kind == "tree-counter":
            g = dr.controller.geometry
            addr = _replay_target(dr)
            tree_offset = g.node_offset(0, g.leaf_for_block(addr))
            injector.tamper_tree_counter(tree_offset)
        elif kind == "tree-replay":
            assert tree_offset is not None
            injector.replay(Region.TREE, tree_offset)
        if kind in ("tree-counter", "tree-replay"):
            # tree lines are only re-fetched once the cached copies are
            # gone: crash and recover (recovery-capable schemes only)
            dr.system.crash()
            dr.system.recover()
        dr.verify_end_state()
    # the detection error is the *expected* terminal outcome here
    # simlint: disable-next=SL402 -- classified, not swallowed
    except (IntegrityError, RecoveryError) as exc:
        outcome, detail = "detected", str(exc)
    else:
        # nothing detected, nothing wrong: only legitimate when recovery
        # rebuilds the attacked structure from verified data
        outcome = "diverged" if dr.divergences else "neutralized"
        detail = ""
    return ExploreCaseResult(
        outcome=outcome, crash_point=kind, detail=detail,
        divergences=[d.to_json() for d in dr.divergences])
