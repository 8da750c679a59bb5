"""The differential conformance harness.

:class:`DifferentialRun` drives one *real* scheme and the pure
:class:`~repro.oracle.model.ReferenceModel` in lockstep at the secure
controller boundary — the API every scheme implements identically — and
diffs three things:

* every read's returned plaintext against the model,
* the end-state digest (full read-back of every written block through
  the secure path) against the model's digest,
* the post-recovery secure state against the pre-crash
  ``oracle_snapshot()`` (root never regresses, persisted nodes never
  vanish, every pre-crash dirty node is back in the metadata cache
  dirty and dominating its snapshot, or — once evicted — durably
  superseded in NVM).

Unlike the inline check in :class:`repro.sim.system.SecureNVMSystem`
(which shares the simulator's view of the cache hierarchy), the harness
talks to the controller directly and trusts nothing but the model, so a
misconception shared by a scheme and the simulator stack still diverges
here.

Clean and crash cases run on the crash engine in
:mod:`repro.explore.runner` (``run_clean``/``run_case``), which drives a
:class:`DifferentialRun`.  This module keeps the runner for the attack
claim class: :func:`run_tamper_case` stages a :mod:`repro.attacks`
tamper/replay between crash and recovery, which must surface as a
detection error (or be provably neutralized), never as silently wrong
data.

Outcomes: ``detected`` (a detection error surfaced — the expected
result of tampering), ``neutralized`` (a tamper was overwritten by
recovery and all data read back correct — SCUE's whole-tree rebuild
does this), ``diverged`` (any silent disagreement — always a bug);
mutant runs (:mod:`repro.oracle.mutants`) add ``match`` for an escaped
bug.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any

from repro.attacks.injector import AttackInjector
from repro.common.config import SystemConfig
from repro.common.errors import IntegrityError, RecoveryError
from repro.common.rng import mix64
from repro.nvm.layout import Region
from repro.oracle.model import OracleViolation, ReferenceModel
from repro.sim.crash import counters_dominate
from repro.sim.system import SecureNVMSystem
from repro.workloads.trace import TraceArrays

#: attack kinds run_tamper_case knows how to stage
TAMPER_KINDS = ("data-bits", "data-mac", "data-replay", "tree-counter",
                "tree-replay")


@dataclass(frozen=True)
class Divergence:
    """One observed disagreement between a scheme and the model."""

    kind: str       #: read / readback / counter / root-regress / ...
    where: str      #: block address, tree offset, or root slot
    expected: str
    got: str

    def to_json(self) -> dict[str, str]:
        return {"kind": self.kind, "where": self.where,
                "expected": self.expected, "got": self.got}

    @classmethod
    def from_json(cls, data: dict[str, str]) -> "Divergence":
        return cls(**data)


@dataclass
class OracleCaseResult:
    """What one differential case produced."""

    scheme: str
    workload: str
    outcome: str
    crash_point: str = ""
    crash_index: int = -1
    recovery_crashed: bool = False
    reads_checked: int = 0
    blocks_checked: int = 0
    digest: str = ""
    divergences: list[Divergence] = field(default_factory=list)
    detail: str = ""

    @property
    def silent_divergence(self) -> bool:
        """The failure class the oracle exists to catch."""
        return self.outcome == "diverged"

    def to_json(self) -> dict[str, Any]:
        return {
            "scheme": self.scheme, "workload": self.workload,
            "outcome": self.outcome, "crash_point": self.crash_point,
            "crash_index": self.crash_index,
            "recovery_crashed": self.recovery_crashed,
            "reads_checked": self.reads_checked,
            "blocks_checked": self.blocks_checked,
            "digest": self.digest,
            "divergences": [d.to_json() for d in self.divergences],
            "detail": self.detail,
        }

    @classmethod
    def from_json(cls, data: dict[str, Any]) -> "OracleCaseResult":
        data = dict(data)
        divs = [Divergence.from_json(d) for d in data.pop("divergences")]
        return cls(divergences=divs, **data)


class DifferentialRun:
    """One scheme and the reference model, advancing in lockstep."""

    def __init__(self, scheme: str, cfg: SystemConfig,
                 check_counters: bool = True) -> None:
        # the built-in reference check is off: the oracle is the checker
        self.system = SecureNVMSystem(scheme, cfg, check=False)
        self.model = ReferenceModel()
        self.divergences: list[Divergence] = []
        self.reads = 0
        self.blocks_checked = 0
        self._versions: dict[int, int] = {}
        self._check_counters = check_counters

    @property
    def controller(self):
        return self.system.controller

    # ------------------------------------------------------------ steps
    def write(self, addr: int) -> None:
        """One store at the controller boundary, mirrored into the model
        only once the controller *accepts* it (returns normally)."""
        version = self._versions.get(addr, 0) + 1
        self._versions[addr] = version
        value = mix64(addr, version)
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
        self.reads += 1

    def step(self, trace: TraceArrays, i: int) -> None:
        self.system.advance(int(trace.gap_cycles[i]))
        if trace.is_write[i]:
            self.write(int(trace.address[i]))
        else:
            self.read(int(trace.address[i]))

    def run_trace(self, trace: TraceArrays, start: int = 0,
                  end: int | None = None) -> None:
        for i in range(start, len(trace) if end is None else end):
            self.step(trace, i)

    # ------------------------------------------------------------ crash
    def crash(self) -> dict[str, Any]:
        """Power failure on both sides; returns the pre-crash snapshot
        the post-recovery check needs."""
        pre = self.controller.oracle_snapshot()
        self.system.crash()
        self.model.crash()
        return pre

    def check_recovery(self, pre: dict[str, Any]) -> None:
        """Diff the recovered secure state against the pre-crash
        snapshot: monotone root, no lost persisted nodes, every dirty
        node restored dirty (or, once evicted, durably superseded)."""
        c = self.controller
        for slot, (before, now) in enumerate(zip(pre["root"],
                                                 c.root.snapshot())):
            if now < before:
                self.divergences.append(Divergence(
                    "root-regress", f"root slot {slot}", f">= {before}",
                    str(now)))
        tree_now = c.tree_state_fingerprint()
        for off in pre["tree"]:
            if off not in tree_now:
                self.divergences.append(Divergence(
                    "tree-lost", f"offset {off}",
                    "persisted node survives recovery", "missing"))
        for off, snap in pre["dirty"].items():
            # a cached copy is the live one: a clean or regressed copy
            # is lost state even when NVM holds a newer line; only an
            # evicted node is judged by its persisted copy
            node = c.metacache.peek(off)
            persisted = tree_now.get(off)
            if node is not None:
                ok = c.metacache.is_dirty(off) and \
                    counters_dominate(node.snapshot(), snap)
            else:
                ok = persisted is not None and \
                    counters_dominate(persisted, snap)
            if not ok:
                self.divergences.append(Divergence(
                    "node-lost" if node is None and persisted is None
                    else "node-regress", f"offset {off}",
                    f"dominates pre-crash {snap}",
                    f"cached={None if node is None else node.snapshot()} "
                    f"persisted={persisted}"))

    # -------------------------------------------------------- end state
    def verify_end_state(self) -> str:
        """Read every model block back through the secure path; returns
        the system-side digest (equal to the model's iff no divergence)."""
        got: dict[int, int] = {}
        for addr in sorted(self.model.blocks):
            value = self.controller.read_data(addr)
            got[addr] = value
            if value != self.model.read(addr):
                self.divergences.append(Divergence(
                    "readback", f"block {addr}",
                    str(self.model.read(addr)), str(value)))
            self.blocks_checked += 1
        blob = json.dumps([[a, v] for a, v in sorted(got.items())],
                          separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def result(self, outcome: str, **kw: Any) -> OracleCaseResult:
        return OracleCaseResult(
            scheme=self.system.scheme, workload=kw.pop("workload", ""),
            outcome=outcome, reads_checked=self.reads,
            blocks_checked=self.blocks_checked,
            divergences=list(self.divergences), **kw)


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


def run_tamper_case(kind: str, scheme: str, workload: str,
                    trace: TraceArrays, cfg: SystemConfig,
                    ) -> OracleCaseResult:
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
        raise ValueError(f"unknown tamper kind {kind!r}; "
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
            dr.model.crash()
            dr.system.recover()
        dr.verify_end_state()
    # the detection error is the *expected* terminal outcome here
    # simlint: disable-next=SL402 -- classified, not swallowed
    except IntegrityError as exc:
        return dr.result("detected", workload=workload,
                         crash_point=kind, detail=str(exc))
    # simlint: disable-next=SL402 -- classified, not swallowed
    except RecoveryError as exc:
        return dr.result("detected", workload=workload,
                         crash_point=kind, detail=str(exc))
    if dr.divergences:
        return dr.result("diverged", workload=workload, crash_point=kind)
    # nothing detected, nothing wrong: only legitimate when recovery
    # rebuilds the attacked structure from verified data
    return dr.result("neutralized", workload=workload, crash_point=kind)
