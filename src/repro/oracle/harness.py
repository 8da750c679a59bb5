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

Every oracle case — clean, crash, tamper and mutant — runs on the one
case runner of the crash engine, :func:`repro.explore.runner.run_case`,
which drives a :class:`DifferentialRun` and reports an
:class:`ExploreCaseResult`.
"""
from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any

from repro.common.config import SystemConfig
from repro.common.records import Fields, strict_record
from repro.common.rng import mix64
from repro.nvm.layout import Region
from repro.oracle.model import OracleViolation
from repro.sim.crash import Divergence, recovery_divergences
from repro.sim.system import SecureNVMSystem
from repro.workloads.trace import TraceArrays

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
