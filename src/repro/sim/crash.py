"""Crash orchestration and the one post-recovery check.

Before pulling the plug, :func:`capture_golden` takes the controller's
``oracle_snapshot()`` (the root, the persisted TREE region and every
dirty cached node).  After recovery, :func:`recovery_divergences`
diffs the recovered state against it — the paper's correctness claim
that "Steins just recovers the SIT nodes to the state before crashes"
(Sec. III-G).  It is the only implementation of that comparison:
:func:`check_recovered` raises on its first divergence, and the
differential oracle (:class:`repro.oracle.harness.DifferentialRun`)
records all of them.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.baselines.base import SecureMemoryController
from repro.baselines.report import RecoveryReport
from repro.common.errors import RecoveryError
from repro.sim.system import SecureNVMSystem
from repro.workloads.trace import TraceArrays


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


def capture_golden(system: SecureNVMSystem) -> dict[str, Any]:
    """Snapshot what recovery must reconstruct (the controller's
    ``oracle_snapshot()``)."""
    return system.controller.oracle_snapshot()


def counters_dominate(found: tuple, golden: tuple) -> bool:
    """True if ``found``'s counters are slot-wise >= ``golden``'s.

    Counters are monotone, so any legitimate post-recovery activity only
    advances them; a regression means recovery lost state.
    """
    if found[1:3] != golden[1:3]:
        return False
    fb, gb = found[3], golden[3]
    if fb[0] != gb[0]:
        return False
    if fb[0] == "general":
        # strict: a length mismatch (malformed block, or a general block
        # compared against wider golden arity) must fail domination, not
        # silently truncate to the shorter tuple and pass vacuously
        if len(fb[1]) != len(gb[1]):
            return False
        return all(f >= g for f, g in zip(fb[1], gb[1], strict=True))
    # split: compare via the generated counter (major-weighted)
    f_gen = fb[1] * 64 + sum(fb[2])
    g_gen = gb[1] * 64 + sum(gb[2])
    return f_gen >= g_gen


def recovery_divergences(controller: SecureMemoryController,
                         pre: dict[str, Any]) -> list[Divergence]:
    """Diff the recovered secure state against the pre-crash snapshot
    ``pre``: monotone root of unchanged arity, no lost persisted nodes,
    every dirty node restored dirty (or, once evicted, durably
    superseded).  Extra recovered nodes are not judged."""
    found: list[Divergence] = []
    root_now = controller.root.snapshot()
    if len(root_now) != len(pre["root"]):
        # root arity is fixed by the geometry: losing (or gaining)
        # slots is a recovery bug, not a shorter comparison
        found.append(Divergence(
            "root-regress", "root", f"{len(pre['root'])} slots",
            f"{len(root_now)} slots"))
    else:
        # the root may advance (SCUE's full rebuild recovers cached
        # updates the persisted root had not absorbed) but never regress
        for slot, (before, now) in enumerate(zip(pre["root"], root_now,
                                                 strict=True)):
            if now < before:
                found.append(Divergence(
                    "root-regress", f"root slot {slot}", f">= {before}",
                    str(now)))
    tree_now = controller.tree_state_fingerprint()
    for off in pre["tree"]:
        if off not in tree_now:
            found.append(Divergence(
                "tree-lost", f"offset {off}",
                "persisted node survives recovery", "missing"))
    cache = controller.metacache
    for off, snap in pre["dirty"].items():
        # a cached copy is the live one: a clean or regressed copy is
        # lost state even when NVM holds a newer line; only an evicted
        # node is judged by its persisted copy
        node = cache.peek(off)
        persisted = tree_now.get(off)
        if node is not None:
            ok = cache.is_dirty(off) and \
                counters_dominate(node.snapshot(), snap)
        else:
            ok = persisted is not None and \
                counters_dominate(persisted, snap)
        if not ok:
            found.append(Divergence(
                "node-lost" if node is None and persisted is None
                else "node-regress", f"offset {off}",
                f"dominates pre-crash {snap}",
                f"cached={None if node is None else node.snapshot()} "
                f"persisted={persisted}"))
    return found


def check_recovered(system: SecureNVMSystem,
                    golden: dict[str, Any]) -> None:
    """Raise :class:`RecoveryError` naming the first divergence of the
    recovered state from ``golden`` (a :func:`capture_golden`)."""
    found = recovery_divergences(system.controller, golden)
    if found:
        d = found[0]
        raise RecoveryError(
            f"{d.kind} at {d.where} across crash/recovery: expected "
            f"{d.expected}, got {d.got} ({len(found)} divergences)")


def crash_and_recover(system: SecureNVMSystem
                      ) -> tuple[RecoveryReport, dict[str, Any]]:
    """Crash, recover, and validate the recovered state.

    Returns the recovery report and the golden snapshot.  Raises on any
    divergence, so tests can simply call this at arbitrary points.
    """
    golden = capture_golden(system)
    system.crash()
    report = system.recover()
    check_recovered(system, golden)
    return report, golden


def run_with_crash(system: SecureNVMSystem, trace: TraceArrays,
                   crash_at: int,
                   flush_writes: bool = False) -> RecoveryReport:
    """Run ``trace`` but crash (and recover) after ``crash_at`` accesses,
    then finish the trace — the full survive-a-power-failure scenario.

    Both segments run on :meth:`SecureNVMSystem.run_stream`;
    ``crash_at=0`` crashes before the first access and ``crash_at ==
    len(trace)`` after the last, each with exactly one crash/recovery.
    """
    if not 0 <= crash_at <= len(trace):
        raise RecoveryError(
            f"crash point {crash_at} outside trace of {len(trace)}")
    system.run_stream(trace[:crash_at], flush_writes=flush_writes)
    report, _ = crash_and_recover(system)
    system.run_stream(trace[crash_at:], flush_writes=flush_writes)
    return report
