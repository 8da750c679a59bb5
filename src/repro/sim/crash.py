"""Crash orchestration and golden-state validation.

The crash manager snapshots the *architectural* metadata state right
before pulling the plug (every dirty cached node's content, the root,
the LIncs) and, after recovery, asserts the recovered state is
bit-identical — the paper's correctness claim that "Steins just recovers
the SIT nodes to the state before crashes" (Sec. III-G).
"""
from __future__ import annotations

from dataclasses import dataclass, field

from repro.baselines.report import RecoveryReport
from repro.common.errors import RecoveryError
from repro.sim.system import SecureNVMSystem
from repro.workloads.trace import TraceArrays


@dataclass
class GoldenState:
    """Pre-crash architectural metadata state."""

    dirty_nodes: dict[int, tuple] = field(default_factory=dict)
    root_counters: tuple[int, ...] = ()


def capture_golden(system: SecureNVMSystem) -> GoldenState:
    """Snapshot what recovery must reconstruct."""
    golden = GoldenState()
    for offset, node in system.controller.metacache.dirty_entries():
        golden.dirty_nodes[offset] = node.snapshot()
    golden.root_counters = system.controller.root.snapshot()
    return golden


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


def check_recovered(system: SecureNVMSystem, golden: GoldenState) -> None:
    """Assert the post-recovery state matches the golden snapshot.

    Every pre-crash dirty node must be back in the metadata cache,
    marked dirty, with identical counters (the HMAC field is transient
    for cached nodes and excluded).  Extra recovered nodes (from stale
    records) must equal their persisted NVM copies — i.e. be harmless.
    """
    from repro.nvm.layout import Region

    c = system.controller

    def content(snap: tuple) -> tuple:
        return (snap[1], snap[2], snap[3])  # level, index, counter block

    for offset, snap in golden.dirty_nodes.items():
        node = c.metacache.peek(offset)
        if node is not None:
            if not c.metacache.is_dirty(offset):
                raise RecoveryError(
                    f"recovered node at offset {offset} not marked dirty")
            if not counters_dominate(node.snapshot(), snap):
                raise RecoveryError(
                    f"recovered node at offset {offset} regressed below "
                    f"the pre-crash state: {node.snapshot()} < {snap}")
        else:
            # Reinstall pressure may have evicted the recovered node:
            # its flush advances ancestors (monotone counters), so the
            # persisted copy must dominate the golden one slot-wise.
            persisted = system.device.peek(Region.TREE, offset)
            if persisted is None:
                raise RecoveryError(
                    f"recovery lost dirty node at offset {offset}")
            if not counters_dominate(persisted, snap):
                raise RecoveryError(
                    f"persisted node at offset {offset} regressed below "
                    f"the pre-crash state: {persisted} < {snap}")
    # The root may advance (SCUE's full rebuild recovers cached updates
    # the persisted root had not absorbed yet) but must never regress.
    # Root arity is fixed by the geometry, so a length mismatch is a
    # recovery bug, not a comparison to be truncated away.
    for slot, (now, before) in enumerate(zip(c.root.snapshot(),
                                             golden.root_counters,
                                             strict=True)):
        if now < before:
            raise RecoveryError(
                f"root slot {slot} regressed across crash/recovery "
                f"({before} -> {now})")


def crash_and_recover(system: SecureNVMSystem
                      ) -> tuple[RecoveryReport, GoldenState]:
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

    ``crash_at=0`` crashes before the first access and ``crash_at ==
    len(trace)`` after the last; both run exactly one crash/recovery,
    like every interior point.
    """
    if not 0 <= crash_at <= len(trace):
        raise RecoveryError(
            f"crash point {crash_at} outside trace of {len(trace)}")
    report: RecoveryReport | None = None
    for i in range(len(trace) + 1):
        if i == crash_at:
            report, _ = crash_and_recover(system)
        if i == len(trace):
            break
        system.advance(int(trace.gap_cycles[i]))
        if trace.is_write[i]:
            system.store(int(trace.address[i]), flush=flush_writes)
        else:
            system.load(int(trace.address[i]))
    assert report is not None, "crash point validated above"
    return report
