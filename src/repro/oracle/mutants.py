"""Seeded controller mutants: the oracle's own self-test.

A differential oracle that has never caught anything proves nothing, so
each mutant here plants one representative bug from a claimed detection
class into a *live* controller instance and the self-test asserts the
harness flags it (any outcome other than ``match``).  The classes map
one-to-one onto the oracle's checks:

=====================  =============================================
mutant                 oracle check it must trip
=====================  =============================================
counter-reuse          counter-echo strict monotonicity (pad reuse)
stale-read             lockstep read diff against the model
drop-node-persist      refetch verification / post-crash durability
skip-parent-update     lazy-update propagation (Steins Fig. 7 path)
skip-writethrough      SecPM leaf-sum audit against persist_root
skip-register-persist  Phoenix subtree rebuild vs its register
root-rollback          root freshness across recovery
=====================  =============================================

Mutants patch bound methods on the one controller instance inside a
``with`` block — the class, and therefore every other test, is never
touched.  ``schemes`` lists where the bug is deterministically
observable under the default oracle workload: generated-counter schemes
*heal* dropped tree persists by rebuilding from data (that resilience
is their fast-recovery claim, not an oracle miss), so each mutant is
asserted only where its class is a real bug.
"""
from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator

from repro.common.config import SystemConfig
from repro.common.errors import ConfigError, IntegrityError, RecoveryError
from repro.crypto import cme
from repro.nvm.layout import Region
from repro.oracle.harness import DifferentialRun, ExploreCaseResult
from repro.oracle.model import OracleViolation
from repro.workloads.trace import TraceArrays


@dataclass(frozen=True)
class Mutant:
    """One plantable bug and where the self-test asserts it is caught."""

    name: str
    description: str
    #: schemes on which the default self-test workload deterministically
    #: surfaces the bug (others may heal it by design)
    schemes: tuple[str, ...]
    #: the oracle check expected to fire (documentation for reports)
    catches: str
    #: plant the bug, yield, unplant
    patch: Callable[[DifferentialRun], "contextmanager"]
    #: run the crash/recover leg after the trace (root-rollback corrupts
    #: state *between* crash and recovery)
    needs_crash: bool = False
    #: graceful flush before the crash; False crashes with the caches
    #: dirty (write-through bugs heal under a flush, so their self-test
    #: must skip it)
    flush_before_crash: bool = True
    #: mutate state after the crash, before recover() (optional)
    post_crash: Callable[[DifferentialRun], None] | None = None


def _patch_method(obj: object, name: str, wrapper: Callable) -> Callable:
    """Shadow a bound method on one instance; returns the restorer."""
    setattr(obj, name, wrapper)

    def restore() -> None:
        delattr(obj, name)

    return restore


@contextmanager
def _counter_reuse(dr: DifferentialRun) -> Iterator[None]:
    """Re-encrypt every rewrite under the *previous* counter — the OTP
    pad-reuse bug counter-mode encryption exists to prevent."""
    c = dr.controller
    orig = c.write_data

    def bad_write(addr: int, plaintext: int) -> None:
        orig(addr, plaintext)
        line = c.device.peek(Region.DATA, addr)
        if line is None or line[3] < 2:
            return
        stale = line[3] - 1
        cipher = cme.encrypt_block(c.engine, addr, stale, plaintext)
        hmac = cme.data_hmac(c.engine, addr, stale, plaintext)
        c.device.poke(Region.DATA, addr, (line[0], cipher, hmac, stale))

    restore = _patch_method(c, "write_data", bad_write)
    try:
        yield
    finally:
        restore()


@contextmanager
def _stale_read(dr: DifferentialRun) -> Iterator[None]:
    """Serve every re-read from a (buggy) result cache that never
    invalidates — reads after a rewrite return the old plaintext."""
    c = dr.controller
    orig = c.read_data
    first_seen: dict[int, int] = {}

    def bad_read(addr: int) -> int:
        value = orig(addr)
        return first_seen.setdefault(addr, value)

    restore = _patch_method(c, "read_data", bad_read)
    try:
        yield
    finally:
        restore()


@contextmanager
def _drop_node_persist(dr: DifferentialRun) -> Iterator[None]:
    """Silently drop the first tree-node persist — an accepted flush
    that never reached NVM."""
    c = dr.controller
    # the mutant deliberately shadows the private persist hook on this
    # one instance to plant the bug
    # simlint: disable-next=SL002 -- mutant plants the bug via this hook
    orig = c._persist_node
    dropped = {"done": False}

    def bad_persist(node) -> None:
        if not dropped["done"]:
            dropped["done"] = True
            return
        orig(node)

    restore = _patch_method(c, "_persist_node", bad_persist)
    try:
        yield
    finally:
        restore()


@contextmanager
def _skip_parent_update(dr: DifferentialRun) -> Iterator[None]:
    """Drop the first generated-counter propagation (Steins Fig. 7): the
    flushed child persists, its parent never learns the new counter."""
    c = dr.controller
    if not hasattr(c, "_apply_parent_update"):
        raise ConfigError(
            f"scheme {c.name!r} has no parent-update stage to skip")
    # the mutant deliberately shadows the private propagation hook on
    # this one instance to plant the bug
    # simlint: disable-next=SL002 -- mutant plants the bug via this hook
    orig = c._apply_parent_update
    skipped = {"done": False}

    def bad_apply(level, index, generated, allow_buffer) -> None:
        if not skipped["done"] and level == 0:
            skipped["done"] = True
            return
        orig(level, index, generated, allow_buffer)

    restore = _patch_method(c, "_apply_parent_update", bad_apply)
    try:
        yield
    finally:
        restore()


@contextmanager
def _skip_writethrough(dr: DifferentialRun) -> Iterator[None]:
    """Drop every counter write-through persist while still bumping the
    persist register — the leaf-durability bug SecPM's recovery audit
    (leaf sum vs ``persist_root``) exists to catch."""
    c = dr.controller
    if not hasattr(c, "persist_root"):
        raise ConfigError(
            f"scheme {c.name!r} has no counter write-through to skip")
    # the mutant deliberately shadows the private hooks on this one
    # instance to plant the bug
    # simlint: disable-next=SL002 -- mutant plants the bug via this hook
    orig_hook = c._on_leaf_incremented
    # simlint: disable-next=SL002 -- mutant plants the bug via this hook
    orig_persist = c._persist_node
    inside = {"hook": False}

    def bad_hook(offset, node, result) -> None:
        inside["hook"] = True
        try:
            orig_hook(offset, node, result)
        finally:
            inside["hook"] = False

    def gated_persist(node) -> None:
        if inside["hook"]:
            return  # the write-through never reaches NVM
        orig_persist(node)

    restore_hook = _patch_method(c, "_on_leaf_incremented", bad_hook)
    restore_persist = _patch_method(c, "_persist_node", gated_persist)
    try:
        yield
    finally:
        restore_persist()
        restore_hook()


@contextmanager
def _skip_register_persist(dr: DifferentialRun) -> Iterator[None]:
    """Drop the first per-subtree register bump: the tree advances past
    the register, so Phoenix's stale-subtree rebuild must find more
    counter mass than the register accounts for."""
    c = dr.controller
    if not hasattr(c, "subtree_counts"):
        raise ConfigError(
            f"scheme {c.name!r} has no per-subtree register to skip")
    # simlint: disable-next=SL002 -- mutant plants the bug via this hook
    orig = c._on_leaf_incremented
    skipped = {"done": False}

    def bad_hook(offset, node, result) -> None:
        if not skipped["done"]:
            skipped["done"] = True
            return
        orig(offset, node, result)

    restore = _patch_method(c, "_on_leaf_incremented", bad_hook)
    try:
        yield
    finally:
        restore()


@contextmanager
def _no_patch(dr: DifferentialRun) -> Iterator[None]:
    yield


def _rollback_root(dr: DifferentialRun) -> None:
    """Lose the last root/register increment across the power cycle — a
    broken non-volatile register."""
    c = dr.controller
    if hasattr(c, "recovery_root"):
        c.recovery_root.value -= 1
        return
    if hasattr(c, "persist_root"):
        c.persist_root.value -= 1
        return
    if hasattr(c, "subtree_counts"):
        counts = c.subtree_counts.value
        slot = max(range(len(counts)), key=lambda s: counts[s])
        if counts[slot] == 0:
            raise ConfigError("trace never advanced a subtree register; "
                              "nothing to roll back")
        counts[slot] -= 1
        return
    snap = c.root.snapshot()
    slot = max(range(len(snap)), key=lambda s: snap[s])
    if snap[slot] == 0:
        raise ConfigError("trace never advanced the root; nothing to "
                          "roll back")
    c.root.set_counter(slot, snap[slot] - 1)


MUTANTS: dict[str, Mutant] = {m.name: m for m in (
    Mutant(
        name="counter-reuse",
        description="rewrites re-encrypt under the previous counter",
        schemes=("wb", "asit", "star", "steins", "scue", "phoenix",
                 "secpm"),
        catches="counter-echo strict monotonicity",
        patch=_counter_reuse),
    Mutant(
        name="stale-read",
        description="re-reads served from a never-invalidated cache",
        schemes=("wb", "asit", "star", "steins", "scue", "phoenix",
                 "secpm"),
        catches="lockstep read diff",
        patch=_stale_read),
    Mutant(
        name="drop-node-persist",
        description="first tree-node persist silently dropped",
        schemes=("wb", "asit"),
        catches="refetch verification / durability",
        patch=_drop_node_persist),
    Mutant(
        name="skip-parent-update",
        description="first generated-counter propagation dropped",
        schemes=("steins",),
        catches="lazy-update propagation",
        patch=_skip_parent_update),
    Mutant(
        name="skip-writethrough",
        description="counter write-throughs never persisted (register "
                    "still bumped)",
        schemes=("secpm",),
        catches="leaf-sum audit against persist_root",
        patch=_skip_writethrough,
        needs_crash=True,
        flush_before_crash=False),
    Mutant(
        name="skip-register-persist",
        description="first per-subtree register bump dropped",
        schemes=("phoenix",),
        catches="subtree rebuild vs register accounting",
        patch=_skip_register_persist,
        needs_crash=True),
    Mutant(
        name="root-rollback",
        description="root register loses its last increment at crash",
        schemes=("scue", "steins", "asit", "star", "phoenix", "secpm"),
        catches="root freshness across recovery",
        patch=_no_patch,
        needs_crash=True,
        post_crash=_rollback_root),
)}


def run_mutant_case(name: str, scheme: str, trace: TraceArrays,
                    cfg: SystemConfig) -> ExploreCaseResult:
    """Plant one mutant and run the full differential flow over it.

    ``outcome != "match"`` means the oracle caught the bug — via a
    detection error (``detected``) or an observed disagreement
    (``diverged``).  ``match`` means the mutant escaped, which the
    self-test treats as an oracle failure.
    """
    mutant = MUTANTS.get(name)
    if mutant is None:
        raise ConfigError(f"unknown mutant {name!r}; "
                          f"pick one of {sorted(MUTANTS)}")
    dr = DifferentialRun(scheme, cfg)
    error: Exception | None = None
    try:
        with mutant.patch(dr):
            dr.run_trace(trace)
            if mutant.needs_crash and dr.controller.supports_recovery:
                if mutant.flush_before_crash:
                    dr.controller.flush_all()
                pre = dr.crash()
                if mutant.post_crash is not None:
                    mutant.post_crash(dr)
                dr.system.recover()
                dr.check_recovery(pre)
            else:
                dr.controller.flush_all()
            dr.verify_end_state()
    # any detection error is the mutant being *caught*, the terminal
    # outcome this runner exists to classify
    # simlint: disable-next=SL402 -- classified as caught, not swallowed
    except (IntegrityError, RecoveryError, OracleViolation,
            AssertionError) as exc:
        error = exc
    if error is not None:
        outcome, detail = "detected", f"{type(error).__name__}: {error}"
    elif dr.divergences:
        outcome, detail = "diverged", f"oracle check: {mutant.catches}"
    else:
        outcome, detail = "match", "mutant escaped the oracle"
    return ExploreCaseResult(
        outcome=outcome, crash_point=name, detail=detail,
        divergences=[d.to_json() for d in dr.divergences])
