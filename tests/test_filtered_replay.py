"""Replayed ``run_stream`` segments against recorded ones and the eager
model.

``SecureNVMSystem.run_stream`` records the controller calls the cache
hierarchy makes for a segment and lets a later system with the same
hierarchy history replay them instead of running the hierarchy
(``repro.sim.system``'s module docstring).  Here one random op sequence
(``run_stream`` segments with and without ``flush_writes``, stores,
loads, advances, crash+recover, and segments that a ``FaultPlan``
crashes part-way) runs twice against a fresh memo: first on a system
that records, then on one that replays what the first recorded, each
beside ``tests/system_reference.RefSystem``.  After every op both must
equal the eager model in persisted and architectural values, NVM data
lines, controller, device and timing stats, energy, simulated time and
access count, and, read through the ``hierarchy`` property of a copy,
in every cache set in LRU order and every per-level stat.  Fixed tests
add failures (a ``FaultPlan`` crash, a tampered fill) inside replayed,
recorded and unshared segments.
"""
from __future__ import annotations

import copy
import dataclasses
from contextlib import contextmanager
from typing import Iterator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import CacheConfig, HierarchyConfig, small_config
from repro.attacks.injector import AttackInjector
from repro.common.errors import CrashInjected, TamperDetectedError
from repro.faults.registry import FaultPlan, armed
from repro.mem.hierarchy import CacheHierarchy
from repro.nvm.layout import Region
from repro.sim import system as system_module
from repro.sim.runner import VARIANTS
from repro.sim.system import FilterMemo, SecureNVMSystem, segment_digest
from repro.workloads import get_profile
from repro.workloads.trace import TraceArrays
from tests.conftest import scaled
from tests.system_reference import RefSystem

#: blocks the ops touch: four times the tiny L3, so it keeps evicting
BLOCKS = 32

TINY = HierarchyConfig(
    l1=CacheConfig(2 * 64, 1),
    l2=CacheConfig(4 * 64, 2),
    l3=CacheConfig(8 * 64, 2),
)

block = st.integers(0, BLOCKS - 1)
accesses = st.lists(st.tuples(st.booleans(), block, st.integers(0, 400)),
                    max_size=40)
stream = st.tuples(st.just("stream"), accesses, st.booleans())
crash = st.tuples(st.just("crash"))
#: streams and crashes weigh more: a store, load or fault ends sharing
#: until the next crash
OPS = st.one_of(
    stream, stream, stream, crash, crash,
    st.tuples(st.just("store"), block, st.booleans()),
    st.tuples(st.just("load"), block),
    st.tuples(st.just("advance"), st.integers(0, 400)),
    st.tuples(st.just("fault"), accesses, st.booleans(),
              st.integers(1, 40)),
)


def build(cls: type, variant: str,
          hierarchy: HierarchyConfig = TINY) -> SecureNVMSystem:
    scheme, mode = VARIANTS[variant]
    cfg = dataclasses.replace(small_config(mode), hierarchy=hierarchy)
    return cls(scheme, cfg)


def trace_of(accesses: list[tuple[bool, int, int]]) -> TraceArrays:
    return TraceArrays(
        np.array([a[0] for a in accesses], dtype=bool),
        np.array([a[1] for a in accesses], dtype=np.int64),
        np.array([a[2] for a in accesses], dtype=np.int32),
    )


def apply(system: SecureNVMSystem, op: tuple) -> None:
    kind = op[0]
    if kind == "store":
        system.store(op[1], flush=op[2])
    elif kind == "load":
        system.load(op[1])
    elif kind == "advance":
        system.advance(op[1])
    elif kind == "stream":
        system.run_stream(trace_of(op[1]), flush_writes=op[2])
    elif kind == "fault":
        trace, flush_writes = trace_of(op[1]), op[2]
        if not isinstance(system, RefSystem):
            # a copy runs the segment unharmed first, so that the system
            # itself crashes inside a replay of it
            copy.deepcopy(system).run_stream(trace, flush_writes)
        with armed(FaultPlan(crash_after=op[3])):
            try:
                system.run_stream(trace, flush_writes=flush_writes)
            except CrashInjected:
                system.crash()
                system.recover()
    else:
        system.crash()
        system.recover()


def caches(system: SecureNVMSystem) -> list[tuple]:
    """Every set of every level in LRU order, with the level's stats,
    read through the ``hierarchy`` property of a copy (reading the
    system's own would end its sharing)."""
    probe = copy.copy(system)
    probe._hierarchy = copy.deepcopy(system._hierarchy)
    probe._unfiltered = list(system._unfiltered)
    hierarchy = probe.hierarchy
    return [([list(s.items()) for s in level.sets],
             dataclasses.astuple(level.stats))
            for level in (hierarchy.l1, hierarchy.l2, hierarchy.l3)]


def state(system: SecureNVMSystem, blocks: range) -> tuple:
    """Everything a run leaves behind, as one comparable value."""
    if isinstance(system, RefSystem):
        persisted, values = system.persisted, [
            system.current.get(addr, 0) for addr in blocks]
    else:
        persisted, values = system.model.blocks, [
            system.value_of(addr) for addr in blocks]
    return (
        dict(persisted),
        values,
        [system.device.peek(Region.DATA, addr) for addr in blocks],
        dict(vars(system.controller.stats)),
        system.device.stats.snapshot(),
        dict(vars(system.clock.timing.stats)),
        system.meter.breakdown.as_dict(),
        system.clock.now_ps,
        system.accesses,
        caches(system),
    )


def assert_same_state(lazy: SecureNVMSystem, ref: RefSystem) -> None:
    assert state(lazy, range(BLOCKS)) == state(ref, range(BLOCKS))


@contextmanager
def fresh_memo() -> Iterator[FilterMemo]:
    """An empty memo for the block, the process-wide one put back after."""
    saved = system_module.FILTER_MEMO
    system_module.FILTER_MEMO = memo = FilterMemo()
    try:
        yield memo
    finally:
        system_module.FILTER_MEMO = saved


@contextmanager
def counted_hierarchy_calls() -> Iterator[list[int]]:
    """Counts entries into the hierarchy in the block: ``run`` (the
    segment kernel the system calls), ``access`` and ``clwb``."""
    calls = [0]
    originals = {name: getattr(CacheHierarchy, name)
                 for name in ("run", "access", "clwb")}

    def counted(method):
        def wrapper(self, *args):
            calls[0] += 1
            return method(self, *args)
        return wrapper

    for name, method in originals.items():
        setattr(CacheHierarchy, name, counted(method))
    try:
        yield calls
    finally:
        for name, method in originals.items():
            setattr(CacheHierarchy, name, method)


@pytest.mark.parametrize("variant", ["steins-gc", "asit"])
@settings(max_examples=scaled(30))
@given(ops=st.lists(OPS, max_size=25))
def test_replay_matches_recording_and_eager_model(variant, ops):
    with fresh_memo() as memo, counted_hierarchy_calls() as calls:
        for replaying in (False, True):
            lazy = build(SecureNVMSystem, variant)
            ref = build(RefSystem, variant)
            for op in ops:
                shared = lazy._history is not None
                pending = len(lazy._unfiltered)
                apply(ref, op)
                calls[0] = 0
                apply(lazy, op)
                if op[0] == "stream" and len(lazy._unfiltered) > pending:
                    assert calls[0] == 0    # a replay makes no cache call
                elif op[0] == "stream" and replaying and shared:
                    # the recording pass left this segment in the memo
                    raise AssertionError(f"{op} was not replayed")
                assert_same_state(lazy, ref)
                assert memo.ints <= system_module.FILTER_MEMO_INTS


def test_replayed_segment_makes_no_hierarchy_calls():
    """A second variant on the same trace replays every segment, and
    ends in the state of a system that filtered it itself."""
    profile = get_profile("pers_hash")
    trace = profile.generate(seed=3, n=3000, footprint=4096)
    segments = [trace[lo:lo + 500] for lo in range(0, len(trace), 500)]
    with fresh_memo():
        first = build(SecureNVMSystem, "wb-gc", small_config().hierarchy)
        for segment in segments:
            first.run_stream(segment, flush_writes=True)
        replaying = build(SecureNVMSystem, "steins-gc",
                          small_config().hierarchy)
        with counted_hierarchy_calls() as calls:
            for segment in segments:
                replaying.run_stream(segment, flush_writes=True)
        assert calls[0] == 0
        assert len(replaying._unfiltered) == len(segments)
        alone = build(SecureNVMSystem, "steins-gc", small_config().hierarchy)
        alone.hierarchy  # noqa: B018 - reading it ends sharing
        for segment in segments:
            alone.run_stream(segment, flush_writes=True)
    blocks = range(4096)
    assert state(replaying, blocks) == state(alone, blocks)
    assert replaying.result("pers_hash") == alone.result("pers_hash")


@pytest.mark.parametrize("crash_after", [1, 7, 40, 150, 400])
def test_fault_inside_replayed_segment_leaves_drive_state(crash_after):
    """A crash injected part-way through a replayed segment leaves what
    the unshared loop leaves, and so does the recovery after it."""
    profile = get_profile("pers_swap")
    trace = profile.generate(seed=5, n=1200, footprint=512)
    head, tail = trace[:400], trace[400:]
    with fresh_memo():
        recorder = build(SecureNVMSystem, "steins-gc")
        for segment in (head, tail):
            recorder.run_stream(segment, flush_writes=True)
        runs = []
        for shared in (True, False):
            system = build(SecureNVMSystem, "steins-gc")
            if not shared:
                system.hierarchy  # noqa: B018 - reading it ends sharing
            system.run_stream(head, flush_writes=True)
            with armed(FaultPlan(crash_after=crash_after)) as plan:
                with pytest.raises(CrashInjected):
                    system.run_stream(tail, flush_writes=True)
                assert plan.crash_delivered
                runs.append(state(system, range(512)))
                system.crash()
                system.recover()
            system.run_stream(head, flush_writes=True)
            runs.append(state(system, range(512)))
    assert runs[:2] == runs[2:]


def fill_target(system: RefSystem, trace: TraceArrays, after: int) -> int:
    """A line ``trace`` fills from NVM (with ``flush_writes``) once the
    segment has written back at least ``after`` lines: persisted before
    the segment, and not written back in it before that fill."""
    probe = copy.deepcopy(system)
    persisted = {addr for addr, _ in probe.device.populated(Region.DATA)}
    calls: list[tuple[bool, int]] = []
    controller = probe.controller
    read_data, write_data = controller.read_data, controller.write_data

    def logged_read(line):
        calls.append((False, line))
        return read_data(line)

    def logged_write(line, value):
        calls.append((True, line))
        return write_data(line, value)

    controller.read_data, controller.write_data = logged_read, logged_write
    probe.run_stream(trace, flush_writes=True)
    written: set[int] = set()
    for is_write, line in calls:
        if is_write:
            written.add(line)
        elif len(written) >= after and line in persisted - written:
            return line
    raise AssertionError("no fill to tamper with")


@pytest.mark.parametrize("failure", [("crash", 7), ("crash", 40),
                                     ("crash", 150), ("tamper", 5),
                                     ("tamper", 60)])
@pytest.mark.parametrize("path", ["recording", "unshared"])
def test_failure_inside_kernel_segment_leaves_reference_state(path,
                                                              failure):
    """A ``FaultPlan`` crash or a tampered fill inside a segment the
    system runs through the hierarchy kernel itself, as the first
    system that records it or as an unshared one, leaves the eager
    model's state: versions through the failing access, caches, stats,
    time and access count.  So do the crash, recovery and run after
    it."""
    kind, at = failure
    trace = get_profile("pers_swap").generate(seed=5, n=1200, footprint=512)
    head, tail = trace[:400], trace[400:]
    blocks = range(512)
    runs: dict[str, list[tuple]] = {}
    with fresh_memo() as memo:
        system = build(SecureNVMSystem, "steins-gc")
        ref = build(RefSystem, "steins-gc")
        if path == "unshared":
            system.hierarchy  # noqa: B018 - reading it ends sharing
        for s in (system, ref):
            s.run_stream(head, flush_writes=True)
        target = fill_target(ref, tail, at) if kind == "tamper" else None
        for name, s in (("system", system), ("ref", ref)):
            states = runs[name] = []
            if kind == "crash":
                with armed(FaultPlan(crash_after=at)) as plan:
                    with pytest.raises(CrashInjected):
                        s.run_stream(tail, flush_writes=True)
                    assert plan.crash_delivered
                    states.append(state(s, blocks))
                    s.crash()
                    s.recover()
            else:
                original = s.device.peek(Region.DATA, target)
                AttackInjector(s.device).tamper_data_block(target)
                with pytest.raises(TamperDetectedError):
                    s.run_stream(tail, flush_writes=True)
                states.append(state(s, blocks))
                s.device.poke(Region.DATA, target, original)
                s.crash()
                s.recover()
            s.run_stream(tail, flush_writes=True)
            states.append(state(s, blocks))
            if s is system:
                # the memo kept the head only if it recorded it, never
                # the failed segment
                assert len(memo.entries) == (path == "recording") + 1
    assert runs["system"] == runs["ref"]


#: a compute gap no access of the generated traces reaches, so the
#: segment's last advance is the only one at least this long
TAIL_GAP = 1 << 30


class Interrupt(Exception):
    """Raised by the clock in place of an asynchronous interrupt."""


@pytest.mark.parametrize("flush_writes", [False, True])
@pytest.mark.parametrize("last_is_write", [False, True])
def test_exception_in_tail_advance_leaves_drive_state(flush_writes,
                                                      last_is_write):
    """An exception in the advance after a segment's last controller
    call leaves what the unshared loop leaves: the hierarchy gets the
    last access's ``clwb`` only if the loop made it."""
    trace = get_profile("mcf_r").generate(seed=4, n=300, footprint=512)
    addr = int(trace.address[-1])
    # a store leaves the line dirty, then the last access hits it
    segment = TraceArrays(
        np.append(trace.is_write, [True, last_is_write]),
        np.append(trace.address, [addr, addr]),
        np.append(trace.gap_cycles, [0, TAIL_GAP]))
    with fresh_memo() as memo:
        build(SecureNVMSystem, "wb-gc").run_stream(segment, flush_writes)
        assert len(memo.entries) == 1
        runs = []
        for shared in (True, False):
            system = build(SecureNVMSystem, "steins-gc")
            if not shared:
                system.hierarchy  # noqa: B018 - reading it ends sharing
            advance = system.clock.advance_cycles

            def advance_or_interrupt(cycles, advance=advance):
                if cycles >= TAIL_GAP:
                    raise Interrupt
                advance(cycles)

            system.clock.advance_cycles = advance_or_interrupt
            with pytest.raises(Interrupt):
                system.run_stream(segment, flush_writes=flush_writes)
            assert system._history is None
            runs.append(state(system, range(512)))
            del system.clock.advance_cycles
            system.run_stream(trace, flush_writes=flush_writes)
            runs.append(state(system, range(512)))
    assert runs[:2] == runs[2:]


#: a memo bound that holds a few of ``test_memo_stays_within_its_bound``'s
#: segments, not all
BOUND = 2000


def test_memo_stays_within_its_bound(monkeypatch):
    """Evicted entries cost a hierarchy pass, never a different result."""
    monkeypatch.setattr(system_module, "FILTER_MEMO_INTS", BOUND)
    profile = get_profile("mcf_r")
    trace = profile.generate(seed=2, n=1500, footprint=2048)
    segments = [trace[lo:lo + 100] for lo in range(0, len(trace), 100)]
    with fresh_memo() as memo:
        for variant in ("wb-gc", "asit", "steins-gc"):
            capped = build(SecureNVMSystem, variant)
            alone = build(SecureNVMSystem, variant)
            alone.hierarchy  # noqa: B018 - reading it ends sharing
            for segment in segments:
                capped.run_stream(segment)
                alone.run_stream(segment)
                assert memo.ints <= BOUND
            assert state(capped, range(2048)) == state(alone, range(2048))
        # some segments were kept, and some evicted
        assert 0 < len(memo.entries) < len(segments)


def test_digest_tells_equal_bytes_of_different_dtypes_apart():
    base = trace_of([(True, 5, 10), (False, 300, 0)])
    variants = [
        dataclasses.replace(base, is_write=base.is_write.view(np.uint8)),
        dataclasses.replace(base, address=base.address.view(np.uint64)),
        dataclasses.replace(base, gap_cycles=base.gap_cycles.view(np.uint32)),
    ]
    digests = {segment_digest(t) for t in [base, *variants]}
    assert len(digests) == 4
    assert segment_digest(base) == segment_digest(trace_of(
        [(True, 5, 10), (False, 300, 0)]))
    assert segment_digest(base) != segment_digest(base[:1])
