"""Full-system wiring: CPU trace -> cache hierarchy -> secure controller
-> NVM device, plus the reference model used to check that every scheme
returns exactly the data that was written.

The system knows two values for every data block:

* :meth:`~SecureNVMSystem.value_of` — the architectural value (what the
  CPU last stored; may still be dirty in the volatile hierarchy),
* ``model.blocks`` — the value most recently written back to NVM, in
  the one :class:`~repro.oracle.model.ReferenceModel` of what the
  controller accepted.

A store records only the block's new version.  Its value,
``mix64(addr, version)``, is derived when a dirty line leaves the
hierarchy (a write-back or a ``clwb``), so stores that stay in the CPU
caches never pay for the hash.  A block not stored since the last crash
reads as its persisted value: a crash rolls the architectural view back
by forgetting the stores.  A demand fill from NVM must return the
*persisted* value, asserted on every fill, so a whole simulation doubles
as an end-to-end functional test of the scheme under test.

One filter pass per trace.  The hierarchy's output is a pure function
of its config, the accesses since the last crash and ``flush_writes``,
and every scheme sees the same LLC miss/write-back stream.  So
:meth:`~SecureNVMSystem.run_stream` records, per segment, the controller
calls the hierarchy made (cycles before each, line, kind, the number of
earlier stores to the line in the segment, access index) in a
process-wide memo keyed by a digest chain over all of those inputs.  A
later system with the same history replays the records instead of
running the hierarchy: it makes the same controller calls at the same
simulated times with the same values, and adds the recorded per-level
stats.  Its hierarchy object falls behind meanwhile; it is brought up to
date (*materialized*) from the kept segments before anything else uses
it: a memo miss, ``store``/``load`` or a read of
:attr:`~SecureNVMSystem.hierarchy`.  Anything but ``run_stream`` that
touches the hierarchy ends the sharing until the next crash.  Only
systems of one process share, and only while the memo still holds the
trace, so callers run a trace's systems back to back (the benchmark's
variant loop; ``FigureHarness.ensure_matrix`` lists cells
workload-major).  A system that records and is never replayed pays
for the recording, about 5-8% of its segment time.
"""
from __future__ import annotations

from array import array
from collections import Counter
from collections.abc import Sequence
from functools import lru_cache
from hashlib import blake2b, sha256
from itertools import compress, islice

import numpy as np

from repro.baselines.base import SecureMemoryController
from repro.common.config import HierarchyConfig, SystemConfig
from repro.common.errors import ConfigError
from repro.common.rng import mix64
from repro.integrity.geometry import geometry_for
from repro.mem.hierarchy import CacheHierarchy, MemOp, MemoryRequest
from repro.nvm.device import NVMDevice
from repro.nvm.energy import EnergyMeter
from repro.nvm.layout import MemoryLayout, build_layout
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.oracle.model import ReferenceModel
from repro.schemes import controller_types
from repro.sim.clock import MemClock
from repro.sim.stats import RunResult
from repro.workloads.trace import TraceArrays

#: {scheme: controller class}, a registry view in registration order;
#: plugins land here (and everywhere downstream) via
#: :func:`repro.schemes.register_scheme`, never by editing this module
SCHEMES: dict[str, type[SecureMemoryController]] = controller_types()

#: ints the filter memo holds at most, over all its entries in this
#: process; the oldest entries go first.  4 MB: every trace of every
#: benchmark workload fits, the largest being ``crash-recover``'s (a
#: 40k-access warm-up and 15 segments on ``mcf_r``, about 140k ints)
FILTER_MEMO_INTS = 1 << 19

#: the kind of a recorded controller call
_READ, _WRITE_BACK, _CLWB = 0, 1, 2

#: the per-level ``CacheStats`` counters a recorded segment adds
_STAT_FIELDS = ("hits", "misses", "evictions", "dirty_evictions")

#: a recorded segment is one flat ``array('q')``: the cycles to advance
#: after the last controller call, the 12 per-level stats deltas (L1,
#: L2, L3; ``_STAT_FIELDS`` each), then three ints per controller call,
#: in call order: the core cycles to advance before it, ``line << 2 |
#: kind`` and ``index << 32 | k``, where ``index`` is the access and
#: ``k`` the segment's stores to the line before the call (this
#: access's included for a ``_CLWB``)
_HEADER = 13
_LOW32 = (1 << 32) - 1


class FilterMemo:
    """Recorded segments by history digest (the history the segment
    ran from, its digest and ``flush_writes``), bounded by
    :data:`FILTER_MEMO_INTS`, oldest evicted first.  A miss only costs
    a hierarchy pass."""

    def __init__(self) -> None:
        self.entries: dict[bytes, array] = {}
        self.ints = 0

    def get(self, key: bytes) -> array | None:
        return self.entries.get(key)

    def put(self, key: bytes, entry: array) -> None:
        entries = self.entries
        if len(entry) > FILTER_MEMO_INTS or key in entries:
            return
        while self.ints + len(entry) > FILTER_MEMO_INTS:
            self.ints -= len(entries.pop(next(iter(entries))))
        entries[key] = entry
        self.ints += len(entry)


#: the one memo every system in this process shares
FILTER_MEMO = FilterMemo()


@lru_cache(maxsize=32)
def history_root(cfg: HierarchyConfig) -> bytes:
    """The history of an empty hierarchy: a digest of its config (the
    three geometries and the hit cycles)."""
    return blake2b(repr(cfg).encode(), digest_size=16).digest()


def segment_digest(trace: TraceArrays) -> bytes:
    """A digest of every column's dtype, length and bytes (SHA-256:
    OpenSSL runs it on the CPU's SHA extensions where there are some,
    about 2.5x blake2b's speed over a segment on x86-64)."""
    h = sha256()
    for column in (trace.is_write, trace.address, trace.gap_cycles):
        column = np.ascontiguousarray(column)
        h.update(f"{column.dtype.str}:{len(column)};".encode())
        h.update(column)
    return h.digest()[:16]


def _level_stats(hierarchy: CacheHierarchy) -> list[int]:
    return [getattr(level.stats, name)
            for level in (hierarchy.l1, hierarchy.l2, hierarchy.l3)
            for name in _STAT_FIELDS]


def _add_stats(hierarchy: CacheHierarchy, deltas: Sequence[int]) -> None:
    fields = iter(deltas)
    for level in (hierarchy.l1, hierarchy.l2, hierarchy.l3):
        stats = level.stats
        for name in _STAT_FIELDS:
            setattr(stats, name, getattr(stats, name) + next(fields))


def _filter(hierarchy: CacheHierarchy, is_write_col: Sequence[bool],
            address_col: Sequence[int], flush_writes: bool) -> None:
    """Run accesses through the hierarchy alone, ``clwb`` included."""
    access = hierarchy.access
    clwb = hierarchy.clwb
    for addr, is_write in zip(address_col, is_write_col):
        access(addr, is_write)
        if is_write and flush_writes:
            clwb(addr)


@lru_cache(maxsize=32)
def make_layout(cfg: SystemConfig) -> MemoryLayout:
    """Region sizes implied by a system configuration, memoized (the
    config and the layout are both frozen)."""
    geometry = geometry_for(cfg.num_data_blocks, cfg.security)
    cache_lines = cfg.security.metadata_cache.num_lines
    # STAR's multi-layer bitmap: one bit per tree node, summarized 512:1.
    bitmap_lines = 0
    n = geometry.total_nodes
    while True:
        lines = -(-n // 512)
        bitmap_lines += lines
        if lines == 1:
            break
        n = lines
    return build_layout(
        data_lines=cfg.num_data_blocks,
        tree_lines=geometry.total_nodes,
        metadata_cache_lines=cache_lines,
        shadow_lines=cache_lines,
        bitmap_lines=bitmap_lines,
    )


class SecureNVMSystem:
    """One simulated machine running one scheme."""

    def __init__(self, scheme: str, cfg: SystemConfig,
                 tracer: Tracer = NULL_TRACER) -> None:
        if scheme not in SCHEMES:
            raise ConfigError(
                f"unknown scheme {scheme!r}; pick one of {sorted(SCHEMES)}")
        self.scheme = scheme
        self.cfg = cfg
        self.tracer = tracer
        self.device = NVMDevice(make_layout(cfg), tracer=tracer)
        self.meter = EnergyMeter(cfg.energy)
        self.clock = MemClock(cfg, self.device, self.meter, tracer=tracer)
        self._hierarchy = CacheHierarchy(cfg.hierarchy)
        #: digest chain over every input of the hierarchy since the last
        #: crash (module docstring); None once something else touched it
        self._history: bytes | None = history_root(cfg.hierarchy)
        #: replayed segments ``(is_write, address, flush_writes)`` not
        #: yet run through ``_hierarchy``
        self._unfiltered: list[tuple[np.ndarray, np.ndarray, bool]] = []
        self.controller: SecureMemoryController = SCHEMES[scheme](
            cfg, self.device, self.clock)
        #: what the controller accepted (module docstring)
        self.model = ReferenceModel()
        #: {block: version of its latest store} for blocks stored since
        #: the last crash
        self._stored: dict[int, int] = {}
        #: the same for stores lost to (or persisted before) a crash, so
        #: a block's versions keep counting across crashes
        self._crashed_versions: dict[int, int] = {}
        self.accesses = 0

    @property
    def hierarchy(self) -> CacheHierarchy:
        """The CPU caches, up to date.  Reading them from outside ends
        the sharing of recorded segments until the next crash."""
        return self._own_hierarchy()

    def _own_hierarchy(self) -> CacheHierarchy:
        """Materialize the hierarchy and leave the memo: its history is
        about to include something the memo cannot name."""
        self._materialize()
        self._history = None
        return self._hierarchy

    def _materialize(self) -> None:
        """Run the replayed segments through the hierarchy, leaving its
        stats as they are (the replays already added theirs)."""
        if not self._unfiltered:
            return
        hierarchy = self._hierarchy
        before = _level_stats(hierarchy)
        for is_write, address, flush_writes in self._unfiltered:
            _filter(hierarchy, is_write.tolist(), address.tolist(),
                    flush_writes)
        _add_stats(hierarchy, [b - a for b, a in
                               zip(before, _level_stats(hierarchy))])
        self._unfiltered.clear()

    def value_of(self, block_addr: int) -> int:
        """Architectural value of a block: what the CPU last stored, or
        the persisted value when it was not stored since the last crash."""
        version = self._stored.get(block_addr)
        if version is None:
            return self.model.blocks.get(block_addr, 0)
        return mix64(block_addr, version)

    def _bump_versions(self, is_write_col: Sequence[bool],
                       address_col: Sequence[int]) -> None:
        """Record the stores of ``address_col`` at once."""
        stored = self._stored
        crashed_versions = self._crashed_versions
        for addr, count in Counter(compress(address_col,
                                            is_write_col)).items():
            stored[addr] = (stored.get(addr)
                            or crashed_versions.get(addr, 0)) + count

    # ------------------------------------------------------------- run
    def store(self, block_addr: int, flush: bool = False) -> None:
        """CPU store: gives the block a fresh deterministic value.

        With ``flush=True`` the store is followed by a ``clwb`` —
        the persistent-workload idiom — so the value reaches the secure
        controller immediately instead of waiting for an LLC eviction.
        """
        self._own_hierarchy()
        self._drive((True,), (block_addr,), (0,), flush)

    def load(self, block_addr: int) -> None:
        self._own_hierarchy()
        self._drive((False,), (block_addr,), (0,), False)

    def _check_fill(self, line: int) -> None:
        """A demand fill: the controller must return the persisted value."""
        plaintext = self.controller.read_data(line)
        expected = self.model.blocks.get(line, 0)
        if plaintext != expected:
            raise AssertionError(
                f"scheme {self.scheme!r} returned wrong data "
                f"for block {line}: {plaintext} != {expected}")

    def _serve(self, requests: list[MemoryRequest]) -> None:
        """Carry one access's memory requests to the controller: a
        write-back sends the block's architectural value, a fill is
        checked against the persisted one."""
        for request in requests:
            if request.op is MemOp.WRITE:
                self._write_back(request.line_addr)
            else:
                self._check_fill(request.line_addr)

    def _serve_noted(self, requests: list[MemoryRequest], cycles: int,
                     index: int, events: list[int]) -> None:
        """``_serve`` for access ``index``, noting each call in ``events``
        (layout at :data:`_HEADER`; a write-back notes its line's version
        in place of ``k``)."""
        stored = self._stored
        for request in requests:
            line = request.line_addr
            if request.op is MemOp.WRITE:
                events.extend((cycles, line << 2 | _WRITE_BACK,
                               index << 32 | stored.get(line, 0)))
                self._write_back(line)
            else:
                events.extend((cycles, line << 2 | _READ, index << 32))
                self._check_fill(line)
            cycles = 0

    def _write_back(self, block_addr: int) -> None:
        """A dirty line leaves the hierarchy (eviction or ``clwb``)."""
        value = self.value_of(block_addr)
        self.controller.write_data(block_addr, value)
        self.model.write(block_addr, value)

    def advance(self, gap_cycles: int) -> None:
        """Compute time between memory accesses."""
        self.clock.advance_cycles(gap_cycles)

    def run_stream(self, trace: TraceArrays,
                   flush_writes: bool = False) -> None:
        """Drive a whole trace through the system (batched hot path).

        Equivalent to per-access ``advance``/``store``/``load`` calls,
        which run the same loop one access at a time; the golden stats
        suite compares the two.  A segment this process has already
        filtered from the same hierarchy history is replayed from the
        memo (module docstring); any other is recorded into it.  A
        replaying system keeps the trace's ``is_write`` and ``address``
        arrays until it materializes, so, as for the python lists
        :attr:`TraceArrays.columns` caches, a trace must not change once
        it has run.
        """
        history = self._history
        if history is None:
            self._drive(*trace.columns, flush_writes)
            return
        # the key names the history the segment leaves behind
        key = blake2b(b"".join((history, segment_digest(trace),
                                b"\1" if flush_writes else b"\0")),
                      digest_size=16).digest()
        # None until the segment completes: an exception ends sharing
        self._history = None
        entry = FILTER_MEMO.get(key)
        if entry is not None:
            self._replay(entry, trace, flush_writes)
        else:
            self._materialize()
            FILTER_MEMO.put(key, self._record(trace, flush_writes))
        self._history = key

    def _record(self, trace: TraceArrays, flush_writes: bool) -> array:
        """Run a segment through the hierarchy, recording its controller
        calls (layout at :data:`_HEADER`)."""
        is_write_col, address_col, gap_col = trace.columns
        hierarchy = self._hierarchy
        before = _level_stats(hierarchy)
        # a list while recording: its extend is several times array's
        calls: list[int] = []
        tail = self._drive(is_write_col, address_col, gap_col,
                           flush_writes, calls)
        # A write-back recorded its line's version then in place of k (0:
        # not stored since the crash); the segment started at its final
        # version less the segment's stores to it.
        stored = self._stored
        counts = None
        for j in range(2, len(calls), 3):
            version = calls[j] & _LOW32
            if version:
                if counts is None:
                    counts = Counter(compress(address_col, is_write_col))
                line = calls[j - 1] >> 2
                calls[j] += counts[line] - stored[line]
        events = array("q", [tail])
        events.extend([a - b for a, b in zip(_level_stats(hierarchy),
                                             before)])
        events.extend(calls)
        return events

    def _replay(self, entry: array, trace: TraceArrays,
                flush_writes: bool) -> None:
        """Make a recorded segment's controller calls, as ``_drive``
        would make them, without the hierarchy."""
        is_write_col, address_col, _ = trace.columns
        advance = self.clock.advance_cycles
        write_data = self.controller.write_data
        model_write = self.model.write
        check_fill = self._check_fill
        value_of = self.value_of
        stored = self._stored
        crashed_versions = self._crashed_versions
        op = at = -1 << 32
        try:
            events = islice(entry, _HEADER, None)
            for cycles, op, at in zip(events, events, events):
                if cycles:
                    advance(cycles)
                line = op >> 2
                if not op & 3:
                    check_fill(line)
                    continue
                k = at & _LOW32
                if k:
                    value = mix64(line, (stored.get(line)
                                         or crashed_versions.get(line, 0))
                                  + k)
                else:
                    value = value_of(line)
                write_data(line, value)
                model_write(line, value)
            # the tail: every access ran, with the last one's clwb if any
            last = len(address_col) - 1
            op = (_CLWB if last >= 0 and flush_writes and is_write_col[last]
                  else _READ)
            at = last << 32
            if entry[0]:
                advance(entry[0])
        except BaseException:
            self._abort_replay(is_write_col, address_col, flush_writes,
                               at >> 32, op & 3 == _CLWB)
            raise
        self._bump_versions(is_write_col, address_col)
        _add_stats(self._hierarchy, entry[1:_HEADER])
        self.accesses += len(address_col)
        self._unfiltered.append((trace.is_write, trace.address,
                                 flush_writes))

    def _abort_replay(self, is_write_col: Sequence[bool],
                      address_col: Sequence[int], flush_writes: bool,
                      index: int, clwb_done: bool) -> None:
        """Leave the state ``_drive`` leaves when access ``index``
        raises: its stores and those before it counted, the hierarchy
        run through it (and its ``clwb`` if that was the failing call)."""
        self._bump_versions(is_write_col[:index + 1],
                            address_col[:index + 1])
        self._materialize()
        if index < 0:
            return
        hierarchy = self._hierarchy
        _filter(hierarchy, is_write_col[:index], address_col[:index],
                flush_writes)
        hierarchy.access(address_col[index], is_write_col[index])
        if clwb_done:
            hierarchy.clwb(address_col[index])

    def _drive(self, is_write_col: Sequence[bool],
               address_col: Sequence[int], gap_col: Sequence[int],
               flush_writes: bool, events: list[int] | None = None) -> int:
        """The one access loop.  Cycle costs (compute gaps + cache-hit
        latencies) accumulate in a plain int and are flushed to the
        clock only when a controller operation — the only consumer of
        ``now_ps`` — is about to run.  Integer time makes the deferred
        sum bit-identical to eager per-access advances; the win is
        skipping per-access clock bookkeeping for the (overwhelmingly
        common) cache-hit accesses in between.

        With ``events`` it appends three ints per controller call there
        (the per-call layout at :data:`_HEADER`, with a write-back's
        ``k`` still the line's version); returns the cycles advanced
        after the last.
        """
        clock = self.clock
        hierarchy = self._hierarchy
        access = hierarchy.access
        clwb = hierarchy.clwb
        serve = self._serve
        serve_noted = self._serve_noted
        stored = self._stored
        crashed_versions = self._crashed_versions
        pending_cycles = 0
        n = len(address_col)
        for i in range(n):
            addr = address_col[i]
            is_write = is_write_col[i]
            pending_cycles += gap_col[i]
            if is_write:
                stored[addr] = (stored.get(addr)
                                or crashed_versions.get(addr, 0)) + 1
            result = access(addr, is_write)
            pending_cycles += result.cycles
            if result.requests:
                clock.advance_cycles(pending_cycles)
                if events is None:
                    serve(result.requests)
                else:
                    serve_noted(result.requests, pending_cycles, i, events)
                pending_cycles = 0
            if is_write and flush_writes and clwb(addr):
                if events is not None:
                    events.extend((pending_cycles, addr << 2 | _CLWB,
                                   i << 32 | stored[addr]))
                if pending_cycles:
                    clock.advance_cycles(pending_cycles)
                    pending_cycles = 0
                self._write_back(addr)
        if pending_cycles:
            clock.advance_cycles(pending_cycles)
        self.accesses += n
        return pending_cycles

    # ----------------------------------------------------------- crash
    def crash(self) -> None:
        """Power failure: volatile state is lost; ADR does its job.

        Under an armed fault plan the residual-power budget is drawn
        down in ADR priority order: the device's write-pending queue
        drains first (possibly tearing the line on the energy boundary),
        then the controller's ADR domain flushes from whatever remains.
        """
        from repro.faults.registry import active_plan

        plan = active_plan()
        budget = plan.begin_crash_flush() if plan is not None else None
        self.clock.drain_writes()   # in-flight writes join the WPQ
        self._hierarchy.clear()
        self._unfiltered.clear()
        self._history = history_root(self.cfg.hierarchy)
        self.device.crash_drain(budget)
        self.controller.crash()
        # architecturally, unflushed stores are gone
        self._crashed_versions.update(self._stored)
        self._stored.clear()

    def recover(self):
        """Run the scheme's recovery; returns its RecoveryReport."""
        return self.controller.recover()

    def verify_all_persisted(self) -> int:
        """Read back every persisted block through the secure path and
        compare against the reference model.  Returns blocks checked."""
        blocks = self.model.blocks
        for addr in sorted(blocks):
            plaintext = self.controller.read_data(addr)
            if plaintext != blocks[addr]:
                raise AssertionError(
                    f"block {addr}: {plaintext} != {blocks[addr]}")
        return len(blocks)

    # ----------------------------------------------------------- stats
    def result(self, workload: str) -> RunResult:
        c = self.controller
        return RunResult(
            scheme=self.scheme,
            workload=workload,
            exec_time_ns=self.clock.now_ns,
            data_reads=c.stats.data_reads,
            data_writes=c.stats.data_writes,
            avg_read_latency_ns=c.stats.avg_read_ns,
            avg_write_latency_ns=c.stats.avg_write_ns,
            nvm_write_traffic=self.device.stats.total_writes,
            nvm_read_traffic=self.device.stats.total_reads,
            energy_nj=self.meter.total_nj,
            metadata_cache_hit_rate=c.metacache.stats.hit_rate,
            detail={
                "max_read_latency_ns": c.stats.max_read_latency_ns,
                "max_write_latency_ns": c.stats.max_write_latency_ns,
                **{f"extra_{k}": v for k, v in c.stats.extra.items()},
            },
        )
