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
and every scheme sees the same LLC miss/write-back stream.  The
hierarchy's segment kernel (:meth:`CacheHierarchy.run`) yields a
segment's controller calls as ``(cycles, line << 2 | kind, index << 32
| k)`` triples, ``k`` being the number of earlier stores to the line in
the segment, and :meth:`~SecureNVMSystem.run_stream` records them, with
the segment's per-line store counts, in a process-wide memo keyed by a
digest chain over all of those inputs.  A later system with the same
history replays the entry instead of running the hierarchy: the
recording system, an unshared one and a replaying one make their
controller calls in one loop, so they make the same calls at the same
simulated times with the same values; a replay then bumps its versions
from the recorded counts and adds the recorded per-level stats.  Its
hierarchy object falls behind meanwhile; it is brought up to date
(*materialized*) from the kept segments before anything else uses it: a
memo miss, ``store``/``load`` or a read of
:attr:`~SecureNVMSystem.hierarchy`.  Anything but ``run_stream`` that
touches the hierarchy ends the sharing until the next crash.  Only
systems of one process share, and only while the memo still holds the
trace, so callers run a trace's systems back to back (the benchmark's
variant loop; ``FigureHarness.ensure_matrix`` lists cells
workload-major).  A system that records and is never replayed pays for
the digest, noting the calls and packing the entry.
"""
from __future__ import annotations

from array import array
from collections import deque
from collections.abc import Callable, Iterable, Iterator, Sequence
from functools import lru_cache
from hashlib import blake2b, sha256
from itertools import chain, islice

import numpy as np

from repro.baselines.base import SecureMemoryController
from repro.common.config import HierarchyConfig, SystemConfig
from repro.common.errors import ConfigError
from repro.common.rng import mix64
from repro.integrity.geometry import geometry_for
from repro.mem.hierarchy import READ, TAIL, CacheHierarchy
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
#: process; the oldest entries go first.  4 MB: all the entries of any
#: benchmark workload fit at once, ``fig-hit``'s being the most (750
#: segments, about 240k ints, most of them store pairs), and the largest
#: entry is ``crash-recover``'s 40k-access warm-up on ``mcf_r`` (about
#: 100k ints)
FILTER_MEMO_INTS = 1 << 19

#: the per-level ``CacheStats`` counters a recorded segment adds
_STAT_FIELDS = ("hits", "misses", "evictions", "dirty_evictions")

#: a recorded segment is one flat ``array('q')``: the 12 per-level stats
#: deltas (L1, L2, L3; ``_STAT_FIELDS`` each), the number ``P`` of lines
#: the segment stores to, ``P`` pairs ``line, stores``, then the
#: kernel's controller calls, three ints each, in call order
#: (:meth:`CacheHierarchy.run`), the last being its ``TAIL``
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


def _noted(calls: Iterator[tuple[int, int, int]],
           out: list[int]) -> Iterator[tuple[int, int, int]]:
    """``calls``, each also appended flat to ``out``."""
    for call in calls:
        out.extend(call)
        yield call


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
        #: replayed segments ``(is_write, address, gap_cycles,
        #: flush_writes)`` not yet run through ``_hierarchy``
        self._unfiltered: list[tuple[np.ndarray, np.ndarray, np.ndarray,
                                     bool]] = []
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
        for is_write, address, gaps, flush_writes in self._unfiltered:
            deque(hierarchy.run(address.tolist(), is_write.tolist(),
                                gaps.tolist(), flush_writes, {}), 0)
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

    def _bump_versions(self, counts: Iterable[tuple[int, int]]) -> None:
        """Record a segment's stores at once, ``(line, stores)`` each."""
        stored = self._stored
        crashed_versions = self._crashed_versions
        for addr, count in counts:
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
        replaying system keeps the trace's column arrays until it
        materializes, so, as for the python lists
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
        calls and store counts (layout at :data:`_HEADER`)."""
        hierarchy = self._hierarchy
        before = _level_stats(hierarchy)
        # a list while recording: its extend is several times array's
        calls: list[int] = []
        counts = self._drive(*trace.columns, flush_writes, calls)
        entry = array("q", [a - b for a, b in zip(_level_stats(hierarchy),
                                                  before)])
        entry.append(len(counts))
        entry.extend(chain.from_iterable(counts.items()))
        entry.extend(calls)
        return entry

    def _replay(self, entry: array, trace: TraceArrays,
                flush_writes: bool) -> None:
        """Make a recorded segment's controller calls, as ``_drive``
        would make them, without the hierarchy."""
        start = _HEADER + 2 * entry[_HEADER - 1]
        events = islice(entry, start, None)

        def abort(op: int, at: int) -> None:
            # leave what _drive leaves when this call raises: the
            # hierarchy run up to the call, its accesses' stores counted
            self._materialize()
            is_write_col, address_col, gap_col = trace.columns
            counts: dict[int, int] = {}
            kernel = self._hierarchy.run(address_col, is_write_col, gap_col,
                                         flush_writes, counts)
            for call in kernel:
                if call[1] == op and call[2] == at:
                    break
            kernel.close()
            self._bump_versions(counts.items())

        self._make_calls(zip(events, events, events), abort)
        pairs = islice(entry, _HEADER, start)
        self._bump_versions(zip(pairs, pairs))
        _add_stats(self._hierarchy, entry[:_HEADER - 1])
        self.accesses += len(trace.address)
        self._unfiltered.append((trace.is_write, trace.address,
                                 trace.gap_cycles, flush_writes))

    def _drive(self, is_write_col: Sequence[bool],
               address_col: Sequence[int], gap_col: Sequence[int],
               flush_writes: bool,
               noted: list[int] | None = None) -> dict[int, int]:
        """Run accesses through the hierarchy kernel and make its
        controller calls, appending them flat to ``noted`` if given;
        returns the segment's ``{line: stores}``."""
        counts: dict[int, int] = {}
        kernel = self._hierarchy.run(address_col, is_write_col, gap_col,
                                     flush_writes, counts)

        def abort(op: int, at: int) -> None:
            # the kernel stopped at the failing call: closing it adds
            # its stats, and counts holds the stores through that access
            kernel.close()
            self._bump_versions(counts.items())

        self._make_calls(kernel if noted is None else _noted(kernel, noted),
                         abort)
        self._bump_versions(counts.items())
        self.accesses += len(address_col)
        return counts

    def _make_calls(self, calls: Iterable[tuple[int, int, int]],
                    abort: Callable[[int, int], None]) -> None:
        """The one loop that makes a segment's controller calls, from the
        kernel or from a memo entry.  Before each, advance the clock by
        its cycles; a fill is checked against the persisted value, and a
        write-back sends the line's value after the segment's first
        ``k`` stores to it (``value_of`` when ``k`` is 0; the versions
        are bumped once the segment is done).  If a call raises,
        ``abort(op, at)`` gets that call's ints before the exception
        propagates."""
        advance = self.clock.advance_cycles
        write_data = self.controller.write_data
        model_write = self.model.write
        check_fill = self._check_fill
        value_of = self.value_of
        stored = self._stored
        crashed_versions = self._crashed_versions
        op = at = -1
        try:
            for cycles, op, at in calls:
                if cycles:
                    advance(cycles)
                kind = op & 3
                line = op >> 2
                if kind == READ:
                    check_fill(line)
                    continue
                if kind == TAIL:
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
        except BaseException:
            abort(op, at)
            raise

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
