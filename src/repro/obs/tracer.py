"""Structured event tracer: ring-buffered, typed, zero overhead off.

One :class:`Tracer` handle is threaded through a simulated system
(:class:`~repro.sim.system.SecureNVMSystem` passes it to the clock, the
NVM device, the metadata cache, and the controller).  Emission sites
guard with ``if tracer.enabled:`` so a disabled tracer — the default
``NULL_TRACER`` — costs one attribute check per site and allocates
nothing, which is what keeps `repro figure` results byte-identical with
observability compiled out of the picture.

Events are *typed*: every kind is declared in :data:`EVENT_SCHEMA` with
the exact set of payload fields it may carry, and :meth:`Tracer.emit`
rejects unknown kinds and stray fields — the runtime twin of simlint's
stats-hygiene rules.  Timestamps are **simulated** nanoseconds read from
the bound :class:`~repro.sim.clock.MemClock` (never wall clock), so
traces are deterministic and replayable.

The buffer is a bounded ring: the newest ``capacity`` events are kept
and ``dropped`` counts the overwritten tail, so a tracer can stay armed
across an arbitrarily long run with bounded memory.
"""
from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, NamedTuple

from repro.common.errors import ConfigError
from repro.obs.metrics import DEFAULT_WINDOW_NS, MetricRegistry

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.sim.clock import MemClock

# ------------------------------------------------------------ event kinds
EV_NVM_READ = "nvm.read"
EV_NVM_WRITE = "nvm.write"
EV_WQ_STALL = "nvm.wq_stall"
EV_WPQ_DRAIN = "nvm.wpq_drain"
EV_MC_HIT = "metacache.hit"
EV_MC_MISS = "metacache.miss"
EV_MC_EVICT = "metacache.evict"
EV_SIT_WALK = "sit.walk"
EV_NVBUF_APPEND = "nvbuffer.append"
EV_NVBUF_DRAIN = "nvbuffer.drain"
EV_ADR_FLUSH = "adr.flush"
EV_RECOVERY_STEP = "recovery.step"

#: every event kind and the exact payload fields it may carry
EVENT_SCHEMA: dict[str, frozenset[str]] = {
    EV_NVM_READ: frozenset({"region", "index", "row_hit"}),
    EV_NVM_WRITE: frozenset({"region", "index", "stalled"}),
    EV_WQ_STALL: frozenset({"depth"}),
    EV_WPQ_DRAIN: frozenset({"entries", "torn", "rolled_back"}),
    EV_MC_HIT: frozenset({"offset"}),
    EV_MC_MISS: frozenset({"offset"}),
    EV_MC_EVICT: frozenset({"offset", "dirty"}),
    EV_SIT_WALK: frozenset({"level", "index", "offset"}),
    EV_NVBUF_APPEND: frozenset({"level", "index", "pending"}),
    EV_NVBUF_DRAIN: frozenset({"entries"}),
    EV_ADR_FLUSH: frozenset({"slot"}),
    EV_RECOVERY_STEP: frozenset({"step", "level", "count"}),
}

#: default ring capacity (events); ~64k events cover a figure-scale cell
DEFAULT_CAPACITY = 1 << 16


class TraceEvent(NamedTuple):
    """One captured event: simulated time, kind, duration, payload."""

    ts_ns: float
    kind: str
    dur_ns: float
    args: dict[str, Any]


class Tracer:
    """Bounded buffer of typed events plus a live metric registry."""

    __slots__ = ("enabled", "capacity", "dropped", "metrics",
                 "window_ns", "_events", "_clock")

    def __init__(self, capacity: int = DEFAULT_CAPACITY,
                 enabled: bool = True,
                 window_ns: float = DEFAULT_WINDOW_NS) -> None:
        if capacity <= 0:
            raise ConfigError("tracer capacity must be positive")
        self.enabled = enabled
        self.capacity = capacity
        self.dropped = 0
        #: live registry the emission sites feed (histograms, windows);
        #: merged with the stats facade by ``system_registry``
        self.metrics = MetricRegistry()
        self.window_ns = window_ns
        self._events: deque[TraceEvent] = deque(maxlen=capacity)
        self._clock: "MemClock | None" = None

    # ------------------------------------------------------------- clock
    def bind_clock(self, clock: "MemClock") -> None:
        """Adopt a simulation clock as the timestamp source.

        A disabled tracer ignores the bind so the shared ``NULL_TRACER``
        can never leak a clock between systems.
        """
        if self.enabled:
            self._clock = clock

    def now(self) -> float:
        """Current simulated time (0.0 before a clock is bound)."""
        return self._clock.now_ns if self._clock is not None else 0.0

    # -------------------------------------------------------------- emit
    def emit(self, kind: str, ts_ns: float | None = None,
             dur_ns: float = 0.0, **args: Any) -> None:
        """Record one event; no-op when disabled.

        ``ts_ns`` defaults to the bound clock's current simulated time;
        ``dur_ns > 0`` makes the event a span (a complete event in the
        Chrome-trace export), otherwise it is an instant.
        """
        if not self.enabled:
            return
        schema = EVENT_SCHEMA.get(kind)
        if schema is None:
            raise ConfigError(f"unknown trace event kind {kind!r}; "
                              "declare it in EVENT_SCHEMA")
        if not schema.issuperset(args):
            unknown = sorted(set(args) - schema)
            raise ConfigError(
                f"event {kind!r} does not declare fields {unknown}")
        if ts_ns is None:
            ts_ns = self.now()
        if len(self._events) == self.capacity:
            self.dropped += 1
        self._events.append(TraceEvent(ts_ns, kind, dur_ns, args))

    # ---------------------------------------------------------- contents
    def events(self) -> list[TraceEvent]:
        """The retained events, oldest first."""
        return list(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def counts_by_kind(self) -> dict[str, int]:
        """Retained event totals per kind (deterministic key order)."""
        counts: dict[str, int] = {}
        for event in self._events:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        return {kind: counts[kind] for kind in sorted(counts)}

    def clear(self) -> None:
        self._events.clear()
        self.dropped = 0
        self.metrics = MetricRegistry()


#: the shared disabled tracer every component defaults to; its ``emit``
#: is never reached because call sites guard on ``enabled``
NULL_TRACER = Tracer(capacity=1, enabled=False)
