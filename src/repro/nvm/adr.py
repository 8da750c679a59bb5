"""Asynchronous DRAM Refresh (ADR) power-fail domain.

ADR guarantees that, on power failure, everything inside the domain (the
memory controller's write pending queue plus designated buffers) is
flushed to the NVM medium using residual power.  Steins places its cached
offset record lines in this domain (Sec. III-C); its 128 B parent-counter
buffer, the LInc register, and the SIT root live in on-chip *non-volatile
registers*, which we model with the same primitive.

The domain holds named slots.  Each slot has a flush callback invoked at
crash time, which persists the slot's content into the NVM device; after
the callback runs the slot content is considered durable.
"""
from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

from repro.common.errors import ConfigError
from repro.obs.tracer import EV_ADR_FLUSH, NULL_TRACER, Tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.registry import ResidualBudget


class ADRDomain:
    """A crash-flushable set of named slots."""

    def __init__(self, capacity_bytes: int,
                 tracer: Tracer = NULL_TRACER) -> None:
        if capacity_bytes <= 0:
            raise ConfigError("ADR capacity must be positive")
        self.capacity_bytes = capacity_bytes
        self.tracer = tracer
        self._slots: dict[str, Any] = {}
        self._sizes: dict[str, int] = {}
        self._flushers: dict[str, Callable[..., None]] = {}
        self._budget_flushers: set[str] = set()

    # ----------------------------------------------------------- slots
    def register(self, name: str, size_bytes: int,
                 flush: Callable[..., None] | None = None,
                 wants_budget: bool = False) -> None:
        """Declare a slot.  ``flush(value)`` persists it at crash time.

        ``wants_budget=True`` callbacks are invoked as ``flush(value,
        budget)`` so they can meter their writes against the residual
        energy available at the crash (``repro.faults``).
        """
        if name in self._sizes:
            raise ConfigError(f"ADR slot {name!r} already registered")
        if size_bytes <= 0:
            raise ConfigError("slot size must be positive")
        used = sum(self._sizes.values())
        if used + size_bytes > self.capacity_bytes:
            raise ConfigError(
                f"ADR capacity exceeded: {used}+{size_bytes} > "
                f"{self.capacity_bytes}")
        self._sizes[name] = size_bytes
        if flush is not None:
            self._flushers[name] = flush
            if wants_budget:
                self._budget_flushers.add(name)

    def put(self, name: str, value: Any) -> None:
        if name not in self._sizes:
            raise ConfigError(f"unknown ADR slot {name!r}")
        self._slots[name] = value

    def get(self, name: str, default: Any = None) -> Any:
        if name not in self._sizes:
            raise ConfigError(f"unknown ADR slot {name!r}")
        return self._slots.get(name, default)

    def __contains__(self, name: str) -> bool:
        return name in self._slots

    # ----------------------------------------------------------- crash
    def flush_on_crash(self, budget: ResidualBudget | None = None) -> None:
        """Run every registered flush callback (residual-power flush).

        The slots flush independently in hardware, so one failing
        callback must not strand the rest: every slot gets its chance
        and the first failure is re-raised only after all of them ran.
        """
        failures: list[Exception] = []
        tr = self.tracer
        for name, flush in self._flushers.items():
            if name not in self._slots:
                continue
            if tr.enabled:
                tr.emit(EV_ADR_FLUSH, slot=name)
            try:
                if name in self._budget_flushers:
                    flush(self._slots[name], budget)
                else:
                    flush(self._slots[name])
            # every slot must get its residual power before a failure
            # propagates, so the first one is re-raised only at the end
            # simlint: disable-next=SL401 -- re-raised after all flush
            except Exception as exc:
                failures.append(exc)
        if failures:
            raise failures[0]

    def clear(self) -> None:
        """Post-recovery reset of slot contents (registrations persist)."""
        self._slots.clear()


class NonVolatileRegister:
    """An on-chip non-volatile register: survives crashes unconditionally.

    Models the SIT root register, Steins' 64 B LInc register and 128 B
    parent-counter buffer, and the cache-tree roots of ASIT/STAR.
    """

    __slots__ = ("name", "size_bytes", "_value")

    def __init__(self, name: str, size_bytes: int, initial: Any = None) -> None:
        if size_bytes <= 0:
            raise ConfigError("register size must be positive")
        self.name = name
        self.size_bytes = size_bytes
        self._value = initial

    @property
    def value(self) -> Any:
        return self._value

    @value.setter
    def value(self, new: Any) -> None:
        self._value = new

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"NonVolatileRegister({self.name!r}, {self.size_bytes}B)"
