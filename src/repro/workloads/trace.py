"""Memory-access trace format.

A trace is a sequence of (is_write, block_address, gap_cycles) triples at
64-byte-line granularity — the stream a CPU core feeds its L1.  Traces
are generated deterministically from a seed (numpy-vectorized, then
iterated), so every figure is exactly reproducible.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

import numpy as np

from repro.common.errors import ConfigError


@dataclass(frozen=True)
class TraceArrays:
    """Column-oriented trace storage (cheap to generate and slice)."""

    is_write: np.ndarray   #: bool[n]
    address: np.ndarray    #: int64[n], block addresses
    gap_cycles: np.ndarray  #: int32[n], compute cycles before the access

    def __post_init__(self) -> None:
        n = len(self.address)
        if len(self.is_write) != n or len(self.gap_cycles) != n:
            raise ConfigError("trace columns must have equal length")

    def __len__(self) -> int:
        return len(self.address)

    def __iter__(self) -> Iterator[tuple[bool, int, int]]:
        for w, a, g in zip(self.is_write, self.address, self.gap_cycles):
            yield bool(w), int(a), int(g)

    @cached_property
    def columns(self) -> tuple[list[bool], list[int], list[int]]:
        """Native-python column views ``(is_write, address, gap_cycles)``.

        One bulk ``.tolist()`` per column replaces a per-access numpy
        scalar unboxing in the simulation loop; cached because a trace is
        frozen and typically driven through several systems.
        """
        return (self.is_write.tolist(), self.address.tolist(),
                self.gap_cycles.tolist())

    def __getitem__(self, index: slice) -> "TraceArrays":
        """The accesses ``index`` selects, as a trace (slices only)."""
        if not isinstance(index, slice):
            raise TypeError(
                f"a trace is indexed by slices, not {type(index).__name__}")
        return TraceArrays(self.is_write[index], self.address[index],
                           self.gap_cycles[index])

    @property
    def write_fraction(self) -> float:
        return float(np.mean(self.is_write)) if len(self) else 0.0

    @property
    def footprint_blocks(self) -> int:
        return int(np.unique(self.address).size)


def concat(traces: list[TraceArrays]) -> TraceArrays:
    """Concatenate phases into one trace."""
    if not traces:
        raise ConfigError("cannot concatenate zero traces")
    return TraceArrays(
        np.concatenate([t.is_write for t in traces]),
        np.concatenate([t.address for t in traces]),
        np.concatenate([t.gap_cycles for t in traces]),
    )


def interleave(traces: list[TraceArrays], chunk: int, rng) -> TraceArrays:
    """Round-robin interleave phase chunks (models phase-mixed programs)."""
    if chunk <= 0:
        raise ConfigError("chunk must be positive")
    pieces: list[TraceArrays] = []
    cursors = [0] * len(traces)
    order = list(range(len(traces)))
    while any(cursors[i] < len(traces[i]) for i in order):
        rng.shuffle(order)
        for i in order:
            lo = cursors[i]
            if lo >= len(traces[i]):
                continue
            hi = min(lo + chunk, len(traces[i]))
            pieces.append(traces[i][lo:hi])
            cursors[i] = hi
    return concat(pieces)
