"""Unit helpers: time (picoseconds <-> nanoseconds) and sizes.

The paper's Table I uses a 2 GHz core clock and nanosecond NVM timings.
Simulated time is accounted in **integer picoseconds**: every latency the
configuration announces (cycle costs, PCM timings) is converted to ps
once, at configuration time, and all hot-path bookkeeping from then on is
exact integer arithmetic — sums never drift under reordering, so a
refactored hot path can be proven byte-identical to the original.
Nanosecond floats appear only at the reporting boundary
(:func:`ns_from_ps` and the ``*_ns`` properties of the stats objects).
"""
from __future__ import annotations

KB: int = 1024
MB: int = 1024 * KB
GB: int = 1024 * MB
TB: int = 1024 * GB

#: integer picoseconds per nanosecond — the simulated-time base unit
PS_PER_NS: int = 1000


def ps_from_ns(ns: float) -> int:
    """Convert a configured nanosecond quantity to exact picoseconds.

    Config-time conversion: rounding happens once, here, and never again
    during simulation.  All of Table I's timings are exact multiples of
    1 ps, so the default configuration round-trips losslessly.
    """
    if ns < 0:
        raise ValueError(f"duration must be non-negative, got {ns}")
    return round(ns * PS_PER_NS)


def ns_from_ps(ps: int) -> float:
    """Reporting-boundary conversion of exact picoseconds to ns floats."""
    return ps / PS_PER_NS


def pretty_size(num_bytes: int) -> str:
    """Render a byte count as a human-friendly string (e.g. ``256KB``)."""
    if num_bytes < 0:
        raise ValueError(f"size must be non-negative, got {num_bytes}")
    for unit, width in (("TB", TB), ("GB", GB), ("MB", MB), ("KB", KB)):
        if num_bytes >= width and num_bytes % width == 0:
            return f"{num_bytes // width}{unit}"
    for unit, width in (("TB", TB), ("GB", GB), ("MB", MB), ("KB", KB)):
        if num_bytes >= width:
            return f"{num_bytes / width:.2f}{unit}"
    return f"{num_bytes}B"


def pretty_time_ns(ns: float) -> str:
    """Render a nanosecond duration with an adaptive unit."""
    if ns < 0:
        raise ValueError(f"duration must be non-negative, got {ns}")
    if ns >= 1e9:
        return f"{ns / 1e9:.3f}s"
    if ns >= 1e6:
        return f"{ns / 1e6:.3f}ms"
    if ns >= 1e3:
        return f"{ns / 1e3:.3f}us"
    return f"{ns:.1f}ns"
