"""Primitive address-stream generators.

These are the building blocks the SPEC-like profiles compose: sequential
streams, strided sweeps, uniform random, Zipf-skewed random, and
pointer-chase permutation walks.  All return :class:`TraceArrays` and are
fully determined by their seed.
"""
from __future__ import annotations

import numpy as np

from repro.common.errors import ConfigError
from repro.common.rng import make_rng
from repro.workloads.trace import TraceArrays


def _finish(rng, n: int, addresses: np.ndarray, write_frac: float,
            gap_mean: float) -> TraceArrays:
    if not 0.0 <= write_frac <= 1.0:
        raise ConfigError(f"write fraction {write_frac} out of [0,1]")
    if gap_mean < 0:
        raise ConfigError("gap mean must be non-negative")
    is_write = rng.random(n) < write_frac
    gaps = rng.poisson(gap_mean, size=n).astype(np.int32)
    return TraceArrays(is_write, addresses.astype(np.int64), gaps)


def sequential(seed: int, n: int, base: int, footprint: int,
               write_frac: float = 0.3, gap_mean: float = 10.0
               ) -> TraceArrays:
    """Streaming sweep over ``footprint`` blocks, wrapping around."""
    if footprint <= 0 or n <= 0:
        raise ConfigError("footprint and length must be positive")
    rng = make_rng(seed, "sequential")
    addresses = base + (np.arange(n) % footprint)
    return _finish(rng, n, addresses, write_frac, gap_mean)


def strided(seed: int, n: int, base: int, footprint: int, stride: int,
            write_frac: float = 0.3, gap_mean: float = 10.0) -> TraceArrays:
    """Fixed-stride sweep (matrix column walks, grid codes)."""
    if stride <= 0:
        raise ConfigError("stride must be positive")
    rng = make_rng(seed, "strided")
    addresses = base + (np.arange(n) * stride) % footprint
    return _finish(rng, n, addresses, write_frac, gap_mean)


def uniform_random(seed: int, n: int, base: int, footprint: int,
                   write_frac: float = 0.3, gap_mean: float = 10.0
                   ) -> TraceArrays:
    """Uniformly random accesses over the footprint (cactusADM-style)."""
    rng = make_rng(seed, "uniform")
    addresses = base + rng.integers(0, footprint, size=n)
    return _finish(rng, n, addresses, write_frac, gap_mean)


def zipf(seed: int, n: int, base: int, footprint: int, skew: float = 1.1,
         write_frac: float = 0.3, gap_mean: float = 10.0) -> TraceArrays:
    """Zipf-skewed random accesses (hot-set behaviour of pointer codes).

    Ranks are shuffled so the hot blocks are scattered over the
    footprint rather than clustered at its start.
    """
    if skew <= 1.0:
        raise ConfigError("numpy's Zipf sampler needs skew > 1")
    rng = make_rng(seed, "zipf")
    ranks = rng.zipf(skew, size=n)
    ranks = np.minimum(ranks - 1, footprint - 1)
    perm = rng.permutation(footprint)
    addresses = base + perm[ranks]
    return _finish(rng, n, addresses, write_frac, gap_mean)


def pointer_chase(seed: int, n: int, base: int, footprint: int,
                  write_frac: float = 0.05, gap_mean: float = 30.0
                  ) -> TraceArrays:
    """Walk a random permutation cycle — worst-case locality (mcf-style)."""
    rng = make_rng(seed, "chase")
    # a single full cycle so the walk covers the whole footprint
    order = rng.permutation(footprint)
    perm = np.empty(footprint, dtype=np.int64)
    perm[order] = np.roll(order, -1)
    addresses = np.empty(n, dtype=np.int64)
    cur = 0
    for i in range(n):
        cur = perm[cur]
        addresses[i] = base + cur
    return _finish(rng, n, addresses, write_frac, gap_mean)
