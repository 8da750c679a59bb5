"""Deterministic random-number utilities.

Every stochastic component (workload generators, attack injectors, crash
points) derives its stream from an explicit seed so that simulations,
tests, and benchmark figures are exactly reproducible run-to-run.
"""
from __future__ import annotations

import numpy as np

#: 64-bit golden-ratio increment used by the splitmix64 generator.
_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


def splitmix64(state: int) -> tuple[int, int]:
    """One step of splitmix64: returns ``(new_state, output)``.

    Used both as a cheap keyed mixing primitive (``crypto.engine``) and to
    derive independent sub-seeds.
    """
    state = (state + _SPLITMIX_GAMMA) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    z ^= z >> 31
    return state, z


def mix64(*values: int) -> int:
    """Mix an arbitrary tuple of ints into a single 64-bit digest.

    Deterministic and sensitive to order; this is the core of the fast
    keyed-hash engine.  Not cryptographically strong, but unforgeable
    within the simulation because attackers never call it with the key.

    The splitmix64 step is inlined (identical output to
    :func:`splitmix64`): this derives the value of every stored block
    that reaches the secure controller (and of every oracle write), and
    the per-call tuple allocation of the helper dominated its cost.
    """
    state = 0x243F6A8885A308D3  # pi fractional bits, arbitrary start
    for v in values:
        if v < 0 or v > _MASK64:
            state = mix_wide(abs(v), state)
            continue
        s = ((state ^ v) + _SPLITMIX_GAMMA) & _MASK64
        z = ((s ^ (s >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        state = s ^ z ^ (z >> 31)
    return state & _MASK64


def mix_wide(value: int, state: int = 0x452821E638D01377) -> int:
    """Mix an arbitrarily wide non-negative int into a 64-bit digest."""
    if value < 0:
        raise ValueError("mix_wide expects a non-negative value")
    while True:
        state, out = splitmix64(state ^ (value & _MASK64))
        state ^= out
        value >>= 64
        if value == 0:
            return state & _MASK64


def derive_seed(base: int, *tags: int | str) -> int:
    """Derive an independent 64-bit sub-seed from ``base`` and tags."""
    acc = base & _MASK64
    for tag in tags:
        if isinstance(tag, str):
            for ch in tag:
                acc = mix64(acc, ord(ch))
        else:
            acc = mix64(acc, tag)
    return acc


def make_rng(seed: int, *tags: int | str) -> np.random.Generator:
    """Create a numpy Generator from a derived sub-seed."""
    return np.random.default_rng(derive_seed(seed, *tags))
