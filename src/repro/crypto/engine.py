"""Keyed hash engines used for HMACs and OTP generation.

Two interchangeable implementations of the same interface:

* :class:`Blake2Engine` — cryptographically strong (``hashlib.blake2b``
  keyed mode); used by security-focused tests.
* :class:`FastEngine` — splitmix64-based keyed mixing; ~10x faster and the
  default for large simulations.  It is *not* cryptographically strong,
  but within the simulation's threat model it is unforgeable: the modelled
  attacker (``repro.attacks``) manipulates stored values and never invokes
  the engine with the secret key.

Both are deterministic, so HMACs recomputed after a crash match the ones
computed before it — exactly the property real secure-memory hardware
relies on.
"""
from __future__ import annotations

import hashlib
from typing import Protocol

from repro.common.rng import _SPLITMIX_GAMMA

_MASK64 = (1 << 64) - 1


class HashEngine(Protocol):
    """Interface every keyed hash engine implements."""

    def digest64(self, *fields: int) -> int:
        """Keyed 64-bit digest over an ordered tuple of non-negative ints."""
        ...

    def otp(self, address: int, counter: int, width_bits: int) -> int:
        """Counter-mode one-time pad of ``width_bits`` bits for
        (address, counter); never repeats while counters are unique."""
        ...


class FastEngine:
    """Splitmix64-based keyed hash engine (default for simulations).

    Digests and OTPs are memoized per engine: both are pure functions of
    their inputs, so a cache hit returns the bit-identical value a fresh
    computation would — tamper detection is unaffected because a forged
    input is a different key that simply misses.  The memos are bounded
    (cleared wholesale at ``_MEMO_CAP`` entries, a deterministic policy)
    and pay off heavily in simulations, where the same node HMACs and
    block pads are recomputed on every refetch of a thrashing cache.
    """

    __slots__ = ("_key", "_digest_memo", "_otp_memo")

    _MEMO_CAP = 1 << 16

    #: memos shared between engines with the same key: a digest is a pure
    #: function of (key, fields), so sweeps that build thousands of
    #: short-lived systems over the default key start warm instead of
    #: re-deriving the same tree HMACs per candidate
    _SHARED_MEMOS: dict[int, tuple[dict, dict]] = {}

    def __init__(self, key: int) -> None:
        self._key = key & _MASK64
        memos = self._SHARED_MEMOS.get(self._key)
        if memos is None:
            memos = ({}, {})
            if len(self._SHARED_MEMOS) >= 64:  # bound distinct keys kept
                self._SHARED_MEMOS.clear()
            self._SHARED_MEMOS[self._key] = memos
        self._digest_memo: dict[tuple[int, ...], int] = memos[0]
        self._otp_memo: dict[tuple[int, int, int], int] = memos[1]

    def digest64(self, *fields: int) -> int:
        memo = self._digest_memo
        out = memo.get(fields)
        if out is not None:
            return out
        # splitmix64 inlined (bit-identical to repro.common.rng.splitmix64):
        # this is the hottest function of a simulation, and the helper's
        # per-step tuple allocation dominated its runtime.  A wider field
        # (a packed 448-bit counter block) is folded in 64-bit lanes,
        # low lane first, each lane the same step: bit-identical to
        # ``state = mix_wide(f, state)``.
        state = self._key
        for f in fields:
            if 0 <= f <= _MASK64:
                s = ((state ^ f) + _SPLITMIX_GAMMA) & _MASK64
                z = ((s ^ (s >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
                z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
                state = s ^ z ^ (z >> 31)
            elif f < 0:
                raise ValueError("hash fields must be non-negative")
            else:
                while f:
                    s = ((state ^ (f & _MASK64)) + _SPLITMIX_GAMMA) & _MASK64
                    z = ((s ^ (s >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
                    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
                    state = s ^ z ^ (z >> 31)
                    f >>= 64
        # final avalanche so short inputs still diffuse
        s = (state + _SPLITMIX_GAMMA) & _MASK64
        z = ((s ^ (s >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        out = (z ^ (z >> 31)) & _MASK64
        if len(memo) >= self._MEMO_CAP:
            memo.clear()
        memo[fields] = out
        return out

    def otp(self, address: int, counter: int, width_bits: int) -> int:
        key = (address, counter, width_bits)
        memo = self._otp_memo
        pad = memo.get(key)
        if pad is not None:
            return pad
        if width_bits <= 0 or width_bits % 64 != 0:
            raise ValueError("OTP width must be a positive multiple of 64")
        if 0 <= address <= _MASK64 and 0 <= counter <= _MASK64:
            # All lanes share the mixing prefix over (address, counter);
            # computing it once and finishing each lane separately is
            # bit-identical to digest64(address, counter, lane) per lane
            # at a little over half the rounds.
            g = _SPLITMIX_GAMMA
            s = ((self._key ^ address) + g) & _MASK64
            z = ((s ^ (s >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
            state = s ^ z ^ (z >> 31)
            s = ((state ^ counter) + g) & _MASK64
            z = ((s ^ (s >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
            prefix = s ^ z ^ (z >> 31)
            pad = 0
            shift = 0
            for lane in range(width_bits // 64):
                s = ((prefix ^ lane) + g) & _MASK64
                z = ((s ^ (s >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
                z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
                st = s ^ z ^ (z >> 31)
                s = (st + g) & _MASK64
                z = ((s ^ (s >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
                z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
                pad |= ((z ^ (z >> 31)) & _MASK64) << shift
                shift += 64
        else:
            pad = 0
            for lane in range(width_bits // 64):
                pad |= self.digest64(address, counter, lane) << (64 * lane)
        if len(memo) >= self._MEMO_CAP:
            memo.clear()
        memo[key] = pad
        return pad


class Blake2Engine:
    """blake2b-keyed engine for cryptographic-strength tests."""

    __slots__ = ("_key_bytes",)

    def __init__(self, key: int) -> None:
        self._key_bytes = (key & _MASK64).to_bytes(8, "little")

    def _hash(self, fields: tuple[int, ...], out_bytes: int) -> bytes:
        h = hashlib.blake2b(key=self._key_bytes, digest_size=out_bytes)
        for f in fields:
            if f < 0:
                raise ValueError("hash fields must be non-negative")
            h.update(f.to_bytes((f.bit_length() + 7) // 8 or 1, "little"))
            h.update(b"\x00")  # field separator: (1,23) != (12,3)
        return h.digest()

    def digest64(self, *fields: int) -> int:
        return int.from_bytes(self._hash(fields, 8), "little")

    def otp(self, address: int, counter: int, width_bits: int) -> int:
        if width_bits <= 0 or width_bits % 8 != 0:
            raise ValueError("OTP width must be a positive multiple of 8")
        raw = self._hash((address, counter), width_bits // 8)
        return int.from_bytes(raw, "little")


def make_engine(key: int, cryptographic: bool = False) -> HashEngine:
    """Factory selecting the engine implementation."""
    return Blake2Engine(key) if cryptographic else FastEngine(key)
