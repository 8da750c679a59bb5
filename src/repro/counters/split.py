"""Split counter block: 64-bit major + sixty-four 6-bit minors.

Covers 64 data blocks in one 64-byte line (with the HMAC), cutting leaf
storage from 1/8 to 1/64 of the data size and shortening the tree by one
level (paper Sec. II-D, IV-E).

Two major-counter overflow policies exist:

* ``PLAIN`` — the conventional split counter (Sec. II-B / WB-SC): on a
  minor overflow all minors reset and the major increases by one.  The
  generated sum ``major*64 + sum(minors)`` would NOT be monotone under
  this policy (the sum of minors usually exceeds 64 at reset time... it
  does not — see below), so plain blocks are only used where gensum is
  never consulted.
* ``SKIP`` — Steins' scheme (Sec. III-B.1): on a minor overflow the major
  is increased by ``ceil(sum(minors)/64)``, which aligns the generated
  parent counter up to the next multiple of 64 and keeps Eq. (2) strictly
  monotone.  Property-tested in ``tests/test_prop_counters.py``.
"""
from __future__ import annotations

import enum

from repro.common import constants as C
from repro.common.bitfield import unpack_fields
from repro.common.errors import CounterOverflowError
from repro.counters.base import IncrementResult, Snapshot

_MAJOR_MAX = (1 << C.MAJOR_COUNTER_BITS) - 1
_WIDTHS = [C.MAJOR_COUNTER_BITS] + \
    [C.MINOR_COUNTER_BITS] * C.MINORS_PER_SPLIT_BLOCK
#: per-minor bit positions, precomputed for the unchecked hot-path pack
_MINOR_SHIFTS = tuple(C.MAJOR_COUNTER_BITS + i * C.MINOR_COUNTER_BITS
                      for i in range(C.MINORS_PER_SPLIT_BLOCK))


class OverflowPolicy(enum.Enum):
    PLAIN = "plain"  #: conventional: major += 1 on minor overflow
    SKIP = "skip"    #: Steins: major += ceil(sum(minors)/64)


class SplitCounterBlock:
    """Mutable working copy of a split counter block."""

    __slots__ = ("major", "minors", "policy")

    coverage = C.MINORS_PER_SPLIT_BLOCK

    def __init__(self, major: int = 0, minors: list[int] | None = None,
                 policy: OverflowPolicy = OverflowPolicy.SKIP) -> None:
        if minors is None:
            minors = [0] * C.MINORS_PER_SPLIT_BLOCK
        if len(minors) != C.MINORS_PER_SPLIT_BLOCK:
            raise ValueError(
                f"expected {C.MINORS_PER_SPLIT_BLOCK} minors, got {len(minors)}")
        if not 0 <= major <= _MAJOR_MAX:
            raise CounterOverflowError("major counter exceeds 64 bits")
        if min(minors) < 0 or max(minors) > C.MINOR_COUNTER_MAX:
            for m in minors:  # name the first offender
                if not 0 <= m <= C.MINOR_COUNTER_MAX:
                    raise CounterOverflowError(f"minor {m} exceeds 6 bits")
        self.major = major
        self.minors = list(minors)
        self.policy = policy

    # ---------------------------------------------------------- queries
    def counter(self, slot: int) -> int:
        """Encryption counter for ``slot``: (major, minor) combined.

        The OTP input must be unique per write of a block; concatenating
        major and minor achieves that (Sec. II-B).
        """
        return (self.major << C.MINOR_COUNTER_BITS) | self.minors[slot]

    def gensum(self) -> int:
        """Eq. (2): Parent = Major * 2^6 + sum(minors)."""
        return self.major * C.SPLIT_MAJOR_WEIGHT + sum(self.minors)

    # --------------------------------------------------------- mutation
    def increment(self, slot: int) -> IncrementResult:
        """Bump ``slot``'s minor; handle overflow per the policy.

        Returns the gensum delta and whether a minor overflow occurred
        (caller must re-encrypt all covered blocks in that case).
        """
        before = self.gensum()
        if self.minors[slot] < C.MINOR_COUNTER_MAX:
            self.minors[slot] += 1
            return IncrementResult(gensum_delta=self.gensum() - before)

        # Minor overflow: reset all minors, advance the major.
        if self.policy is OverflowPolicy.SKIP:
            # Steins: align the generated counter up to a multiple of 64.
            # At this point sum(minors) includes the full minor, so the
            # post-write sum is sum+1; the increment is ceil((sum+1)/64),
            # guaranteeing gensum strictly increases (Sec. III-B.1).
            total = sum(self.minors) + 1
            inc = -(-total // C.SPLIT_MAJOR_WEIGHT)  # ceil division
        else:
            inc = 1
        new_major = self.major + inc
        if new_major > _MAJOR_MAX:
            raise CounterOverflowError("64-bit major counter overflow")
        self.major = new_major
        self.minors = [0] * C.MINORS_PER_SPLIT_BLOCK
        after = self.gensum()
        if self.policy is OverflowPolicy.SKIP and after <= before:
            raise AssertionError(
                "skip update failed to keep gensum monotone "
                f"({before} -> {after})")
        return IncrementResult(gensum_delta=after - before,
                               minor_overflow=True)

    # ------------------------------------------------------ persistence
    def snapshot(self) -> Snapshot:
        return ("split", self.major, tuple(self.minors), self.policy.value)

    @classmethod
    def from_snapshot(cls, snap: Snapshot) -> "SplitCounterBlock":
        kind, major, minors, policy = snap
        if kind != "split":
            raise ValueError(f"not a split-block snapshot: {kind!r}")
        return cls(major, minors, OverflowPolicy(policy))

    def copy(self) -> "SplitCounterBlock":
        return SplitCounterBlock(self.major, self.minors, self.policy)

    # -------------------------------------------------- 64 B round-trip
    def to_packed(self) -> int:
        """Pack to the counter portion of a 64 B line (448 bits).

        Field ranges are enforced at every mutation, so the pack skips
        the per-field validation of :func:`pack_fields` (it runs once
        per node HMAC — the hottest loop of a simulation).
        """
        packed = self.major
        for m, sh in zip(self.minors, _MINOR_SHIFTS):
            packed |= m << sh
        return packed

    @classmethod
    def from_packed(cls, packed: int,
                    policy: OverflowPolicy = OverflowPolicy.SKIP
                    ) -> "SplitCounterBlock":
        fields = unpack_fields(_WIDTHS, packed)
        return cls(fields[0], fields[1:], policy)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, SplitCounterBlock)
                and self.major == other.major
                and self.minors == other.minors)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        nz = {i: m for i, m in enumerate(self.minors) if m}
        return f"SplitCounterBlock(major={self.major}, minors={nz})"
