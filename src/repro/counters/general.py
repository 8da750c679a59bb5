"""General counter block: eight 56-bit counters (paper Sec. II-B/III-B).

This is also the counter layout of every *intermediate* SIT node, so the
class is reused there.  ``gensum`` is Eq. (1): the plain sum of the eight
counters — each child write bumps exactly one counter by one, so the sum
is strictly monotone.
"""
from __future__ import annotations

from repro.common import constants as C
from repro.common.bitfield import unpack_fields
from repro.common.errors import CounterOverflowError
from repro.counters.base import IncrementResult, Snapshot

_WIDTHS = [C.GENERAL_COUNTER_BITS] * C.GENERAL_COUNTERS_PER_NODE
#: the outcome of every general-block bump that does not raise
_BUMPED = IncrementResult(gensum_delta=1)

# ``to_packed`` unrolls the pack over these eight 56-bit fields
assert C.GENERAL_COUNTERS_PER_NODE == 8 and C.GENERAL_COUNTER_BITS == 56


class GeneralCounterBlock:
    """Mutable working copy of a general counter block."""

    __slots__ = ("counters",)

    coverage = C.GENERAL_COUNTERS_PER_NODE

    def __init__(self, counters: list[int] | None = None) -> None:
        if counters is None:
            # all-zero block: trivially within range, skip validation
            self.counters = [0] * C.GENERAL_COUNTERS_PER_NODE
            return
        if len(counters) != C.GENERAL_COUNTERS_PER_NODE:
            raise ValueError(
                f"expected {C.GENERAL_COUNTERS_PER_NODE} counters, "
                f"got {len(counters)}")
        if min(counters) < 0 or max(counters) > C.GENERAL_COUNTER_MAX:
            for c in counters:  # name the first offender
                if not 0 <= c <= C.GENERAL_COUNTER_MAX:
                    raise CounterOverflowError(f"counter {c} exceeds 56 bits")
        self.counters = list(counters)

    # ---------------------------------------------------------- queries
    def counter(self, slot: int) -> int:
        return self.counters[slot]

    def gensum(self) -> int:
        """Eq. (1): Parent = C0 + C1 + ... + C7."""
        return sum(self.counters)

    # --------------------------------------------------------- mutation
    def increment(self, slot: int) -> IncrementResult:
        new = self.counters[slot] + 1
        if new > C.GENERAL_COUNTER_MAX:
            # ~685 years of continuous writes (paper Sec. III-B.2); treated
            # as a hard error prompting key rotation.
            raise CounterOverflowError(
                f"56-bit counter overflow in slot {slot}")
        self.counters[slot] = new
        return _BUMPED

    def set_counter(self, slot: int, value: int) -> None:
        """Direct assignment (used when a parent adopts a generated
        counter, or during recovery)."""
        if not 0 <= value <= C.GENERAL_COUNTER_MAX:
            raise CounterOverflowError(f"value {value} exceeds 56 bits")
        self.counters[slot] = value

    # ------------------------------------------------------ persistence
    def snapshot(self) -> Snapshot:
        return ("general", tuple(self.counters))

    @classmethod
    def from_snapshot(cls, snap: Snapshot) -> "GeneralCounterBlock":
        kind, counters = snap
        if kind != "general":
            raise ValueError(f"not a general-block snapshot: {kind!r}")
        return cls(counters)

    def copy(self) -> "GeneralCounterBlock":
        return GeneralCounterBlock(self.counters)

    # -------------------------------------------------- 64 B round-trip
    def to_packed(self) -> int:
        """Pack to the counter portion of a 64 B line (448 bits).

        Field ranges are enforced at every mutation, so the pack skips
        the per-field validation of :func:`pack_fields` (it runs once
        per node HMAC — the hottest loop of a simulation), and it is
        unrolled over the eight fields.
        """
        c0, c1, c2, c3, c4, c5, c6, c7 = self.counters
        return (c0 | c1 << 56 | c2 << 112 | c3 << 168 | c4 << 224
                | c5 << 280 | c6 << 336 | c7 << 392)

    @classmethod
    def from_packed(cls, packed: int) -> "GeneralCounterBlock":
        return cls(unpack_fields(_WIDTHS, packed))

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, GeneralCounterBlock)
                and self.counters == other.counters)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"GeneralCounterBlock({self.counters})"
