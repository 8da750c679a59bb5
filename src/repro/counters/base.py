"""Common interface for 64-byte counter blocks.

Counter blocks are the leaves of the SIT: they hold the CME write
counters for the data blocks they cover.  Two organisations exist
(Sec. II-B, III-B): the *general* block (8 x 56-bit counters, covers 8
data blocks) and the *split* block (64-bit major + 64 x 6-bit minors,
covers 64 data blocks).  Both expose:

* ``counter(slot)``     — the encryption counter for a covered block,
* ``increment(slot)``   — bump it for a write (returns overflow info),
* ``gensum()``          — Steins' generated parent counter (Eq. 1 / 2),
* ``snapshot()``        — an immutable persistable image,
* packed 64-bit-field serialization round-tripping to a 64 B line.
"""
from __future__ import annotations

from typing import Any, NamedTuple, Protocol

#: An immutable persistable image of a counter block: a tagged tuple
#: (kind, *fields) whose exact layout is private to the block kind
#: that produced it — only ``from_snapshot`` of the same kind reads it.
Snapshot = tuple[Any, ...]


class IncrementResult(NamedTuple):
    """Outcome of bumping one covered block's counter.

    Immutable, so a block may hand out one shared instance for its
    common outcome (a plain general-block bump) instead of building one
    per write.
    """

    #: Steins generated-counter delta: gensum(after) - gensum(before).
    gensum_delta: int
    #: True if a minor counter overflowed (split blocks only): all minors
    #: were reset and every covered block must be re-encrypted.
    minor_overflow: bool = False
    #: True if the major (or a general 56-bit) counter overflowed: the
    #: paper's corner case requiring key rotation / write-through.
    major_overflow: bool = False


class CounterBlock(Protocol):
    """Structural interface shared by general and split blocks."""

    @property
    def coverage(self) -> int:
        """Number of data blocks this block covers."""
        ...

    def counter(self, slot: int) -> int:
        """Encryption counter value for covered block ``slot``."""
        ...

    def increment(self, slot: int) -> IncrementResult:
        """Bump the counter for ``slot`` (one data write)."""
        ...

    def gensum(self) -> int:
        """Steins' generated parent counter for this block."""
        ...

    def snapshot(self) -> Snapshot:
        """Immutable image for persistence into NVM."""
        ...
