"""NVM address-space layout.

The device is organised into named regions.  Object granularity is one
64-byte line; within a region, lines are addressed by index.  Security
metadata (tree nodes) live in the *metadata region*, whose limited size is
what lets Steins use 4-byte offsets instead of 8-byte addresses for
dirty-node tracking (Sec. III-C).
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property

from repro.common.constants import OFFSETS_PER_RECORD_LINE
from repro.common.errors import LayoutError


class Region(enum.Enum):
    """Named NVM regions."""

    DATA = "data"          #: user data blocks (ciphertext, HMAC, echo)
    TREE = "tree"          #: SIT/BMT nodes — the "metadata region"
    RECORDS = "records"    #: Steins offset record lines
    SHADOW = "shadow"      #: ASIT shadow table
    BITMAP = "bitmap"      #: STAR multi-layer dirty bitmap

    # Members are singletons (equality is identity), so the id-based
    # object hash is consistent — and C-level, unlike Enum.__hash__,
    # which is a measurable cost when every NVM access keys a dict on
    # its region.
    __hash__ = object.__hash__


@dataclass(frozen=True)
class MemoryLayout:
    """Sizes (in lines) of each region for a given system configuration."""

    data_lines: int
    tree_lines: int
    record_lines: int
    shadow_lines: int
    bitmap_lines: int

    def __post_init__(self) -> None:
        for name in ("data_lines", "tree_lines", "record_lines",
                     "shadow_lines", "bitmap_lines"):
            if getattr(self, name) < 0:
                raise LayoutError(f"{name} must be non-negative")

    @cached_property
    def _limits(self) -> dict[Region, int]:
        """Per-region line counts, computed once (the layout is frozen)."""
        return {
            Region.DATA: self.data_lines,
            Region.TREE: self.tree_lines,
            Region.RECORDS: self.record_lines,
            Region.SHADOW: self.shadow_lines,
            Region.BITMAP: self.bitmap_lines,
        }

    @cached_property
    def _bases(self) -> dict[Region, int]:
        """Per-region base line addresses in enum declaration order."""
        bases: dict[Region, int] = {}
        base = 0
        for reg in Region:
            bases[reg] = base
            base += self._limits[reg]
        return bases

    def region_lines(self, region: Region) -> int:
        """Number of lines in ``region``."""
        try:
            return self._limits[region]
        except KeyError:
            raise LayoutError(f"unknown region {region!r}") from None

    def check(self, region: Region, index: int) -> None:
        """Validate a (region, index) pair; raises ``LayoutError``."""
        limit = self.region_lines(region)
        if not 0 <= index < limit:
            raise LayoutError(
                f"index {index} out of range for region {region.value} "
                f"(limit {limit})")

    def region_base(self, region: Region) -> int:
        """Base line address of ``region`` in the flat device space.

        Regions are laid out in enum declaration order; the flat address
        feeds the row-buffer model so that accesses to different regions
        land in different rows, as they would physically.
        """
        try:
            return self._bases[region]
        except KeyError:
            raise LayoutError(f"unknown region {region!r}") from None


def build_layout(data_lines: int, tree_lines: int,
                 metadata_cache_lines: int,
                 shadow_lines: int = 0,
                 bitmap_lines: int = 0) -> MemoryLayout:
    """Construct a layout.

    The record region has one 4-byte slot per metadata-cache line (a
    256 KB cache, 4096 lines, needs 4096 slots = 256 record lines = 16 KB,
    matching Table I).
    """
    record_lines = (metadata_cache_lines + OFFSETS_PER_RECORD_LINE - 1) \
        // OFFSETS_PER_RECORD_LINE
    return MemoryLayout(
        data_lines=data_lines,
        tree_lines=tree_lines,
        record_lines=record_lines,
        shadow_lines=shadow_lines,
        bitmap_lines=bitmap_lines,
    )
