"""Bit-level packing helpers for 64-byte metadata lines.

SIT nodes, split counter blocks, and offset record lines all have exact
bit-field layouts packed into 64-byte NVM lines.  The helpers here
operate on arbitrary-width little-endian fields packed into a single
Python int, which keeps the hot path allocation-free.
"""
from __future__ import annotations

from collections.abc import Sequence


def pack_fields(widths: Sequence[int], values: Sequence[int]) -> int:
    """Pack ``values`` into one int; ``values[0]`` occupies the lowest bits.

    Each value must fit in its declared width.  Raises ``ValueError`` on a
    width/value mismatch so layout bugs fail loudly instead of corrupting
    neighbouring fields.
    """
    if len(widths) != len(values):
        raise ValueError(f"{len(widths)} widths but {len(values)} values")
    packed = 0
    shift = 0
    for width, value in zip(widths, values):
        if width <= 0:
            raise ValueError(f"field width must be positive, got {width}")
        if not 0 <= value < (1 << width):
            raise ValueError(f"value {value} does not fit in {width} bits")
        packed |= value << shift
        shift += width
    return packed


def unpack_fields(widths: Sequence[int], packed: int) -> list[int]:
    """Inverse of :func:`pack_fields`."""
    values: list[int] = []
    shift = 0
    for width in widths:
        if width <= 0:
            raise ValueError(f"field width must be positive, got {width}")
        values.append((packed >> shift) & ((1 << width) - 1))
        shift += width
    return values


def mask(width: int) -> int:
    """All-ones mask of ``width`` bits."""
    if width < 0:
        raise ValueError(f"width must be non-negative, got {width}")
    return (1 << width) - 1
