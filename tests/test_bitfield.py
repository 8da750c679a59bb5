"""Bit-field packing round-trips for the 64-byte line layouts."""
import pytest

from repro.common import bitfield as bf
from repro.common import constants as C


def test_pack_unpack_roundtrip():
    widths = [56] * 8
    values = [0, 1, 2**56 - 1, 42, 7, 0, 1234567, 2**55]
    packed = bf.pack_fields(widths, values)
    assert bf.unpack_fields(widths, packed) == values


def test_pack_rejects_overflowing_value():
    with pytest.raises(ValueError):
        bf.pack_fields([4], [16])
    with pytest.raises(ValueError):
        bf.pack_fields([8], [-1])


def test_pack_rejects_length_mismatch():
    with pytest.raises(ValueError):
        bf.pack_fields([8, 8], [1])


def test_pack_rejects_bad_width():
    with pytest.raises(ValueError):
        bf.pack_fields([0], [0])
    with pytest.raises(ValueError):
        bf.unpack_fields([-1], 0)


def test_field_order_is_low_bits_first():
    packed = bf.pack_fields([4, 4], [0xA, 0xB])
    assert packed == 0xBA


def test_mask():
    assert bf.mask(0) == 0
    assert bf.mask(6) == 63
    assert bf.mask(56) == C.GENERAL_COUNTER_MAX
    with pytest.raises(ValueError):
        bf.mask(-1)
