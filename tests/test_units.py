"""Unit-conversion helpers."""
import pytest

from repro.common import units


def test_pretty_size_exact_units():
    assert units.pretty_size(256 * 1024) == "256KB"
    assert units.pretty_size(16 * units.GB) == "16GB"
    assert units.pretty_size(64) == "64B"


def test_pretty_size_fractional():
    assert units.pretty_size(1536) == "1.50KB"


def test_pretty_size_rejects_negative():
    with pytest.raises(ValueError):
        units.pretty_size(-1)


def test_pretty_time_scales():
    assert units.pretty_time_ns(12.0) == "12.0ns"
    assert units.pretty_time_ns(4_400.0) == "4.400us"
    assert units.pretty_time_ns(2_500_000.0) == "2.500ms"
    assert units.pretty_time_ns(4.4e8).endswith("ms")
    assert units.pretty_time_ns(4.4e9) == "4.400s"
