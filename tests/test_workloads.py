"""Workload generators: determinism, shapes, paper workload set."""
import numpy as np
import pytest

from repro.common.errors import ConfigError
from repro.workloads import (
    ALL_PROFILES,
    PAPER_WORKLOADS,
    TraceArrays,
    concat,
    get_profile,
    interleave,
)
from repro.workloads import synthetic as syn
from repro.common.rng import make_rng


def test_paper_workload_set():
    """Eight SPEC-like benchmarks plus the two STAR persistent ones."""
    assert len(PAPER_WORKLOADS) == 10
    assert set(PAPER_WORKLOADS) <= set(ALL_PROFILES)
    persistent = [w for w in PAPER_WORKLOADS
                  if ALL_PROFILES[w].persistent]
    assert sorted(persistent) == ["pers_hash", "pers_swap"]


@pytest.mark.parametrize("name", PAPER_WORKLOADS)
def test_generation_is_deterministic(name):
    profile = get_profile(name)
    a = profile.generate(seed=5, n=2000, footprint=4096)
    b = profile.generate(seed=5, n=2000, footprint=4096)
    assert np.array_equal(a.address, b.address)
    assert np.array_equal(a.is_write, b.is_write)
    assert np.array_equal(a.gap_cycles, b.gap_cycles)
    c = profile.generate(seed=6, n=2000, footprint=4096)
    # a different seed must change *something* (pure sequential sweeps
    # keep their addresses but reshuffle write flags and gaps)
    assert not (np.array_equal(a.address, c.address)
                and np.array_equal(a.is_write, c.is_write)
                and np.array_equal(a.gap_cycles, c.gap_cycles))


@pytest.mark.parametrize("name", PAPER_WORKLOADS)
def test_addresses_within_scaled_footprint(name):
    profile = get_profile(name)
    trace = profile.generate(seed=1, n=3000, footprint=4096)
    limit = max(64, int(4096 * profile.footprint_mult))
    assert trace.address.min() >= 0
    assert trace.address.max() < limit
    assert len(trace) > 0


def test_write_fractions_match_characters():
    def gen(n):
        return get_profile(n).generate(1, 4000, 4096).write_fraction
    assert gen("libquantum") < 0.25          # streaming reads
    assert gen("cactusADM") > 0.35           # write-heavy stencils
    assert gen("pers_swap") == pytest.approx(0.5)   # RMW pairs
    assert gen("pers_hash") > 0.5            # insert-dominated


def test_sequential_wraps():
    t = syn.sequential(1, 100, base=10, footprint=30)
    assert set(t.address) <= set(range(10, 40))
    assert t.address[0] == 10 and t.address[30] == 10


def test_strided_pattern():
    t = syn.strided(1, 10, base=0, footprint=100, stride=7)
    assert list(t.address[:3]) == [0, 7, 14]


def test_zipf_is_skewed():
    t = syn.zipf(1, 5000, 0, 1000, skew=1.5)
    _, counts = np.unique(t.address, return_counts=True)
    # the hottest block must absorb far more than the uniform share
    assert counts.max() > 5 * (5000 / 1000)


def test_pointer_chase_visits_distinct_blocks():
    t = syn.pointer_chase(1, 64, 0, 64)
    assert len(set(t.address.tolist())) == 64  # full permutation cycle


def test_generator_validation():
    with pytest.raises(ConfigError):
        syn.sequential(1, 0, 0, 10)
    with pytest.raises(ConfigError):
        syn.strided(1, 10, 0, 10, stride=0)
    with pytest.raises(ConfigError):
        syn.zipf(1, 10, 0, 10, skew=1.0)
    with pytest.raises(ConfigError):
        syn.sequential(1, 10, 0, 10, write_frac=1.5)
    with pytest.raises(ConfigError):
        syn.sequential(1, 10, 0, 10, gap_mean=-1)


def test_trace_helpers():
    a = syn.sequential(1, 50, 0, 10)
    b = syn.sequential(2, 50, 100, 10)
    joined = concat([a, b])
    assert len(joined) == 100
    mixed = interleave([a, b], chunk=10, rng=make_rng(3, "ix"))
    assert len(mixed) == 100
    assert set(mixed.address.tolist()) == \
        set(a.address.tolist()) | set(b.address.tolist())
    head = joined[:7]
    assert len(head) == 7
    tail = joined[93:]
    assert tail.address.tolist() == joined.address.tolist()[93:]
    with pytest.raises(TypeError, match="slices"):
        joined[3]


def test_trace_validation():
    with pytest.raises(ConfigError):
        TraceArrays(np.array([True]), np.array([1, 2]), np.array([0]))
    with pytest.raises(ConfigError):
        concat([])
    with pytest.raises(ConfigError):
        interleave([syn.sequential(1, 10, 0, 10)], chunk=0,
                   rng=make_rng(1))


def test_unknown_profile_helpful_error():
    with pytest.raises(KeyError, match="available"):
        get_profile("nope")


def test_footprint_property():
    t = syn.sequential(1, 100, 0, 10)
    assert t.footprint_blocks == 10
