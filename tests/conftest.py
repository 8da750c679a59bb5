"""Shared fixtures: scaled-down systems that exercise every code path
(evictions, recursion up the tree, record-line pressure) in milliseconds.

Also home of the hypothesis profiles (docs/testing.md):

``ci``    deterministic replay — derandomized, no local example
          database, failure blobs printed for reproduction; what the
          CI jobs pin via ``HYPOTHESIS_PROFILE=ci``
``dev``   the default: baseline example counts, no deadline flake
``deep``  nightly soak — 10x the examples everywhere

Property suites size each test relative to the active profile through
:func:`scaled` instead of hard-coding ``max_examples``, so ``deep``
actually searches harder rather than being capped by inline settings.
"""
from __future__ import annotations

import os
import sys

import pytest
from hypothesis import HealthCheck, settings

# the controllers raise this at construction time anyway; doing it up
# front keeps hypothesis from warning about a mid-test change
sys.setrecursionlimit(100_000)

settings.register_profile(
    "ci", derandomize=True, database=None, deadline=None, print_blob=True)
settings.register_profile("dev", deadline=None)
settings.register_profile(
    "deep", max_examples=1000, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])

_PROFILE = os.environ.get("HYPOTHESIS_PROFILE", "dev")
settings.load_profile(_PROFILE)

_EXAMPLE_SCALE = {"deep": 10}


def scaled(base_examples: int) -> int:
    """Per-test ``max_examples`` under the active hypothesis profile."""
    return base_examples * _EXAMPLE_SCALE.get(_PROFILE, 1)


from repro.common.config import CounterMode, small_config
from repro.sim.system import SecureNVMSystem
from repro.workloads import get_profile


@pytest.fixture
def gc_config():
    """Small general-counter configuration."""
    return small_config(CounterMode.GENERAL)


@pytest.fixture
def sc_config():
    """Small split-counter configuration."""
    return small_config(CounterMode.SPLIT)


@pytest.fixture
def make_small_system():
    """Factory: scheme name (+ optional counter mode) -> wired system."""
    def factory(scheme: str, mode: CounterMode = CounterMode.GENERAL,
                **cfg_kwargs) -> SecureNVMSystem:
        cfg = small_config(mode, **cfg_kwargs)
        return SecureNVMSystem(scheme, cfg)
    return factory


@pytest.fixture
def small_trace():
    """A mixed read/write trace sized for the small config."""
    return get_profile("pers_hash").generate(seed=11, n=2400, footprint=4096)


def drive(system: SecureNVMSystem, trace, flush_writes: bool = True,
          limit: int | None = None) -> None:
    """Drive a trace through a system (tests import this helper)."""
    for i, (is_write, addr, gap) in enumerate(trace):
        if limit is not None and i >= limit:
            break
        system.advance(gap)
        if is_write:
            system.store(addr, flush=flush_writes)
        else:
            system.load(addr)
