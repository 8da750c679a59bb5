"""The oracle's self-test: every seeded mutant must be caught.

Each mutant plants one representative bug per claimed detection class
and runs on the crash engine under the plan
:func:`~repro.oracle.sweep.mutant_plans_for` derives from its declared
``crash``; an outcome outside ``CAUGHT_OUTCOMES`` would mean the
differential oracle passes a controller with a known bug — the one
result these tests forbid, on every scheme each mutant declares.
"""
import pytest

from repro.common.config import small_config
from repro.common.errors import ConfigError
from repro.explore.runner import CAUGHT_OUTCOMES, run_explore_cell, run_probe
from repro.oracle.mutants import MUTANTS
from repro.oracle.sweep import mutant_plans_for
from repro.sim.system import SCHEMES
from repro.workloads import get_profile

CASES = [(name, scheme) for name, m in sorted(MUTANTS.items())
         for scheme in m.schemes]


@pytest.fixture(scope="module")
def cfg():
    return small_config(metadata_cache_bytes=2048)


@pytest.fixture(scope="module")
def trace():
    return get_profile("pers_hash").generate(seed=2024, n=250,
                                             footprint=2048)


@pytest.fixture(scope="module")
def plans(cfg, trace):
    """Every scheme's mutant plans, keyed ``(mutant, scheme)``."""
    out = {}
    for scheme in sorted({s for _, s in CASES}):
        probe = run_probe(scheme, cfg, trace)
        for plan in mutant_plans_for(scheme, probe, len(trace)):
            out[plan["mutant"], scheme] = plan
    return out


def case_of(scheme, plan, cfg, trace):
    return run_explore_cell(scheme, plan, cfg, trace)["case"]


def test_registry_is_well_formed():
    for name, mutant in MUTANTS.items():
        assert mutant.name == name
        assert mutant.description and mutant.catches
        assert mutant.schemes, f"{name} asserts nothing"
        assert set(mutant.schemes) <= set(SCHEMES)
        assert mutant.crash in (None, "shutdown", "unflushed")


@pytest.mark.parametrize("name,scheme", CASES)
def test_every_mutant_is_caught(name, scheme, cfg, trace, plans):
    result = case_of(scheme, plans[name, scheme], cfg, trace)
    assert result["outcome"] in CAUGHT_OUTCOMES, (
        f"mutant {name!r} escaped the oracle on {scheme}: "
        f"{result['outcome']} {result['detail']}")


def test_writethrough_bug_needs_the_unflushed_crash(cfg, trace, plans):
    """A graceful flush heals the dropped write-throughs; the unflushed
    plan loses power at the flush's first fire, before any dirty node
    persists, and the leaf-sum audit catches the bug."""
    unflushed = plans["skip-writethrough", "secpm"]
    assert "crash_after" in unflushed
    result = case_of("secpm", unflushed, cfg, trace)
    assert result["crash_point"] == "controller.flush"
    assert result["outcome"] in CAUGHT_OUTCOMES
    shutdown = {k: v for k, v in unflushed.items() if k != "crash_after"}
    assert case_of("secpm", shutdown, cfg, trace)["outcome"] == "match"


def test_unpatched_controller_still_matches(cfg, trace):
    """The self-test's control arm: with no mutant the same flow passes,
    so the catches above are attributable to the planted bugs."""
    from repro.explore.runner import run_clean
    result = run_clean("steins", cfg, trace)
    assert result.outcome == "match"


def test_unknown_mutant_rejected(cfg, trace):
    with pytest.raises(ConfigError):
        run_explore_cell("steins", {"mode": "clean",
                                    "mutant": "off-by-one-everywhere"},
                         cfg, trace)
