"""The oracle's self-test: every seeded mutant must be caught.

``run_mutant_case`` plants one representative bug per claimed detection
class; an outcome of ``match`` would mean the differential oracle
passes a controller with a known bug — the one result these tests
forbid, on every scheme each mutant declares.
"""
import pytest

from repro.common.config import small_config
from repro.common.errors import ConfigError
from repro.oracle.mutants import MUTANTS, run_mutant_case
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


def test_registry_is_well_formed():
    for name, mutant in MUTANTS.items():
        assert mutant.name == name
        assert mutant.description and mutant.catches
        assert mutant.schemes, f"{name} asserts nothing"
        assert set(mutant.schemes) <= set(SCHEMES)


@pytest.mark.parametrize("name,scheme", CASES)
def test_every_mutant_is_caught(name, scheme, cfg, trace):
    result = run_mutant_case(name, scheme, trace, cfg)
    assert result.outcome != "match", (
        f"mutant {name!r} escaped the oracle on {scheme}")


def test_unpatched_controller_still_matches(cfg, trace):
    """The self-test's control arm: with no mutant the same flow passes,
    so the catches above are attributable to the planted bugs."""
    from repro.explore.runner import run_clean
    result = run_clean("steins", cfg, trace)
    assert result.outcome == "match"


def test_unknown_mutant_rejected(cfg, trace):
    with pytest.raises(ConfigError):
        run_mutant_case("off-by-one-everywhere", "steins", trace, cfg)
