"""Full-system integration: hierarchy + controller + NVM + reference model.

The strongest checks in the repository: every scheme must return exactly
the data that was written, through cache churn, crashes at arbitrary
points, and recovery — with the golden-state validation of
``repro.sim.crash`` asserted inside.
"""
import pytest

from repro.common.config import small_config
from repro.sim.crash import crash_and_recover, run_with_crash
from repro.sim.runner import VARIANTS, make_system, run_trace
from repro.schemes import scheme_names, variant_table
from repro.sim.system import SCHEMES, SecureNVMSystem, make_layout

RECOVERABLE = ("asit", "star", "scue", "steins-gc", "steins-sc",
               "phoenix", "secpm")
ALL_VARIANTS = tuple(VARIANTS)


def small_variant_system(variant: str) -> SecureNVMSystem:
    scheme, mode = VARIANTS[variant]
    return SecureNVMSystem(scheme, small_config(mode), check=True)


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_trace_roundtrip_and_verify(variant, small_trace):
    system = small_variant_system(variant)
    run_trace(system, small_trace, "pers_hash", flush_writes=True)
    assert system.verify_all_persisted() > 0


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_all_schemes_persist_identical_data(variant, small_trace):
    """Every scheme must expose the same architectural memory state."""
    reference = small_variant_system("wb-gc")
    run_trace(reference, small_trace, "pers_hash", flush_writes=True)
    system = small_variant_system(variant)
    run_trace(system, small_trace, "pers_hash", flush_writes=True)
    assert system.persisted == reference.persisted


@pytest.mark.parametrize("variant", RECOVERABLE)
@pytest.mark.parametrize("crash_at", [1, 600, 1700])
def test_crash_recover_continue(variant, crash_at, small_trace):
    system = small_variant_system(variant)
    report = run_with_crash(system, small_trace, crash_at=crash_at,
                            flush_writes=True)
    assert report.scheme in variant
    assert system.verify_all_persisted() > 0


@pytest.mark.parametrize("variant", RECOVERABLE)
def test_repeated_crashes(variant, small_trace):
    system = small_variant_system(variant)
    for i, (is_write, addr, gap) in enumerate(small_trace.head(1200)):
        system.advance(gap)
        if is_write:
            system.store(addr, flush=True)
        else:
            system.load(addr)
        if i in (200, 500, 900):
            crash_and_recover(system)
    system.verify_all_persisted()


def test_crash_rolls_back_unflushed_stores():
    system = small_variant_system("steins-gc")
    system.store(5)           # not flushed: volatile
    value_before = system.value_of(5)
    system.crash()
    system.recover()
    assert system.value_of(5) == system.persisted.get(5, 0)
    assert system.persisted.get(5) != value_before or \
        system.persisted.get(5) is None


def test_flushed_stores_survive_crash():
    system = small_variant_system("steins-gc")
    system.store(5, flush=True)
    value = system.persisted[5]
    crash_and_recover(system)
    system.load(5)
    assert system.value_of(5) == value


def test_layout_covers_all_regions():
    cfg = small_config()
    layout = make_layout(cfg)
    assert layout.data_lines == cfg.num_data_blocks
    assert layout.tree_lines > 0
    assert layout.shadow_lines == cfg.security.metadata_cache.num_lines
    assert layout.bitmap_lines >= 1
    assert layout.record_lines >= 1


def test_unknown_scheme_rejected():
    from repro.common.errors import ConfigError
    with pytest.raises(ConfigError):
        SecureNVMSystem("bogus", small_config())
    with pytest.raises(ConfigError):
        make_system("bogus-variant")


def test_schemes_registry():
    assert set(SCHEMES) == {"wb", "asit", "star", "steins", "scue",
                            "phoenix", "secpm"}
    assert set(VARIANTS) == {"wb-gc", "wb-sc", "asit", "star", "scue",
                             "steins-gc", "steins-sc", "phoenix", "secpm"}
    # the sim-facing tables are registry views, not separate sources
    assert set(SCHEMES) == set(scheme_names())
    assert VARIANTS == variant_table()


def test_llc_absorbs_repeated_hits(make_small_system):
    system = make_small_system("wb")
    system.load(0)
    reads_after_first = system.controller.stats.data_reads
    for _ in range(10):
        system.load(0)
    assert system.controller.stats.data_reads == reads_after_first


def test_result_metrics_populated(make_small_system, small_trace):
    system = make_small_system("steins")
    result = run_trace(system, small_trace, "pers_hash", flush_writes=True)
    assert result.exec_time_ns > 0
    assert result.data_writes > 0
    assert result.avg_write_latency_ns > 0
    assert result.nvm_write_traffic > 0
    assert result.energy_nj > 0
    assert 0 < result.metadata_cache_hit_rate <= 1
    d = result.as_dict()
    assert d["scheme"] == "steins"


def test_store_then_load_same_value(make_small_system):
    system = make_small_system("star")
    system.store(42, flush=True)
    expected = system.value_of(42)
    # force the line out of the hierarchy so the load hits the controller
    system.hierarchy.clear()
    system.load(42)
    assert system.value_of(42) == expected
