"""Configuration defaults mirror the paper's Table I; invalid configs fail."""
import pytest

from repro.common.config import (
    CacheConfig,
    ConfigError,
    CounterMode,
    SystemConfig,
    default_config,
    small_config,
)
from repro.common.units import GB, KB, MB


def test_table1_defaults():
    cfg = default_config()
    assert cfg.nvm_capacity_bytes == 16 * GB
    assert cfg.clock_ghz == 2.0
    assert cfg.hierarchy.l1.size_bytes == 32 * KB
    assert cfg.hierarchy.l2.size_bytes == 512 * KB
    assert cfg.hierarchy.l3.size_bytes == 2 * MB
    assert cfg.nvm.trcd_ns == 48.0
    assert cfg.nvm.tcl_ns == 15.0
    assert cfg.nvm.tcwd_ns == 13.0
    assert cfg.nvm.tfaw_ns == 50.0
    assert cfg.nvm.twtr_ns == 7.5
    assert cfg.nvm.twr_ns == 300.0
    assert cfg.nvm.write_queue_entries == 64
    assert cfg.security.metadata_cache.size_bytes == 256 * KB
    assert cfg.security.metadata_cache.ways == 8
    assert cfg.security.hash_cycles == 40
    assert cfg.security.nv_buffer_entries == 8
    assert cfg.security.record_cache_lines == 16


def test_hash_latency_is_20ns_at_2ghz():
    assert default_config().hash_latency_ns == pytest.approx(20.0)


def test_cache_geometry():
    cc = CacheConfig(256 * KB, 8)
    assert cc.num_lines == 4096
    assert cc.num_sets == 512


def test_cache_geometry_validation():
    with pytest.raises(ConfigError):
        CacheConfig(1000, 8)   # not divisible
    with pytest.raises(ConfigError):
        CacheConfig(0, 8)
    with pytest.raises(ConfigError):
        CacheConfig(64 * KB, 0)


def test_counter_mode_switch():
    cfg = default_config().with_counter_mode(CounterMode.SPLIT)
    assert cfg.security.counter_mode is CounterMode.SPLIT
    assert cfg.security.leaf_coverage == 64
    assert default_config().security.leaf_coverage == 8


def test_with_metadata_cache():
    cfg = default_config().with_metadata_cache(4 * MB)
    assert cfg.security.metadata_cache.size_bytes == 4 * MB
    # original untouched (frozen dataclasses)
    assert default_config().security.metadata_cache.size_bytes == 256 * KB


def test_num_data_blocks():
    assert default_config().num_data_blocks == 16 * GB // 64


def test_invalid_system_config():
    with pytest.raises(ConfigError):
        SystemConfig(nvm_capacity_bytes=0)
    with pytest.raises(ConfigError):
        SystemConfig(nvm_capacity_bytes=100)  # not line aligned
    with pytest.raises(ConfigError):
        SystemConfig(clock_ghz=0)


def test_small_config_keeps_structure():
    cfg = small_config()
    assert cfg.security.metadata_cache.ways == 8
    assert cfg.nvm_capacity_bytes < default_config().nvm_capacity_bytes
    assert cfg.security.metadata_cache.num_lines >= 64


def test_root_arity_validation():
    from dataclasses import replace
    cfg = default_config()
    with pytest.raises(ConfigError):
        replace(cfg.security, root_arity=4)


def test_nvm_timing_validation():
    from dataclasses import replace
    nvm = default_config().nvm
    with pytest.raises(ConfigError):
        replace(nvm, write_queue_entries=0)
    with pytest.raises(ConfigError):
        replace(nvm, bank_parallelism=0)
    with pytest.raises(ConfigError):
        replace(nvm, twr_ns=-1.0)


def test_derived_nvm_latencies():
    nvm = default_config().nvm
    assert nvm.read_miss_ps == 63_000   # tRCD + tCL
    assert nvm.write_ps == 300_000
    assert nvm.read_hit_ps < nvm.read_miss_ps
