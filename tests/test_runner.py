"""Runner/harness plumbing: variants, specs, cell reproducibility."""
import pytest

from repro.analysis.figures import FigureHarness, figure_config
from repro.common.config import CounterMode, small_config
from repro.common.errors import ConfigError
from repro.sim.runner import (
    GC_VARIANTS,
    SC_VARIANTS,
    VARIANTS,
    RunSpec,
    make_system,
    run_cell,
)


def test_variant_table_matches_paper_naming():
    assert VARIANTS["wb-gc"] == ("wb", CounterMode.GENERAL)
    assert VARIANTS["steins-sc"] == ("steins", CounterMode.SPLIT)
    # the paper evaluates ASIT and STAR with general counters only
    assert VARIANTS["asit"][1] is CounterMode.GENERAL
    assert VARIANTS["star"][1] is CounterMode.GENERAL
    # figure variant lists match the paper's figure groupings
    assert GC_VARIANTS[0] == "wb-gc" and "steins-gc" in GC_VARIANTS
    assert SC_VARIANTS[0] == "wb-sc" and "steins-sc" in SC_VARIANTS
    assert "scue" not in GC_VARIANTS  # excluded from figures, as in paper


def test_make_system_applies_counter_mode():
    system = make_system("steins-sc", small_config())
    assert system.cfg.security.counter_mode is CounterMode.SPLIT
    assert system.controller.geometry.leaf_coverage == 64


def test_make_system_rejects_unknown():
    with pytest.raises(ConfigError):
        make_system("steins-xx")


def test_run_cell_is_deterministic():
    spec = RunSpec("steins-gc", "cactusADM", accesses=1200,
                   footprint_blocks=2048, seed=77)
    cfg = small_config()
    a = run_cell(spec, cfg)
    b = run_cell(spec, cfg)
    assert a.exec_time_ns == b.exec_time_ns
    assert a.nvm_write_traffic == b.nvm_write_traffic
    assert a.energy_nj == b.energy_nj


def test_run_cell_seed_sensitivity():
    cfg = small_config()
    a = run_cell(RunSpec("wb-gc", "cactusADM", accesses=1200,
                         footprint_blocks=2048, seed=1), cfg)
    b = run_cell(RunSpec("wb-gc", "cactusADM", accesses=1200,
                         footprint_blocks=2048, seed=2), cfg)
    assert a.exec_time_ns != b.exec_time_ns


def test_persistent_workloads_flush(small_trace):
    cfg = small_config()
    # pers_hash is persistent: every store reaches the controller
    result = run_cell(RunSpec("wb-gc", "pers_hash", accesses=1500,
                              footprint_blocks=2048), cfg)
    assert result.data_writes > 0
    # a non-persistent workload of the same length may or may not write,
    # but never writes *more* than its store count
    assert result.data_writes <= 1500


def test_harness_respects_workload_subset():
    harness = FigureHarness(accesses=500, footprint_blocks=512,
                            workloads=("pers_swap",),
                            cfg=small_config())
    rows = harness.figure("9")
    assert list(rows) == ["pers_swap"]
    assert set(rows["pers_swap"]) == set(GC_VARIANTS)


def test_figure_config_structure():
    cfg = figure_config()
    # security side stays at Table I
    assert cfg.security.metadata_cache.size_bytes == 256 * 1024
    assert cfg.nvm_capacity_bytes == 16 * (1 << 30)
    # CPU side is scaled for steady state
    assert cfg.hierarchy.l3.size_bytes == 512 * 1024


def test_normalization_math():
    cfg = small_config()
    base = run_cell(RunSpec("wb-gc", "pers_swap", accesses=1000,
                            footprint_blocks=1024), cfg)
    norm = base.normalized_to(base)
    for key in ("exec_time", "write_latency", "read_latency",
                "write_traffic", "energy"):
        assert norm[key] == pytest.approx(1.0)
