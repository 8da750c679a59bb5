"""Fig. 17 — functional recoveries beside the analytic figure.

The figure itself is the analytic model (all-dirty cache, 100 ns per NVM
read-and-verify): ``python -m repro figure 17`` prints it, and
``repro figure 17 --check`` checks the published points (ASIT ~0.02 s,
STAR ~0.065 s, Steins-GC ~0.08 s, Steins-SC ~0.44 s at 4 MB) and their
ordering.  This module times the *real* recovery code on instrumented
scaled-down systems.  It checks only that each recovers at least one
node; it does not compare the measured reads with the model.
"""
import pytest

from benchmarks.conftest import save_and_show
from repro.analysis.figures import RECOVERABLE
from repro.common.config import small_config
from repro.common.rng import make_rng
from repro.sim.runner import make_system


@pytest.mark.parametrize("variant", RECOVERABLE)
def test_fig17_measured_recovery(benchmark, results_dir, variant):
    """Functional recovery on a dirtied scaled-down system."""
    def setup():
        system = make_system(variant, small_config(
            metadata_cache_bytes=8 * 1024))
        rng = make_rng(17, "fig17", variant)
        for addr in rng.integers(0, 40_000, 2500):
            system.store(int(addr), flush=True)
        system.crash()
        return (system,), {}

    def recover(system):
        return system.recover()

    report = benchmark.pedantic(recover, setup=setup, rounds=3)
    benchmark.extra_info.update({
        "nodes_recovered": report.nodes_recovered,
        "nvm_reads": report.nvm_reads,
        "modeled_time_us": round(report.time_ns / 1e3, 1),
    })
    assert report.nodes_recovered > 0


def test_fig17_scue_exclusion(benchmark, results_dir):
    """Why Fig. 17 omits SCUE: its rebuild scales with the data
    footprint, not the metadata cache.  Measured head-to-head on the
    same workload."""
    from repro.analysis.report import render_kv

    def run(variant):
        system = make_system(variant, small_config(
            metadata_cache_bytes=8 * 1024))
        rng = make_rng(18, "scue-vs", variant)
        for addr in rng.integers(0, 40_000, 2500):
            system.store(int(addr), flush=True)
        system.crash()
        return system.recover()

    def both():
        return run("steins-gc"), run("scue")

    r_steins, r_scue = benchmark.pedantic(both, rounds=1, iterations=1)
    pairs = {
        "steins-gc reads / time": f"{r_steins.nvm_reads} / "
                                  f"{r_steins.time_ns / 1e3:.0f}us",
        "scue reads / time": f"{r_scue.nvm_reads} / "
                             f"{r_scue.time_ns / 1e3:.0f}us",
        "scue tree rewrites": r_scue.nvm_writes,
        "scue / steins read ratio":
            f"{r_scue.nvm_reads / max(1, r_steins.nvm_reads):.1f}x "
            "(grows with data footprint; hour-scale at TB)",
    }
    table = render_kv("Fig. 17 addendum: measured SCUE exclusion", pairs)
    save_and_show(results_dir, "fig17_scue_exclusion", table)
    assert r_scue.nvm_reads > 2 * r_steins.nvm_reads
