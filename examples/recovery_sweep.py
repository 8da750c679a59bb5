#!/usr/bin/env python3
"""Recovery-time sweep — a runnable miniature of Fig. 17.

Two parts:

1. the analytic all-dirty model at the paper's cache sizes (256 KB-4 MB),
   reproducing the published numbers (ASIT ~0.02 s, STAR ~0.065 s,
   Steins-GC ~0.08 s, Steins-SC ~0.44 s at 4 MB), and
2. *measured* functional recoveries on scaled-down systems, showing the
   same ordering emerges from the actual recovery implementations.

Run:  python examples/recovery_sweep.py
"""
from repro.analysis.figures import RECOVERABLE, FigureHarness
from repro.analysis.recovery_model import scue_rebuild_estimate
from repro.analysis.report import render_table
from repro.common.config import small_config
from repro.common.rng import make_rng
from repro.common.units import GB, TB
from repro.sim.runner import make_system


def measured_recovery(variant: str, writes: int = 2500) -> dict:
    """Fill a small system with dirty metadata, crash, time the
    functional recovery by its actual NVM read count."""
    system = make_system(variant, small_config(
        metadata_cache_bytes=8 * 1024))
    rng = make_rng(17, "sweep", variant)
    for addr in rng.integers(0, 40_000, writes):
        system.store(int(addr), flush=True)
    dirty = system.controller.metacache.dirty_count()
    system.crash()
    report = system.recover()
    system.verify_all_persisted()
    return {"dirty_nodes": dirty, "nvm_reads": report.nvm_reads,
            "time_us": report.time_ns / 1e3}


def main() -> None:
    print("== analytic Fig. 17 (all-dirty cache, 100ns per read) ==")
    rows = FigureHarness().figure("17")
    print(render_table("recovery time (seconds) vs metadata cache size",
                       list(RECOVERABLE), rows, mean_row=False,
                       fmt="{:.4f}"))

    print("\n== SCUE-style full rebuild, for scale (why it is excluded) ==")
    print(f"  16 GB : {scue_rebuild_estimate(16 * GB):8.1f} s")
    print(f"  1 TB  : {scue_rebuild_estimate(1 * TB):8.1f} s")

    print("\n== measured functional recoveries (scaled-down systems) ==")
    print(f"  {'scheme':10s} {'dirty':>6s} {'NVM reads':>10s} "
          f"{'time':>10s}")
    measured = {}
    for variant in RECOVERABLE:
        m = measured_recovery(variant)
        measured[variant] = m
        print(f"  {variant:10s} {m['dirty_nodes']:6d} "
              f"{m['nvm_reads']:10d} {m['time_us']:9.1f}us")
    print("\nordering check (per-dirty-node cost):")
    per_node = {v: measured[v]["nvm_reads"]
                / max(1, measured[v]["dirty_nodes"])
                for v in ("star", "steins-gc", "steins-sc")}
    print(f"  STAR {per_node['star']:.1f} < Steins-GC "
          f"{per_node['steins-gc']:.1f} < Steins-SC "
          f"{per_node['steins-sc']:.1f} reads/node "
          "(ASIT scales with cache size instead)")


if __name__ == "__main__":
    main()
