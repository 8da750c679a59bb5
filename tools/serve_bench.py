"""Parallel-sweep smoke bench (``make serve-smoke``).

Runs a figure batch and an oracle batch on both front ends of the one
worker-crew scheduler: a local ``run_sweep(specs, jobs=2)``, then the
real ``repro serve`` CLI booted as a subprocess.  It pins their
acceptance properties:

* the local crew report and the distributed report are
  **byte-identical** to a serial ``run_sweep`` of the same specs (the
  service's cold and warm);
* the warm rerun recomputes **zero** cells (every one answered from the
  shared content-addressed cache);
* duplicate specs in one batch are computed once (in-flight dedup).

Then writes throughput numbers to ``BENCH_sweep.json``: the local crew
time, service cells per second cold and warm, the warm cache hit rate,
and the worker count.
Exits non-zero on any mismatch, warm recompute, or service failure.

Usage::

    PYTHONPATH=src python tools/serve_bench.py [out.json [cache-dir]]
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

WORKERS = 2

# figure batch: a small sim matrix (two GC variants, two workloads)
SIM = dict(accesses=1200, footprint=4096, seed=2024)
SIM_VARIANTS = ("steins-gc", "wb-gc")
SIM_WORKLOADS = ("pers_hash", "pers_swap")

# oracle batch: the differential suite's own deterministic case plan
ORACLE = dict(accesses=300, footprint=1024, seed=1)
ORACLE_SCHEMES = ["steins"]
ORACLE_WORKLOADS = ["pers_hash"]


def build_batch():
    from repro.analysis.figures import figure_config
    from repro.common.config import small_config
    from repro.exec import CellSpec, config_to_dict
    from repro.explore.explorer import CellBatcher
    from repro.oracle.sweep import build_suite

    fig_cfg = config_to_dict(figure_config())
    specs = [CellSpec("sim", v, w, SIM["accesses"], SIM["footprint"],
                      SIM["seed"], config=fig_cfg)
             for v in SIM_VARIANTS for w in SIM_WORKLOADS]
    # the suite's probe cells (planned here in-process) plus the case
    # cells planned from them: both explore-cell modes cross the socket
    batch = CellBatcher(cfg=small_config(metadata_cache_bytes=2048),
                        **ORACLE)
    pairs = [(s, w) for s in ORACLE_SCHEMES for w in ORACLE_WORKLOADS]
    probe_cells = [(s, w, {"mode": "probe"}) for s, w in pairs]
    probes = dict(zip(pairs, batch.sweep(probe_cells)))
    specs += batch.specs(probe_cells + build_suite(
        ORACLE_SCHEMES, ORACLE_WORKLOADS, probes))
    # a duplicate of the first cell exercises in-flight dedup
    specs.append(specs[0])
    return specs


def fingerprints(report) -> list[str]:
    return [json.dumps(v.to_json(), sort_keys=True)
            for v in report.values]


def start_service(sock: str, cache_dir: str) -> subprocess.Popen:
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--socket", sock,
         "--workers", str(WORKERS), "--cache-dir", cache_dir])
    deadline = time.monotonic() + 30.0
    while not os.path.exists(sock):
        if proc.poll() is not None or time.monotonic() > deadline:
            raise RuntimeError("repro serve never bound its socket")
        time.sleep(0.05)
    return proc


def main(argv: list[str]) -> int:
    out_path = argv[1] if len(argv) > 1 else "BENCH_sweep.json"
    cache_dir = argv[2] if len(argv) > 2 else None
    scratch = tempfile.mkdtemp(prefix="serve-bench-")
    if cache_dir is None:
        cache_dir = os.path.join(scratch, "cache")

    from repro.exec import cell_key, run_sweep
    from repro.serve.client import ServiceClient

    specs = build_batch()
    unique = len({cell_key(s) for s in specs})

    t0 = time.perf_counter()
    serial = run_sweep(specs)
    serial_s = time.perf_counter() - t0
    serial_doc = fingerprints(serial)

    failures: list[str] = []
    t0 = time.perf_counter()
    local = run_sweep(specs, jobs=WORKERS)
    local_s = time.perf_counter() - t0
    if fingerprints(local) != serial_doc:
        failures.append(f"jobs={WORKERS} local report != serial report")

    sock = os.path.join(scratch, "svc.sock")
    proc = start_service(sock, cache_dir)
    try:
        client = ServiceClient(sock)
        if not client.ping():
            failures.append("service did not answer ping")

        t0 = time.perf_counter()
        cold = run_sweep(specs, service=sock)
        cold_s = time.perf_counter() - t0
        if fingerprints(cold) != serial_doc:
            failures.append("cold distributed report != serial report")
        if cold.deduped < 1:
            failures.append("duplicate spec was not deduped in flight")

        t0 = time.perf_counter()
        warm = run_sweep(specs, service=sock)
        warm_s = time.perf_counter() - t0
        if fingerprints(warm) != serial_doc:
            failures.append("warm distributed report != serial report")
        if warm.executed != 0:
            failures.append(
                f"warm rerun recomputed {warm.executed} cells")

        metrics = client.stats()["metrics"]
        executed = metrics["serve.cells.executed"]["value"]
        client.shutdown()
        proc.wait(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)
        shutil.rmtree(scratch, ignore_errors=True)

    total = len(specs)
    bench = {
        "workers": WORKERS,
        "cells": total,
        "unique_cells": unique,
        "executed_on_service": executed,
        "serial_seconds": round(serial_s, 3),
        "local_crew_seconds": round(local_s, 3),
        "cold_seconds": round(cold_s, 3),
        "warm_seconds": round(warm_s, 3),
        "cells_per_sec_cold": round(total / cold_s, 2) if cold_s
        else 0.0,
        "cells_per_sec_warm": round(total / warm_s, 2) if warm_s
        else 0.0,
        "cache_hit_rate": round(warm.cached / total, 4) if total
        else 0.0,
        "deduped": cold.deduped,
        "ok": not failures,
    }
    with open(out_path, "w") as fh:
        json.dump(bench, fh, indent=2, sort_keys=True)
        fh.write("\n")

    print(f"bench: {total} cells ({unique} unique) on {WORKERS} "
          f"workers: cold {bench['cells_per_sec_cold']}/s, warm "
          f"{bench['cells_per_sec_warm']}/s, hit rate "
          f"{bench['cache_hit_rate']} -> {out_path}")
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
