"""Shared benchmark fixtures.

The paper's Figs. 9-17 are not benches: ``python -m repro figure``
prints them and ``make figure-check`` checks them.  The ablation benches
here scale via environment variables:

* ``REPRO_BENCH_ACCESSES``   — accesses per (scheme, workload) cell
  (default 30000, capped at 30000 by the benches that read it; the paper
  runs 2B instructions in Gem5).

Every bench writes its table to ``benchmarks/results/`` so the tables
are inspectable after the run without scraping pytest output.

Their cells run through ``repro.exec`` (docs/orchestration.md):

* ``REPRO_BENCH_JOBS``       — worker processes for the cell fan-out
  (default 0 = one per CPU core; results are identical at any count),
* ``REPRO_BENCH_CACHE``      — content-addressed result-cache directory;
  set it to skip re-simulating unchanged cells across bench runs
  (unset = no cache).
"""
from __future__ import annotations

import os
import pathlib
import sys

import pytest

sys.setrecursionlimit(100_000)

from repro.exec import ResultCache  # noqa: E402

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

ACCESSES = int(os.environ.get("REPRO_BENCH_ACCESSES", "30000"))
JOBS = int(os.environ.get("REPRO_BENCH_JOBS", "0")) or (os.cpu_count() or 1)
CACHE_DIR = os.environ.get("REPRO_BENCH_CACHE", "")


def bench_cache() -> ResultCache | None:
    return ResultCache(CACHE_DIR) if CACHE_DIR else None


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def save_and_show(results_dir: pathlib.Path, name: str, table: str) -> None:
    """Persist a rendered figure table and echo it to the terminal."""
    path = results_dir / f"{name}.txt"
    path.write_text(table + "\n")
    print(f"\n{table}\n[saved to {path}]")
