"""``repro.exec`` — sweep orchestration with a content-addressed cache.

A *sweep* is a deterministic list of :class:`~repro.exec.spec.CellSpec`
values, each describing one independent simulation cell (a figure-matrix
run, an oracle case, or a crash-engine probe or case) completely:
variant, workload, trace length, seed, full system configuration, and —
for oracle and explore cells — the case plan.
:func:`~repro.exec.pool.run_sweep` fans the cells out over a
``multiprocessing`` worker pool and returns results in spec order, so
parallel and serial executions are bitwise identical.

Completed cells persist in a :class:`~repro.exec.cache.ResultCache`
keyed by a stable SHA-256 of the spec plus a code-version tag
(:func:`~repro.exec.spec.cell_key`); a warm sweep re-simulates nothing.

This is the only package allowed to import ``multiprocessing`` /
``concurrent.futures`` (simlint SL501): centralizing process fan-out
keeps determinism and fault-plan arming auditable in one place.

See ``docs/orchestration.md`` for the sweep model, the cache-key
anatomy, and the determinism guarantees.
"""
from repro.exec.cache import (
    CacheBackend,
    LocalDirBackend,
    MemoryBackend,
    RemoteBackend,
    ResultCache,
)
from repro.exec.configio import config_from_dict, config_to_dict
from repro.exec.pool import (
    CellOutcome,
    SweepReport,
    decode_payload,
    execute_cell,
    run_sweep,
)
from repro.exec.spec import CACHE_SCHEMA, CellSpec, cell_key, code_version_tag
from repro.exec.workers import WorkerCrew

__all__ = [
    "CACHE_SCHEMA",
    "CacheBackend",
    "CellOutcome",
    "CellSpec",
    "LocalDirBackend",
    "MemoryBackend",
    "RemoteBackend",
    "ResultCache",
    "SweepReport",
    "WorkerCrew",
    "cell_key",
    "code_version_tag",
    "config_from_dict",
    "config_to_dict",
    "decode_payload",
    "execute_cell",
    "run_sweep",
]
