"""Trace persistence: save/load traces as compressed ``.npz`` files.

Lets expensive traces (or externally captured ones — e.g. converted PIN
or gem5 traces) be reused across runs and shared between machines.  The
format is three named numpy arrays plus a small metadata record, all
inside one ``numpy.savez_compressed`` archive.
"""
from __future__ import annotations

import json
import pathlib

import numpy as np

from repro.common.errors import ConfigError
from repro.common.records import Fields, strict_record
from repro.workloads.trace import TraceArrays

#: bumped if the on-disk layout ever changes
FORMAT_VERSION = 1

#: the metadata record :func:`save_trace` writes
_META_FIELDS: Fields = {
    "format_version": int, "name": str, "seed": (int, type(None)),
    "accesses": int, "footprint_blocks": int,
    "write_fraction": (float, int),
}

_COLUMNS = ("is_write", "address", "gap_cycles")
_INT64_MAX = int(np.iinfo(np.int64).max)
_INT32_MAX = int(np.iinfo(np.int32).max)


def save_trace(path: str | pathlib.Path, trace: TraceArrays,
               name: str = "", seed: int | None = None) -> None:
    """Write a trace (plus provenance metadata) to ``path``."""
    meta = {
        "format_version": FORMAT_VERSION,
        "name": name,
        "seed": seed,
        "accesses": len(trace),
        "footprint_blocks": trace.footprint_blocks,
        "write_fraction": trace.write_fraction,
    }
    np.savez_compressed(
        path,
        is_write=trace.is_write.astype(np.bool_),
        address=trace.address.astype(np.int64),
        gap_cycles=trace.gap_cycles.astype(np.int32),
        meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
    )


def load_trace(path: str | pathlib.Path) -> tuple[TraceArrays, dict]:
    """Read a trace and its metadata back.

    Accepts exactly what :func:`save_trace` writes — the metadata keys
    and types, 1-D integer or bool columns, addresses and gaps >= 0 that
    fit their int64/int32 columns — and raises
    :class:`ConfigError` on anything else, future formats included.
    """
    try:
        with np.load(path) as archive:
            required = {"is_write", "address", "gap_cycles", "meta"}
            missing = required - set(archive.files)
            if missing:
                raise ConfigError(
                    f"trace file {path} is missing arrays: {sorted(missing)}")
            meta = json.loads(bytes(archive["meta"]).decode())
            columns = [archive[name] for name in _COLUMNS]
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot load trace file {path}: {exc}") from exc
    version = meta.get("format_version") if type(meta) is dict else None
    if type(version) is int and version > FORMAT_VERSION:
        raise ConfigError(f"trace file {path} uses a newer format "
                          f"({version} > {FORMAT_VERSION})")
    strict_record(meta, _META_FIELDS, f"trace file {path} metadata")
    for name, column in zip(_COLUMNS, columns):
        if column.ndim != 1 or column.dtype.kind not in "biu":
            raise ConfigError(
                f"trace file {path}: column {name!r} must be 1-D integer, "
                f"got {column.dtype} of shape {column.shape}")
    is_write, address, gap_cycles = columns
    for name, column, top in (("address", address, _INT64_MAX),
                              ("gap_cycles", gap_cycles, _INT32_MAX)):
        if len(column) and not 0 <= column.min() <= column.max() <= top:
            raise ConfigError(
                f"trace file {path}: column {name!r} leaves [0, {top}]")
    trace = TraceArrays(is_write.astype(bool), address.astype(np.int64),
                        gap_cycles.astype(np.int32))
    if len(trace) != meta["accesses"]:
        raise ConfigError(
            f"trace file {path} metadata/array length mismatch")
    return trace, meta
