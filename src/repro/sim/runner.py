"""High-level run helpers: one call per (scheme, workload) cell.

This is the API the figure harness and the benchmarks drive.  A *variant*
name like ``"steins-sc"`` selects both the controller and the leaf
counter mode, mirroring the paper's scheme naming (WB-GC, WB-SC, ASIT,
STAR, Steins-GC, Steins-SC; ASIT and STAR are GC-only, as in the paper).
"""
from __future__ import annotations

from dataclasses import dataclass

from repro.common.config import CounterMode, SystemConfig, default_config
from repro.common.errors import ConfigError
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.schemes import variant_table
from repro.sim.stats import RunResult
from repro.sim.system import SecureNVMSystem
from repro.workloads import get_profile
from repro.workloads.trace import TraceArrays

#: paper variant name -> (controller scheme, counter mode), a registry
#: view: every scheme declares its variants at registration
#: (:mod:`repro.schemes.builtin`), so plugins appear here automatically
VARIANTS: dict[str, tuple[str, CounterMode]] = variant_table()

#: variants shown in the -GC figures (9, 10, 11, 13, 15)
GC_VARIANTS: tuple[str, ...] = ("wb-gc", "asit", "star", "steins-gc")
#: variants shown in the -SC figures (12, 14, 16)
SC_VARIANTS: tuple[str, ...] = ("wb-sc", "steins-gc", "steins-sc")


@dataclass(frozen=True)
class RunSpec:
    """Everything needed to reproduce one simulation cell.

    The default footprint (8 MB of data blocks) deliberately exceeds the
    2 MB LLC of Table I so dirty evictions actually reach the memory
    controller, which is where the compared schemes differ.

    ``seed`` is the cell's explicit base seed: the workload generator
    derives a profile-unique sub-seed from ``(seed, workload)`` (see
    :meth:`repro.workloads.spec.WorkloadProfile.generate`), so no two
    cells of a sweep share an RNG stream, while every *variant* run on
    the same (workload, seed) sees the identical trace — the paper's
    apples-to-apples comparison.
    """

    variant: str
    workload: str
    accesses: int = 60_000
    footprint_blocks: int = 1 << 17   # 8 MB of data blocks
    seed: int = 2024


def make_system(variant: str, cfg: SystemConfig | None = None,
                tracer: Tracer = NULL_TRACER) -> SecureNVMSystem:
    """Instantiate a system for a paper variant name.

    ``tracer`` arms the observability layer (repro.obs) for this system;
    the default ``NULL_TRACER`` keeps every emission site disabled, so
    untraced runs stay byte-identical with and without the layer.
    """
    if variant not in VARIANTS:
        raise ConfigError(
            f"unknown variant {variant!r}; pick one of {sorted(VARIANTS)}")
    scheme, mode = VARIANTS[variant]
    if cfg is None:
        cfg = default_config()
    cfg = cfg.with_counter_mode(mode)
    return SecureNVMSystem(scheme, cfg, tracer=tracer)


def run_trace(system: SecureNVMSystem, trace: TraceArrays,
              workload_name: str, flush_writes: bool = False) -> RunResult:
    """Drive one trace through a system and collect the metrics.

    ``flush_writes`` applies clwb semantics after every store (the
    persistent-workload idiom).  Uses the batched
    :meth:`~repro.sim.system.SecureNVMSystem.run_stream` hot path, which
    the golden stats suite pins byte-identical to the per-access
    ``advance``/``store``/``load`` equivalent.
    """
    system.run_stream(trace, flush_writes=flush_writes)
    return system.result(workload_name)


def run_cell(spec: RunSpec, cfg: SystemConfig | None = None,
             tracer: Tracer = NULL_TRACER) -> RunResult:
    """Run one (variant, workload) cell from scratch.

    Tracing is an observer only: the returned ``RunResult`` is identical
    whether or not a live ``tracer`` is attached, which is what lets the
    repro.exec result cache serve untraced results for traced specs (the
    tracer never enters :class:`repro.exec.spec.CellSpec` or its cache
    key).
    """
    system = make_system(spec.variant, cfg, tracer=tracer)
    profile = get_profile(spec.workload)
    trace = profile.generate(spec.seed, spec.accesses, spec.footprint_blocks)
    return run_trace(system, trace, spec.workload,
                     flush_writes=profile.persistent)
