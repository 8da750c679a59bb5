"""The sweep executor: worker-pool fan-out with deterministic results.

Each cell is executed by :func:`execute_cell`, a pure function of its
:class:`~repro.exec.spec.CellSpec` — the worker rebuilds the system
configuration and regenerates the trace from the spec's seed, so cells
are bitwise identical no matter which process runs them, in what order,
or alongside how many siblings.  Results are collected by cell *index*,
so :func:`run_sweep` always returns spec order even though workers
finish in completion order.

Wall-clock appears here (and only here) to report per-cell timing; it
never reaches a result payload, so cached and fresh payloads compare
equal byte for byte.
"""
from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass
from typing import Any, Callable

from repro.common.errors import ConfigError
from repro.exec.cache import CacheBackend
from repro.exec.configio import config_from_dict
from repro.exec.spec import CellSpec, cell_key


def execute_cell(spec: CellSpec) -> dict[str, Any]:
    """Run one cell from scratch; returns the JSON-serializable payload.

    The cell runners import the simulator stack, so they are imported
    lazily: the oracle and explore sweeps themselves call back into
    :func:`run_sweep` and an import-time cycle would otherwise form.
    """
    cfg = config_from_dict(spec.config) if spec.config is not None else None
    if spec.kind == "sim":
        from repro.sim.runner import RunSpec, run_cell

        result = run_cell(RunSpec(
            variant=spec.variant, workload=spec.workload,
            accesses=spec.accesses,
            footprint_blocks=spec.footprint_blocks,
            seed=spec.seed, check=spec.check), cfg)
        return {"result": result.to_json()}
    if cfg is None:
        raise ConfigError(f"{spec.kind} cells need an explicit config")
    if spec.kind == "oracle":
        from repro.explore.runner import ExploreCaseResult
        from repro.oracle.sweep import run_oracle_cell

        result = run_oracle_cell(spec.variant, spec.workload,
                                 spec.fault or {}, cfg, _trace_for(spec))
        # clean and crash cells run on the crash engine: their payload
        # is keyed like an explore case, so it names its own type
        if isinstance(result, ExploreCaseResult):
            return {"case": result.to_json()}
        return {"result": result.to_json()}
    if spec.kind == "explore":
        from repro.explore.runner import run_explore_cell

        return run_explore_cell(spec.variant, spec.fault or {}, cfg,
                                _trace_for(spec))
    raise ConfigError(f"unknown cell kind {spec.kind!r}")


def decode_payload(spec: CellSpec, payload: dict[str, Any]) -> Any:
    """Turn a cached/executed payload back into the cell's value."""
    if spec.kind == "sim":
        from repro.sim.stats import RunResult

        return RunResult.from_json(payload["result"])
    if spec.kind not in ("oracle", "explore"):
        raise ConfigError(f"unknown cell kind {spec.kind!r}")
    from repro.explore.runner import ExploreCaseResult, ExploreProbe
    from repro.oracle.harness import OracleCaseResult

    # crash-engine payloads name their type ("probe" or "case"); the
    # oracle's tamper and mutant cells keep "result"
    if "probe" in payload:
        return ExploreProbe.from_json(payload["probe"])
    if "case" in payload:
        return ExploreCaseResult.from_json(payload["case"])
    return OracleCaseResult.from_json(payload["result"])


def _trace_for(spec: CellSpec):
    from repro.workloads import get_profile

    return get_profile(spec.workload).generate(
        seed=spec.seed, n=spec.accesses, footprint=spec.footprint_blocks)


def _worker(item: tuple[int, CellSpec]) -> tuple[int, dict[str, Any], float]:
    """Pool entry point: ``(index, payload, elapsed_seconds)``."""
    index, spec = item
    # simlint: disable-next=SL102 -- orchestration timing, not simulated time
    start = time.perf_counter()
    payload = execute_cell(spec)
    # simlint: disable-next=SL102 -- orchestration timing, not simulated time
    elapsed = time.perf_counter() - start
    return index, payload, elapsed


@dataclass
class CellOutcome:
    """One finished cell: its spec, decoded value, and provenance.

    ``cached`` means the payload came from the result cache; ``deduped``
    means it came from an identical in-flight sibling of the same sweep
    (same key, computed once, fanned out).  At most one of the two is
    set; a cell that was actually simulated has both False.
    """

    spec: CellSpec
    value: Any
    cached: bool
    elapsed_s: float
    key: str
    deduped: bool = False


@dataclass
class SweepReport:
    """Everything :func:`run_sweep` did, in spec order."""

    outcomes: list[CellOutcome]

    @property
    def values(self) -> list[Any]:
        return [o.value for o in self.outcomes]

    @property
    def total(self) -> int:
        return len(self.outcomes)

    @property
    def executed(self) -> int:
        return sum(1 for o in self.outcomes
                   if not o.cached and not o.deduped)

    @property
    def cached(self) -> int:
        return sum(1 for o in self.outcomes if o.cached)

    @property
    def deduped(self) -> int:
        return sum(1 for o in self.outcomes if o.deduped)

    @property
    def sim_time_s(self) -> float:
        """Summed per-cell simulation time (not wall time: cells overlap)."""
        return sum(o.elapsed_s for o in self.outcomes)

    def summary(self) -> str:
        return (f"{self.total} cells, {self.executed} simulated, "
                f"{self.cached} cached, {self.sim_time_s:.1f}s cell time")


ProgressFn = Callable[[int, int, CellOutcome], None]


def run_sweep(specs: list[CellSpec], jobs: int = 1,
              cache: CacheBackend | None = None,
              progress: ProgressFn | None = None,
              code_version: str | None = None,
              service: "str | os.PathLike[str] | None" = None
              ) -> SweepReport:
    """Execute a sweep; results come back in spec order.

    ``jobs`` > 1 fans the uncached cells out over a process pool; the
    parent never runs simulations itself in that mode, so an armed
    fault plan in a worker can never leak across cells.  With ``jobs``
    <= 1 everything runs in-process (no pool, no pickling) — handy under
    pytest and on single-core runners.

    ``service`` routes the whole sweep to a running ``repro serve``
    instance (the value is its socket path) instead of executing
    locally: the service owns the worker pool and the result cache, so
    ``jobs`` and ``cache`` are ignored in that mode.  The assembled
    report is byte-identical either way (pinned by tests/test_serve.py).

    Cells sharing one cache key (identical frozen specs) are computed
    once per sweep and the payload fanned out to every position, so a
    batch with duplicates costs one simulation; the extra outcomes are
    flagged ``deduped``.
    """
    if service is not None:
        from repro.serve.client import submit_sweep

        return submit_sweep(specs, service, progress=progress,
                            code_version=code_version)
    keys = [cell_key(spec, code_version) for spec in specs]
    outcomes: list[CellOutcome | None] = [None] * len(specs)
    done = 0

    def finish(index: int, payload: dict[str, Any], cached: bool,
               elapsed: float, deduped: bool = False) -> None:
        nonlocal done
        outcome = CellOutcome(specs[index], decode_payload(specs[index],
                                                           payload),
                              cached, elapsed, keys[index],
                              deduped=deduped)
        outcomes[index] = outcome
        done += 1
        if progress is not None:
            progress(done, len(specs), outcome)

    # pending cells grouped by key: the first index of a key is the
    # representative that actually runs; its twins wait for the payload
    pending: dict[str, list[int]] = {}
    for i, key in enumerate(keys):
        payload = cache.get(key) if cache is not None else None
        if payload is not None:
            finish(i, payload, True, 0.0)
        else:
            pending.setdefault(key, []).append(i)

    def settle(index: int, payload: dict[str, Any],
               elapsed: float) -> None:
        """Record a computed representative, then fan out to twins."""
        if cache is not None:
            cache.put(keys[index], specs[index].kind, payload)
        finish(index, payload, False, elapsed)
        for twin in pending[keys[index]][1:]:
            finish(twin, payload, False, 0.0, deduped=True)

    representatives = [indices[0] for indices in pending.values()]
    if representatives and jobs > 1:
        with multiprocessing.Pool(min(jobs, len(representatives))) as pool:
            results = pool.imap_unordered(
                _worker, [(i, specs[i]) for i in representatives])
            for index, payload, elapsed in results:
                settle(index, payload, elapsed)
    else:
        for index in representatives:
            _, payload, elapsed = _worker((index, specs[index]))
            settle(index, payload, elapsed)

    return SweepReport([o for o in outcomes if o is not None])
