"""The sweep executor: worker-crew fan-out with deterministic results.

Each cell is executed by :func:`execute_cell`, a pure function of its
:class:`~repro.exec.spec.CellSpec` — the worker decodes the system
configuration and generates the trace from the spec's seed, so cells
are bitwise identical no matter which process runs them, in what order,
or alongside how many siblings.  A process keeps the last few decoded
configs and generated traces (both immutable) between cells, keyed by
exactly the spec fields they are derived from, so a batch of crash
cells sharing one config and one trace decodes and generates each once
per worker.  Results are collected by cell *index*, so
:func:`run_sweep` always returns spec order even though workers finish
in completion order.

Wall-clock appears here (and only here) to report per-cell timing; it
never reaches a result payload, so cached and fresh payloads compare
equal byte for byte.
"""
from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Callable

from repro.common.config import SystemConfig
from repro.common.errors import ConfigError, ReproError
from repro.exec.cache import CacheBackend
from repro.exec.configio import config_from_dict
from repro.exec.spec import CellSpec, cell_key
from repro.exec.workers import RETRY_LIMIT, Scheduler, WorkerCrew
from repro.workloads.trace import TraceArrays

#: decoded configs one process keeps; a sweep shares one config across
#: its cells, and a long-lived ``repro serve`` worker must stay bounded
CONFIG_MEMO_SIZE = 8
#: generated explore traces one process keeps (a trace is as long as
#: its cell's ``accesses``)
TRACE_MEMO_SIZE = 8


def execute_cell(spec: CellSpec) -> dict[str, Any]:
    """Run one cell; returns the JSON-serializable payload.

    Every system is built fresh; only the config and an explore cell's
    trace may come from this process's memo.  The cell runners import
    the simulator stack, so they are imported lazily: the oracle and
    explore sweeps themselves call back into :func:`run_sweep` and an
    import-time cycle would otherwise form.
    """
    cfg = _config_for(spec.config) if spec.config is not None else None
    if spec.kind == "sim":
        from repro.sim.runner import RunSpec, run_cell

        result = run_cell(RunSpec(
            variant=spec.variant, workload=spec.workload,
            accesses=spec.accesses,
            footprint_blocks=spec.footprint_blocks,
            seed=spec.seed), cfg)
        return {"result": result.to_json()}
    if cfg is None:
        raise ConfigError(f"{spec.kind} cells need an explicit config")
    from repro.explore.runner import run_explore_cell

    return run_explore_cell(spec.variant, spec.fault or {}, cfg,
                            _trace(spec.workload, spec.seed, spec.accesses,
                                   spec.footprint_blocks))


def _config_for(data: dict[str, Any]) -> SystemConfig:
    """``spec.config`` decoded, memoized by its canonical JSON (the
    encoding :func:`~repro.exec.spec.cell_key` hashes).

    The key is the JSON text, not the dict: ``True == 1`` and
    ``1 == 1.0``, so a dict-equality key would let a mistyped config hit
    a valid one and skip the strict decoder.  The miss path decodes that
    same JSON, so a cell's config is always a function of the bytes its
    cache key covers; a decode that raises is not memoized.
    """
    try:
        blob = json.dumps(data, sort_keys=True, separators=(",", ":"))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config is not JSON-encodable: {exc}") from None
    return _decoded_config(blob)


@lru_cache(maxsize=CONFIG_MEMO_SIZE)
def _decoded_config(blob: str) -> SystemConfig:
    return config_from_dict(json.loads(blob))


@lru_cache(maxsize=TRACE_MEMO_SIZE, typed=True)
def _trace(workload: str, seed: int, accesses: int,
           footprint_blocks: int) -> TraceArrays:
    """An explore cell's trace, memoized by the fields it derives from;
    its columns are read-only, so no cell can change a sibling's trace
    (nor the python lists cached on it, which only readers touch)."""
    from repro.workloads import get_profile

    trace = get_profile(workload).generate(
        seed=seed, n=accesses, footprint=footprint_blocks)
    for column in (trace.is_write, trace.address, trace.gap_cycles):
        column.setflags(write=False)
    return trace


def decode_payload(spec: CellSpec, payload: dict[str, Any]) -> Any:
    """Turn a cached/executed payload back into the cell's value.

    A payload names its type by its envelope key (``"result"`` for
    sim cells, ``"probe"`` or ``"case"`` for explore cells).  One with
    none of its kind's keys raises :class:`ConfigError` (an
    incompatible writer shares the cache).
    """
    decoders: dict[str, Callable[[Any], Any]]
    if spec.kind == "sim":
        from repro.sim.stats import RunResult

        decoders = {"result": RunResult.from_json}
    else:  # a CellSpec's kind is validated: "explore"
        from repro.explore.runner import ExploreCaseResult, ExploreProbe

        decoders = {"case": ExploreCaseResult.from_json,
                    "probe": ExploreProbe.from_json}
    for key, decode in decoders.items():
        if key in payload:
            return decode(payload[key])
    raise ConfigError(
        f"malformed {spec.kind!r} payload: expected one of "
        f"{sorted(decoders)}, got keys {sorted(payload)}")


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
              service: "str | os.PathLike[str] | None" = None
              ) -> SweepReport:
    """Execute a sweep; results come back in spec order.

    ``jobs`` > 1 fans the uncached cells out over a
    :class:`~repro.exec.workers.WorkerCrew`, driven by the same
    :class:`~repro.exec.workers.Scheduler` as the sweep service; the
    parent never runs simulations itself in that mode, so an armed
    fault plan in a worker can never leak across cells.  A worker that
    dies mid-cell (SIGKILL, OOM) is respawned and its cell rerun, up to
    :data:`~repro.exec.workers.RETRY_LIMIT` times; a cell that raises
    fails the sweep with a :class:`~repro.common.errors.ReproError`
    naming it.  With ``jobs`` <= 1 everything runs in-process (no
    workers, no pickling) — handy under pytest and on single-core
    runners.

    ``service`` routes the whole sweep to a running ``repro serve``
    instance (the value is its socket path) instead of executing
    locally: the service owns the workers and the result cache, so
    ``jobs`` and ``cache`` are ignored in that mode.  The assembled
    report is byte-identical either way (pinned by tests/test_serve.py).

    Cells sharing one cache key (identical frozen specs) are computed
    once per sweep and the payload fanned out to every position, so a
    batch with duplicates costs one simulation; the extra outcomes are
    flagged ``deduped``.
    """
    if service is not None:
        from repro.serve.client import submit_sweep

        return submit_sweep(specs, service, progress=progress)
    keys = [cell_key(spec) for spec in specs]
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
        crew = WorkerCrew(min(jobs, len(representatives)))
        scheduler = Scheduler(crew)
        crew.start()
        try:
            for index in representatives:
                scheduler.submit(keys[index], specs[index].to_json(), index)
            while len(scheduler):
                for task in scheduler.step(crew.result()):
                    index = task.waiters[0]
                    if task.result is None:
                        raise ReproError(
                            f"cell {index}: worker died {task.deaths} "
                            f"times running it; retry limit {RETRY_LIMIT} "
                            "exhausted")
                    ok, payload, elapsed = task.result
                    if not ok:
                        raise ReproError(
                            f"cell {index} failed in a sweep worker: "
                            f"{payload.get('error')}")
                    settle(index, payload, elapsed)
        finally:
            crew.stop()
    else:
        for index in representatives:
            # simlint: disable-next=SL102 -- orchestration timing, not simulated time
            start = time.perf_counter()
            payload = execute_cell(specs[index])
            # simlint: disable-next=SL102 -- orchestration timing, not simulated time
            settle(index, payload, time.perf_counter() - start)

    return SweepReport([o for o in outcomes if o is not None])
