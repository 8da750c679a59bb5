"""The sweep executor: worker-crew fan-out with deterministic results.

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

import os
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable

from repro.common.errors import ConfigError, ReproError
from repro.exec.cache import CacheBackend
from repro.exec.configio import config_from_dict
from repro.exec.spec import CellSpec, cell_key
from repro.exec.workers import RETRY_LIMIT, WorkerCrew


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
            seed=spec.seed), cfg)
        return {"result": result.to_json()}
    if cfg is None:
        raise ConfigError(f"{spec.kind} cells need an explicit config")
    from repro.explore.runner import run_explore_cell

    return run_explore_cell(spec.variant, spec.fault or {}, cfg,
                            _trace_for(spec))


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


def _trace_for(spec: CellSpec):
    from repro.workloads import get_profile

    return get_profile(spec.workload).generate(
        seed=spec.seed, n=spec.accesses, footprint=spec.footprint_blocks)


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

    ``jobs`` > 1 fans the uncached cells out over a
    :class:`~repro.exec.workers.WorkerCrew`; the parent never runs
    simulations itself in that mode, so an armed fault plan in a worker
    can never leak across cells.  A worker that dies mid-cell (SIGKILL,
    OOM) is respawned and its cell rerun; a cell that raises fails the
    sweep with a :class:`~repro.common.errors.ReproError` naming it.
    With ``jobs`` <= 1 everything runs in-process (no workers, no
    pickling) — handy under pytest and on single-core runners.

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
        _run_on_crew(specs, representatives, jobs, settle)
    else:
        for index in representatives:
            # simlint: disable-next=SL102 -- orchestration timing, not simulated time
            start = time.perf_counter()
            payload = execute_cell(specs[index])
            # simlint: disable-next=SL102 -- orchestration timing, not simulated time
            settle(index, payload, time.perf_counter() - start)

    return SweepReport([o for o in outcomes if o is not None])


def _run_on_crew(specs: list[CellSpec], indices: list[int], jobs: int,
                 settle: Callable[[int, dict[str, Any], float], None]
                 ) -> None:
    """Run ``specs[i]`` for every ``i`` in ``indices`` on a worker crew.

    Cells go one at a time to idle workers, FIFO.  A cell whose worker
    died is requeued on a fresh worker, up to :data:`RETRY_LIMIT` times;
    a cell that raised fails the sweep (it would raise again).
    """
    todo = deque(indices)
    unsettled = set(indices)
    deaths: dict[int, int] = {}
    crew = WorkerCrew(min(jobs, len(indices)))

    def feed() -> None:
        for worker_id in crew.idle_workers():
            # a requeued cell may have been settled since by a result
            # its dying worker sent just before the kill
            while todo and todo[0] not in unsettled:
                todo.popleft()
            if not todo:
                return
            index = todo.popleft()
            crew.dispatch(worker_id, index, specs[index].to_json())

    crew.start()
    try:
        feed()
        while unsettled:
            item = crew.result()
            for _worker_id, lost in crew.reap_dead():
                if lost is None or lost not in unsettled:
                    continue
                deaths[lost] = deaths.get(lost, 0) + 1
                if deaths[lost] > RETRY_LIMIT:
                    raise ReproError(
                        f"cell {lost}: worker died {deaths[lost]} times "
                        f"running it; retry limit {RETRY_LIMIT} "
                        "exhausted")
                todo.append(lost)
            # refill the workers before settling, so none waits on the
            # parent's decode of a finished cell
            feed()
            if item is None:
                continue
            _worker_id, index, ok, payload, elapsed = item
            if index not in unsettled:
                continue
            if not ok:
                raise ReproError(f"cell {index} failed in a sweep worker: "
                                 f"{payload.get('error')}")
            unsettled.discard(index)
            settle(index, payload, elapsed)
    finally:
        crew.stop()
