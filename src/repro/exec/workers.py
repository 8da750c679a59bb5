"""Crash-tolerant worker processes: the one process pool.

Every parallel sweep runs here — a local ``run_sweep(jobs=N)`` and the
sweep service (:mod:`repro.serve`) alike.  :class:`WorkerCrew` is N
long-lived worker processes, each with a private inbox queue, all
reporting to one shared result queue.  Its caller dispatches one cell
at a time to a named worker, detects a worker that died mid-cell (so
the cell can be retried elsewhere), and respawns it without disturbing
its siblings.

This module lives in ``repro.exec`` on purpose: process fan-out is
quarantined here by simlint SL501.  A worker computes
:func:`~repro.exec.pool.execute_cell` of a frozen spec and nothing
else, so *which* worker runs a cell (or how many times a cell is
retried after a crash) can never reach a payload byte.

Execution errors and worker deaths are deliberately different events:

* a cell that **raises** is deterministic — retrying it would raise
  again — so the exception is serialized into an error result and the
  caller propagates it to whoever asked for the cell;
* a worker that **dies** (SIGKILL, OOM) tells us nothing about the
  cell, so the supervisor requeues the cell on a live worker.
"""
from __future__ import annotations

import multiprocessing
import queue
import time
from dataclasses import dataclass
from typing import Any

from repro.common.errors import ConfigError

#: queue poll granularity; only bounds shutdown latency, never results
_POLL_S = 0.05

#: re-runs of a cell whose worker died before the cell fails; shared by
#: local sweeps and the sweep service (a cell that raises is never rerun)
RETRY_LIMIT = 3


def _crew_worker(worker_id: int, inbox: "multiprocessing.Queue[Any]",
                 results: "multiprocessing.Queue[Any]") -> None:
    """Worker main loop: pull ``(task_id, spec_json)``, push results.

    The result tuple is ``(worker_id, task_id, ok, payload, elapsed)``;
    on an execution error ``ok`` is False and ``payload`` carries the
    exception text instead of a cell payload.
    """
    from repro.exec.pool import execute_cell
    from repro.exec.spec import CellSpec

    while True:
        task = inbox.get()
        if task is None:
            return
        task_id, spec_json = task
        # simlint: disable-next=SL102 -- orchestration timing, not simulated time
        start = time.perf_counter()
        try:
            payload = execute_cell(CellSpec.from_json(spec_json))
            ok = True
        # simlint: disable-next=SL401 -- service boundary: serialized and re-raised on the client
        except Exception as exc:
            payload = {"error": f"{type(exc).__name__}: {exc}"}
            ok = False
        # simlint: disable-next=SL102 -- orchestration timing, not simulated time
        elapsed = time.perf_counter() - start
        results.put((worker_id, task_id, ok, payload, elapsed))


@dataclass
class _Handle:
    """One live worker: its process, inbox, and current assignment."""

    process: multiprocessing.Process
    inbox: "multiprocessing.Queue[Any]"
    task_id: int | None = None


class WorkerCrew:
    """N restartable worker processes with per-worker dispatch.

    The crew itself is policy-free: the caller decides which worker
    gets which task, when a dead worker's task is retried, and when to
    stop.  All bookkeeping needed for those decisions (``idle_workers``,
    ``reap_dead``, ``busy_count``) is served from the parent process's
    own records, never by querying children.
    """

    def __init__(self, size: int) -> None:
        if size <= 0:
            raise ConfigError("worker crew needs at least one worker")
        self.size = size
        self._results: "multiprocessing.Queue[Any]" = \
            multiprocessing.Queue()
        self._workers: dict[int, _Handle] = {}
        self._respawns = 0

    # ---------------------------------------------------------- lifecycle
    def start(self) -> None:
        for worker_id in range(self.size):
            self._spawn(worker_id)

    def _spawn(self, worker_id: int) -> None:
        inbox: "multiprocessing.Queue[Any]" = multiprocessing.Queue()
        process = multiprocessing.Process(
            target=_crew_worker, args=(worker_id, inbox, self._results),
            daemon=True, name=f"repro-worker-{worker_id}")
        process.start()
        self._workers[worker_id] = _Handle(process, inbox)

    def stop(self) -> None:
        """Graceful stop: sentinel every inbox, join, then terminate."""
        for handle in self._workers.values():
            if handle.process.is_alive():
                handle.inbox.put(None)
        for handle in self._workers.values():
            handle.process.join(timeout=2.0)
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(timeout=1.0)
        self._workers.clear()

    # ----------------------------------------------------------- dispatch
    def dispatch(self, worker_id: int, task_id: int,
                 spec_json: dict[str, Any]) -> None:
        handle = self._workers[worker_id]
        if handle.task_id is not None:
            raise ConfigError(
                f"worker {worker_id} already holds task {handle.task_id}")
        handle.task_id = task_id
        handle.inbox.put((task_id, spec_json))

    def result(self, timeout: float = _POLL_S
               ) -> tuple[int, int, bool, dict[str, Any], float] | None:
        """Next ``(worker_id, task_id, ok, payload, elapsed)`` or None.

        Clears the worker's assignment when its result arrives.  A
        result from a worker that was already reaped (it finished in
        the race window before a SIGKILL landed) is still returned; the
        caller deduplicates by task id.
        """
        try:
            item = self._results.get(timeout=timeout)
        except queue.Empty:
            return None
        worker_id = item[0]
        handle = self._workers.get(worker_id)
        if handle is not None and handle.task_id == item[1]:
            handle.task_id = None
        return item  # type: ignore[no-any-return]

    # --------------------------------------------------------- monitoring
    def idle_workers(self) -> list[int]:
        return sorted(worker_id
                      for worker_id, handle in self._workers.items()
                      if handle.task_id is None
                      and handle.process.is_alive())

    def task_of(self, worker_id: int) -> int | None:
        """The task a worker currently holds, or None if idle."""
        return self._workers[worker_id].task_id

    def busy_count(self) -> int:
        return sum(1 for handle in self._workers.values()
                   if handle.task_id is not None)

    def reap_dead(self) -> list[tuple[int, int | None]]:
        """Find dead workers, respawn them, return lost assignments.

        Returns ``(worker_id, task_id)`` pairs — ``task_id`` is None
        when the worker died idle.  Respawning reuses the worker id but
        builds a fresh inbox: the old queue's state is unknowable after
        a SIGKILL mid-``get``.
        """
        lost: list[tuple[int, int | None]] = []
        for worker_id in sorted(self._workers):
            handle = self._workers[worker_id]
            if handle.process.is_alive():
                continue
            lost.append((worker_id, handle.task_id))
            self._spawn(worker_id)
            self._respawns += 1
        return lost

    def kill(self, worker_id: int) -> None:
        """Forcibly kill a worker (hung-cell timeout enforcement).

        The dead process is left for :meth:`reap_dead` to find, so the
        kill and the crash-recovery path are exercised identically.
        """
        self._workers[worker_id].process.kill()

    @property
    def respawns(self) -> int:
        return self._respawns

    def pids(self) -> dict[int, int]:
        """Worker id -> OS pid (for tests and the stats endpoint)."""
        return {worker_id: handle.process.pid or 0
                for worker_id, handle in self._workers.items()}

    def busy_map(self) -> dict[int, bool]:
        return {worker_id: handle.task_id is not None
                for worker_id, handle in self._workers.items()}
