"""Crash-tolerant worker processes and their one scheduler.

Every parallel sweep runs here — a local ``run_sweep(jobs=N)`` and the
sweep service (:mod:`repro.serve`) alike.  :class:`WorkerCrew` is N
long-lived worker processes, each with a private inbox queue, all
reporting to one shared result queue; it can dispatch one cell to a
named worker, find a worker that died, and respawn it without
disturbing its siblings.  :class:`Scheduler` is the one policy both
front ends drive it with: a key -> task table whose tasks collect
waiters (so a key in flight is computed once), one FIFO queue fed to
idle workers, a dead worker's cell requeued at the tail up to
:data:`RETRY_LIMIT` times, and a late duplicate result dropped.

This module lives in ``repro.exec`` on purpose: process fan-out is
quarantined here by simlint SL501.  A worker computes
:func:`~repro.exec.pool.execute_cell` of a frozen spec and nothing
else, so *which* worker runs a cell (or how many times a cell is
retried after a crash) can never reach a payload byte.

Execution errors and worker deaths are deliberately different events:

* a cell that **raises** is deterministic — retrying it would raise
  again — so the exception is serialized into an error result and the
  front end reports it to whoever asked for the cell;
* a worker that **dies** (SIGKILL, OOM) tells us nothing about the
  cell, so the scheduler requeues the cell on a live worker.
"""
from __future__ import annotations

import multiprocessing
import queue
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any

from repro.common.errors import ConfigError

#: queue poll granularity; only bounds shutdown latency, never results
_POLL_S = 0.05

#: re-runs of a cell whose worker died before the cell fails, for local
#: sweeps and the sweep service alike (a cell that raises is never rerun)
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

    The crew itself is policy-free: :class:`Scheduler` decides which
    worker gets which task and when a dead worker's task is retried.
    All bookkeeping needed for those decisions (``idle_workers``,
    ``reap_dead``) is served from the parent process's own records,
    never by querying children.
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


@dataclass
class Task:
    """One unique cell between its first submit and its settling."""

    task_id: int
    key: str
    spec_json: dict[str, Any]
    #: whoever asked for the key, first asker first
    waiters: list[Any] = field(default_factory=list)
    #: workers that died holding it
    deaths: int = 0
    #: the worker's ``(ok, payload, elapsed)``; still None when the
    #: task settled by exhausting :data:`RETRY_LIMIT`
    result: tuple[bool, dict[str, Any], float] | None = None


class Scheduler:
    """Dispatch, dedup and retry for one :class:`WorkerCrew`.

    Synchronous and single-threaded: the front end submits cells and
    feeds every :meth:`WorkerCrew.result` item (or None after a quiet
    poll) to :meth:`step`, which returns the tasks that settled.  The
    crew's start and stop stay with the front end.
    """

    def __init__(self, crew: WorkerCrew) -> None:
        self.crew = crew
        self.queue: deque[Task] = deque()
        self._by_key: dict[str, Task] = {}
        self._by_id: dict[int, Task] = {}
        self._next_id = 0
        #: deaths of workers that held an unsettled task, all told
        self.retries = 0

    def __len__(self) -> int:
        """Tasks submitted and not yet settled."""
        return len(self._by_id)

    def submit(self, key: str, spec_json: dict[str, Any],
               waiter: Any) -> Task:
        """Add ``waiter`` to the task of ``key``, opening and queueing
        the task if the key is not in flight; returns the task."""
        task = self._by_key.get(key)
        if task is None:
            task = Task(self._next_id, key, spec_json)
            self._next_id += 1
            self._by_key[key] = task
            self._by_id[task.task_id] = task
            self.queue.append(task)
            self._dispatch()
        task.waiters.append(waiter)
        return task

    def step(self, item: tuple[int, int, bool, dict[str, Any], float]
             | None) -> list[Task]:
        """Take one crew result, reap dead workers, refill idle ones.

        Returns the tasks that settled: the one ``item`` finished
        (unless it is a late duplicate of a settled task) and any whose
        workers have now died more than :data:`RETRY_LIMIT` times.
        Workers are refilled before the caller sees the settled tasks,
        so none waits on the caller's decode of a finished cell.
        """
        settled: list[Task] = []
        if item is not None:
            _worker_id, task_id, ok, payload, elapsed = item
            task = self._close(task_id)
            if task is not None:
                task.result = (ok, payload, elapsed)
                settled.append(task)
        for _worker_id, task_id in self.crew.reap_dead():
            task = self._by_id.get(task_id) if task_id is not None \
                else None
            if task is None:
                continue  # died idle, or its result already landed
            task.deaths += 1
            self.retries += 1
            if task.deaths > RETRY_LIMIT:
                self._close(task_id)
                settled.append(task)
            else:
                self.queue.append(task)
        self._dispatch()
        return settled

    def _close(self, task_id: int) -> Task | None:
        task = self._by_id.pop(task_id, None)
        if task is not None:
            del self._by_key[task.key]
        return task

    def _dispatch(self) -> None:
        for worker_id in self.crew.idle_workers():
            # a requeued task may have settled since, by a result its
            # dying worker sent just before the kill
            while self.queue and self.queue[0].task_id not in self._by_id:
                self.queue.popleft()
            if not self.queue:
                return
            task = self.queue.popleft()
            self.crew.dispatch(worker_id, task.task_id, task.spec_json)
