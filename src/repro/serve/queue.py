"""Service tasks and the in-flight deduplication table.

The service's unit of work is a *task*: one unique cell key, the
canonical spec that produces it, and the list of **waiters** — every
(request, index) position, across all connected clients, that wants the
payload.  :class:`InFlightTable` maps key -> task while a cell is
queued or running.  A second submission of a key that is already in
flight never creates new work; it appends a waiter, and the one
computation fans out to everyone when it lands.  This is the global
half of the dedup story (the local half, within one ``run_sweep``
batch, lives in :mod:`repro.exec.pool`).  Pending tasks wait in the
service's FIFO queue.

Neither the table nor the queue can affect result bytes: results are
assembled by request index on the client, so pull order and dedup
fan-out order are invisible to the report (the byte-identity test in
``tests/test_serve.py`` pins this).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.common.errors import ConfigError


@dataclass
class Waiter:
    """One (request, index) position awaiting a task's payload."""

    request_id: int
    index: int


@dataclass
class Task:
    """One unique cell: key, canonical spec, waiters, retry budget."""

    task_id: int
    key: str
    kind: str
    spec_json: dict[str, Any]
    waiters: list[Waiter] = field(default_factory=list)
    retries: int = 0


class InFlightTable:
    """Key -> :class:`Task` for every cell between submit and done."""

    def __init__(self) -> None:
        self._by_key: dict[str, Task] = {}
        self._by_id: dict[int, Task] = {}
        self._next_id = 0

    def open(self, key: str, kind: str,
             spec_json: dict[str, Any]) -> Task:
        """Register a new task for ``key`` (must not be in flight)."""
        if key in self._by_key:
            raise ConfigError(f"key {key[:12]} is already in flight")
        task = Task(self._next_id, key, kind, spec_json)
        self._next_id += 1
        self._by_key[key] = task
        self._by_id[task.task_id] = task
        return task

    def join(self, key: str, waiter: Waiter) -> Task | None:
        """Attach a waiter to an in-flight key; None if not in flight."""
        task = self._by_key.get(key)
        if task is not None:
            task.waiters.append(waiter)
        return task

    def by_id(self, task_id: int) -> Task | None:
        return self._by_id.get(task_id)

    def close(self, task_id: int) -> Task | None:
        """Remove a finished task; returns it (with its waiters)."""
        task = self._by_id.pop(task_id, None)
        if task is not None:
            self._by_key.pop(task.key, None)
        return task

    def drop_request(self, request_id: int) -> None:
        """Detach every waiter of a vanished client (disconnect)."""
        for task in self._by_id.values():
            task.waiters = [w for w in task.waiters
                            if w.request_id != request_id]

    def __len__(self) -> int:
        return len(self._by_id)

    def __contains__(self, key: str) -> bool:
        return key in self._by_key
