"""The sweep service: an asyncio front end over crash-tolerant workers.

``repro serve`` turns the sweep executor into a long-lived service: an
asyncio server on a local unix socket accepts
:class:`~repro.exec.spec.CellSpec` batches (figure sweeps,
oracle suites, crash-space explorations — anything
:func:`~repro.exec.pool.execute_cell` can run), funnels unique cells
through the one :class:`~repro.exec.workers.Scheduler` to N worker
processes, and streams results back per request.  The scheduler is the
same one a local ``run_sweep(jobs=N)`` drives; this module adds only
what a service needs around it:

* **cache front** — every submitted cell is first looked up in the
  shared :class:`~repro.exec.cache.CacheBackend`; hits are answered
  without touching the scheduler, so identical cells are computed once
  *globally*, across requests, clients, and service restarts;
* **in-flight dedup** — a cell that is already queued or running gains
  a waiter in the scheduler's task instead of a twin; one computation
  fans out to every waiter when it lands;
* **crash recovery** — the scheduler respawns a worker that dies
  mid-cell and requeues its cell at the FIFO tail, up to
  :data:`~repro.exec.workers.RETRY_LIMIT` times (then a
  ``cell_error``); a cell that *raises* is never retried
  (deterministic — it would raise again) and the error is streamed to
  its waiters instead;
* **graceful drain** — shutdown stops accepting submissions, finishes
  everything in flight, flushes every stream, then stops the workers;
* **observability** — queue depth, hit rate, dedup and retry counts
  live in a :class:`repro.obs.MetricRegistry` served over the ``stats``
  op, so a dashboard reads the same numbers the tests assert on.

Determinism across the network boundary: the service schedules *work*,
never *results*.  Payloads are produced by the same
:func:`~repro.exec.pool.execute_cell`, cross the wire through the same
canonical JSON encoding the on-disk cache uses, and are reassembled by
request index on the client — so a distributed report is byte-identical
to a serial one (``tests/test_serve.py`` pins cold, warm, and
one-worker-killed runs against serial ``run_sweep``).
"""
from __future__ import annotations

import asyncio
import os
from dataclasses import dataclass, field
from typing import Any

from repro.common.errors import ConfigError
from repro.exec.cache import CacheBackend
from repro.exec.spec import CellSpec, cell_key
from repro.exec.workers import RETRY_LIMIT, Scheduler, Task, WorkerCrew
from repro.obs import MetricRegistry
from repro.serve.protocol import (
    DEFAULT_SOCKET,
    ProtocolError,
    cell_error_frame,
    check_submit,
    decode_frame,
    done_frame,
    encode_frame,
    error_frame,
    result_frame,
)

__all__ = ["DEFAULT_SOCKET", "SweepService"]

#: orchestrator poll granularity (s); bounds supervision latency only
_TICK_S = 0.05


@dataclass
class _Request:
    """One client submit stream while it is being served."""

    request_id: int
    writer: asyncio.StreamWriter
    total: int
    remaining: int
    executed: int = 0
    cached: int = 0
    deduped: int = 0
    retried: int = 0
    dead: bool = False
    done: asyncio.Event = field(default_factory=asyncio.Event)


class SweepService:
    """One running ``repro serve`` instance (see module docstring)."""

    def __init__(self, socket_path: str | os.PathLike,
                 workers: int = 2,
                 cache: CacheBackend | None = None) -> None:
        self.socket_path = os.fspath(socket_path)
        self.cache = cache
        self.crew = WorkerCrew(workers)
        self.scheduler = Scheduler(self.crew)
        self.metrics = MetricRegistry()
        self._requests: dict[int, _Request] = {}
        self._next_request_id = 0
        self._draining = False
        self._stopped = asyncio.Event()
        self._server: asyncio.AbstractServer | None = None
        self._orchestrator: asyncio.Task[None] | None = None
        self._shutdown_task: asyncio.Task[None] | None = None

    # ----------------------------------------------------------- lifecycle
    async def start(self) -> None:
        """Bind the socket, start workers and the orchestrator."""
        if os.path.exists(self.socket_path):
            os.unlink(self.socket_path)  # stale socket from a crash
        self.crew.start()
        self.metrics.gauge("serve.workers").set(self.crew.size)
        self._server = await asyncio.start_unix_server(
            self._on_connect, path=self.socket_path)
        self._orchestrator = asyncio.create_task(self._run())

    async def serve_forever(self) -> None:
        """Run until :meth:`shutdown` (from a client op or a signal)."""
        await self._stopped.wait()

    async def shutdown(self, drain: bool = True) -> None:
        """Stop the service; with ``drain``, finish in-flight work first."""
        self._draining = True
        if drain:
            while len(self.scheduler) or any(
                    not r.done.is_set() and not r.dead
                    for r in self._requests.values()):
                await asyncio.sleep(_TICK_S)
        if self._orchestrator is not None:
            self._orchestrator.cancel()
            try:
                await self._orchestrator
            except asyncio.CancelledError:
                pass
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self.crew.stop()
        if os.path.exists(self.socket_path):
            os.unlink(self.socket_path)
        self._stopped.set()

    # -------------------------------------------------------- orchestrator
    async def _run(self) -> None:
        """Supervision loop: wait for a result off the event loop, then
        hand it, and whatever else already landed, to the scheduler."""
        loop = asyncio.get_running_loop()
        while True:
            item = await loop.run_in_executor(None, self.crew.result,
                                              _TICK_S)
            while True:
                for task in self.scheduler.step(item):
                    await self._on_settled(task)
                if item is None:
                    break
                item = self.crew.result(timeout=0.001)
            self._refresh_gauges()

    def _refresh_gauges(self) -> None:
        self.metrics.gauge("serve.queue.depth").set(
            len(self.scheduler.queue))
        self.metrics.gauge("serve.inflight").set(len(self.scheduler))
        submitted = self.metrics.counter("serve.cells.submitted").value
        cached = self.metrics.counter("serve.cells.cached").value
        self.metrics.gauge("serve.cache.hit_rate").set(
            cached / submitted if submitted else 0.0)
        for name, total in (("serve.worker.respawns", self.crew.respawns),
                            ("serve.worker.retries",
                             self.scheduler.retries)):
            if total:
                counter = self.metrics.counter(name)
                counter.inc(total - counter.value)

    # ------------------------------------------------------------- results
    async def _on_settled(self, task: Task) -> None:
        if task.result is None:
            await self._resolve_error(
                task, f"worker died {task.deaths} times running cell "
                      f"{task.key[:12]}; retry limit {RETRY_LIMIT} "
                      "exhausted")
            return
        ok, payload, elapsed = task.result
        if not ok:
            self.metrics.counter("serve.cells.errors").inc()
            await self._resolve_error(task, str(payload.get("error")))
            return
        if self.cache is not None:
            self.cache.put(task.key, task.spec_json["kind"], payload)
        self.metrics.counter("serve.cells.executed").inc()
        for position, (request, index) in enumerate(
                self._live_waiters(task)):
            deduped = position > 0
            if deduped:
                request.deduped += 1
                self.metrics.counter("serve.cells.deduped").inc()
            else:
                request.executed += 1
            request.retried += task.deaths
            await self._send(request, result_frame(
                index, payload, cached=False, deduped=deduped,
                elapsed_s=elapsed if not deduped else 0.0))
            await self._account_done(request)

    async def _resolve_error(self, task: Task, message: str) -> None:
        for request, index in self._live_waiters(task):
            await self._send(request, cell_error_frame(index, message))
            await self._account_done(request)

    def _live_waiters(self, task: Task) -> list[tuple[_Request, int]]:
        """``task``'s ``(request, index)`` waiters whose client is still
        connected, first asker first (the first one ran the cell)."""
        live = [(self._requests.get(request_id), index)
                for request_id, index in task.waiters]
        return [(request, index) for request, index in live
                if request is not None and not request.dead]

    async def _account_done(self, request: _Request) -> None:
        request.remaining -= 1
        if request.remaining == 0:
            await self._send(request, done_frame(
                request.total, request.executed, request.cached,
                request.deduped, request.retried))
            request.done.set()

    async def _send(self, request: _Request,
                    frame: dict[str, Any]) -> None:
        if request.dead or request.writer.is_closing():
            self._abandon(request)
            return
        try:
            request.writer.write(encode_frame(frame))
            await request.writer.drain()
        except (ConnectionError, BrokenPipeError, OSError):
            self._abandon(request)

    def _abandon(self, request: _Request) -> None:
        """A client vanished: its waiters are skipped, work continues.

        The work itself stays queued — its results still feed the
        shared cache, so the next submission of the same cells is warm.
        """
        request.dead = True
        request.done.set()

    # ------------------------------------------------------------ requests
    async def _on_connect(self, reader: asyncio.StreamReader,
                          writer: asyncio.StreamWriter) -> None:
        try:
            line = await reader.readline()
            if not line:
                return
            try:
                frame = decode_frame(line)
                await self._handle(frame, writer)
            except ProtocolError as exc:
                writer.write(encode_frame(error_frame(str(exc))))
                await writer.drain()
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError, OSError):
                pass

    async def _handle(self, frame: dict[str, Any],
                      writer: asyncio.StreamWriter) -> None:
        op = frame.get("op")
        if op == "ping":
            writer.write(encode_frame({"op": "pong"}))
            await writer.drain()
        elif op == "stats":
            writer.write(encode_frame(self._stats_frame()))
            await writer.drain()
        elif op == "shutdown":
            writer.write(encode_frame({"op": "bye"}))
            await writer.drain()
            self._shutdown_task = asyncio.create_task(
                self.shutdown(drain=True))
        elif op == "submit":
            await self._on_submit(frame, writer)
        else:
            raise ProtocolError(f"unknown op {op!r} "
                                f"(known: submit, stats, ping, shutdown)")

    def _stats_frame(self) -> dict[str, Any]:
        self._refresh_gauges()
        pids = self.crew.pids()
        busy = self.crew.busy_map()
        return {
            "op": "stats",
            "draining": self._draining,
            "queue_depth": len(self.scheduler.queue),
            "inflight": len(self.scheduler),
            "workers": [{"id": worker_id, "pid": pids[worker_id],
                         "busy": busy[worker_id]}
                        for worker_id in sorted(pids)],
            "metrics": self.metrics.as_dict(),
        }

    async def _on_submit(self, frame: dict[str, Any],
                         writer: asyncio.StreamWriter) -> None:
        if self._draining:
            writer.write(encode_frame(error_frame(
                "service is draining; not accepting new sweeps")))
            await writer.drain()
            return
        spec_dicts = check_submit(frame)
        self.metrics.counter("serve.requests").inc()
        request = _Request(self._next_request_id, writer,
                           total=len(spec_dicts),
                           remaining=len(spec_dicts))
        self._next_request_id += 1
        self._requests[request.request_id] = request
        try:
            await self._enqueue_batch(request, spec_dicts)
            await request.done.wait()
        finally:
            self._requests.pop(request.request_id, None)

    async def _enqueue_batch(self, request: _Request,
                             spec_dicts: list[dict[str, Any]]) -> None:
        for index, spec_dict in enumerate(spec_dicts):
            try:
                spec = CellSpec.from_json(spec_dict)
            except ConfigError as exc:
                await self._send(request, cell_error_frame(
                    index, f"invalid spec: {exc}"))
                await self._account_done(request)
                continue
            key = cell_key(spec)
            self.metrics.counter("serve.cells.submitted").inc()
            payload = self.cache.get(key) if self.cache is not None \
                else None
            if payload is not None:
                self.metrics.counter("serve.cells.cached").inc()
                request.cached += 1
                await self._send(request, result_frame(
                    index, payload, cached=True, deduped=False,
                    elapsed_s=0.0))
                await self._account_done(request)
                continue
            self.scheduler.submit(key, spec.to_json(),
                                  (request.request_id, index))
