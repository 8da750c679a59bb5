"""The distributed sweep service: byte-identity, dedup, crash recovery.

The acceptance property of :mod:`repro.serve` is that distribution is
*invisible* in the results: a report assembled from service frames is
byte-identical to a serial ``run_sweep`` of the same specs — cold, warm
from the shared cache, and even when a worker process is SIGKILLed
mid-sweep and its cells are retried.
"""
# simlint: disable-file=SL102 -- host-side deadlines for service/worker waits; no simulated time in this file
import asyncio
import json
import os
import signal
import threading
import time

import pytest

from repro.common.config import small_config
from repro.common.errors import ConfigError
from repro.exec import CellSpec, MemoryBackend, run_sweep
from repro.exec.configio import config_to_dict
from repro.exec.workers import WorkerCrew
from repro.serve.client import ServiceClient, ServiceError, submit_sweep
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    check_submit,
    decode_frame,
    encode_frame,
    submit_frame,
)
from repro.serve.queue import InFlightTable, ShardedQueue, Task, Waiter
from repro.serve.service import SweepService

CFG = config_to_dict(small_config(metadata_cache_bytes=2048))


def matrix(accesses=300, seed=7):
    return [CellSpec("sim", v, "pers_hash", accesses, 256, seed,
                     config=CFG)
            for v in ("steins-gc", "asit", "wb-gc")]


def fingerprints(report):
    return [json.dumps(v.to_json(), sort_keys=True)
            for v in report.values]


class _Running:
    """One live service on a background event-loop thread."""

    def __init__(self, service: SweepService) -> None:
        self.service = service
        self.thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        async def main() -> None:
            await self.service.start()
            await self.service.serve_forever()

        asyncio.run(main())

    def start(self) -> "_Running":
        self.thread.start()
        deadline = time.monotonic() + 10.0
        while not os.path.exists(self.service.socket_path):
            if time.monotonic() > deadline:
                raise RuntimeError("service socket never appeared")
            time.sleep(0.02)
        return self

    def stop(self) -> None:
        if self.thread.is_alive():
            try:
                ServiceClient(self.service.socket_path).shutdown()
            except ServiceError:
                pass
            self.thread.join(timeout=15.0)


@pytest.fixture
def serve(tmp_path):
    running: list[_Running] = []

    def start(workers=2, cache=None, **kwargs) -> _Running:
        sock = str(tmp_path / f"svc{len(running)}.sock")
        svc = SweepService(sock, workers=workers, cache=cache, **kwargs)
        handle = _Running(svc).start()
        running.append(handle)
        return handle

    yield start
    for handle in running:
        handle.stop()


class TestProtocol:
    def test_frames_round_trip_canonically(self):
        frame = submit_frame([{"kind": "sim"}], "v/1")
        line = encode_frame(frame)
        assert line.endswith(b"\n") and b": " not in line
        assert decode_frame(line) == frame
        # canonical: key order never changes the bytes
        assert encode_frame({"b": 1, "a": 2}) \
            == encode_frame({"a": 2, "b": 1})

    def test_decode_rejects_garbage_loudly(self):
        with pytest.raises(ProtocolError):
            decode_frame(b"not json\n")
        with pytest.raises(ProtocolError):
            decode_frame(b'["no", "op"]\n')

    def test_check_submit_enforces_revision_and_shape(self):
        good = submit_frame([{"kind": "sim"}], None)
        assert check_submit(good) == [{"kind": "sim"}]
        with pytest.raises(ProtocolError, match="revision"):
            check_submit({"op": "submit", "v": PROTOCOL_VERSION + 1,
                          "specs": [{}]})
        with pytest.raises(ProtocolError, match="non-empty"):
            check_submit({"op": "submit", "v": PROTOCOL_VERSION,
                          "specs": []})


class TestQueue:
    def task(self, n, key=None):
        return Task(n, key or f"{n:02x}" + "0" * 62, "sim", {})

    def test_round_robin_never_starves_a_shard(self):
        q = ShardedQueue(4)
        for i in range(8):
            q.push(self.task(i))
        assert q.depth() == 8
        popped = [q.pop().task_id for _ in range(8)]
        assert sorted(popped) == list(range(8))
        assert q.pop() is None and not q

    def test_shard_is_content_derived(self):
        q = ShardedQueue(8)
        key = "ab" * 32
        assert q.shard_of(key) == q.shard_of(key)
        assert 0 <= q.shard_of(key) < 8

    def test_inflight_dedups_by_key(self):
        table = InFlightTable()
        task = table.open("aa" * 32, "sim", {})
        task.waiters.append(Waiter(0, 0))
        joined = table.join("aa" * 32, Waiter(1, 3))
        assert joined is task and len(task.waiters) == 2
        with pytest.raises(ConfigError):
            table.open("aa" * 32, "sim", {})
        assert table.join("bb" * 32, Waiter(0, 1)) is None
        closed = table.close(task.task_id)
        assert closed is task and len(table) == 0
        # the key is free again after close
        assert table.open("aa" * 32, "sim", {}).task_id != task.task_id


class TestWorkerCrew:
    def test_dispatch_result_and_errors(self):
        crew = WorkerCrew(1)
        crew.start()
        try:
            spec = matrix(accesses=60)[0]
            crew.dispatch(0, 1, spec.to_json())
            assert crew.idle_workers() == []
            item = None
            deadline = time.monotonic() + 60
            while item is None and time.monotonic() < deadline:
                item = crew.result(timeout=0.2)
            worker_id, task_id, ok, payload, elapsed = item
            assert (worker_id, task_id, ok) == (0, 1, True)
            assert "result" in payload and elapsed > 0
            assert crew.idle_workers() == [0]
            # a deterministic raise comes back as an error result
            bad = CellSpec("explore", "steins", "pers_hash", 60, 256, 7,
                           check=False, fault={"mode": "probe"})
            crew.dispatch(0, 2, bad.to_json())
            item = None
            deadline = time.monotonic() + 60
            while item is None and time.monotonic() < deadline:
                item = crew.result(timeout=0.2)
            _, _, ok, payload, _ = item
            assert not ok and "error" in payload
        finally:
            crew.stop()

    def test_reap_dead_respawns_and_reports_the_lost_task(self):
        crew = WorkerCrew(1)
        crew.start()
        try:
            pid = crew.pids()[0]
            crew.dispatch(0, 9, matrix(accesses=5000)[0].to_json())
            os.kill(pid, signal.SIGKILL)
            lost = []
            deadline = time.monotonic() + 30
            while not lost and time.monotonic() < deadline:
                lost = crew.reap_dead()
                time.sleep(0.05)
            assert lost == [(0, 9)]
            assert crew.respawns == 1
            assert crew.pids()[0] != pid
        finally:
            crew.stop()


@pytest.mark.slow
class TestServiceE2E:
    def test_cold_warm_and_dedup_byte_identity(self, serve):
        specs = matrix()
        specs.append(specs[0])  # duplicate -> in-flight dedup
        serial = run_sweep(specs)
        handle = serve(workers=2, cache=MemoryBackend())
        sock = handle.service.socket_path

        cold = run_sweep(specs, service=sock)
        assert fingerprints(cold) == fingerprints(serial)
        assert cold.executed == 3
        assert cold.deduped == 1 and cold.cached == 0

        warm = run_sweep(specs, service=sock)
        assert fingerprints(warm) == fingerprints(serial)
        assert warm.executed == 0, "warm run must recompute nothing"
        assert warm.cached == len(specs)

        stats = ServiceClient(sock).stats()
        metrics = stats["metrics"]
        assert metrics["serve.cells.executed"]["value"] == 3
        assert metrics["serve.cells.deduped"]["value"] == 1
        assert metrics["serve.cells.cached"]["value"] == len(specs)
        assert stats["queue_depth"] == 0 and stats["inflight"] == 0

    def test_cross_request_cache_sharing(self, serve):
        cache = MemoryBackend()
        specs = matrix()
        first = serve(workers=1, cache=cache)
        cold = run_sweep(specs, service=first.service.socket_path)
        assert cold.executed == len(specs)
        first.stop()
        # a fresh service over the same backend starts warm
        second = serve(workers=1, cache=cache)
        warm = run_sweep(specs, service=second.service.socket_path)
        assert warm.executed == 0 and warm.cached == len(specs)
        assert fingerprints(warm) == fingerprints(cold)

    def test_progress_callback_fires_per_cell(self, serve):
        handle = serve(workers=2, cache=MemoryBackend())
        seen = []
        run_sweep(matrix(), service=handle.service.socket_path,
                  progress=lambda done, total, out: seen.append(
                      (done, total)))
        assert [d for d, _ in seen] == [1, 2, 3]
        assert all(t == 3 for _, t in seen)

    def test_deterministic_cell_error_propagates_not_retries(self, serve):
        handle = serve(workers=1, cache=MemoryBackend())
        # explore cells without a config raise deterministically
        bad = CellSpec("explore", "steins", "pers_hash", 60, 256, 7,
                       check=False, fault={"mode": "probe"})
        with pytest.raises(ServiceError, match="cell 1"):
            submit_sweep([matrix(accesses=60)[0], bad],
                         handle.service.socket_path)
        metrics = ServiceClient(
            handle.service.socket_path).stats()["metrics"]
        assert metrics["serve.cells.errors"]["value"] == 1
        assert "serve.worker.retries" not in metrics, \
            "a deterministic raise must never be retried"

    def test_invalid_spec_rejected_per_cell(self, serve):
        handle = serve(workers=1, cache=MemoryBackend())
        client = ServiceClient(handle.service.socket_path)
        frames, done = client.submit([{"kind": "no-such-kind"}])
        assert frames[0]["op"] == "cell_error"
        assert "invalid spec" in frames[0]["error"]
        assert done["total"] == 1

    def test_ping_stats_and_worker_table(self, serve):
        handle = serve(workers=2, cache=MemoryBackend())
        client = ServiceClient(handle.service.socket_path)
        assert client.ping()
        stats = client.stats()
        assert len(stats["workers"]) == 2
        assert all(w["pid"] > 0 and not w["busy"]
                   for w in stats["workers"])
        assert stats["metrics"]["serve.workers"]["value"] == 2.0
        # the stats dump round-trips into a real registry
        registry = client.metrics_registry()
        assert registry.as_dict() == stats["metrics"]

    def test_unknown_op_answers_an_error_frame(self, serve):
        handle = serve(workers=1, cache=MemoryBackend())
        client = ServiceClient(handle.service.socket_path)
        with pytest.raises(ServiceError, match="unknown op"):
            client._roundtrip({"op": "teleport"})

    def test_shutdown_drains_and_removes_the_socket(self, serve):
        handle = serve(workers=1, cache=MemoryBackend())
        sock = handle.service.socket_path
        run_sweep(matrix(accesses=60), service=sock)
        ServiceClient(sock).shutdown()
        handle.thread.join(timeout=15.0)
        assert not handle.thread.is_alive()
        assert not os.path.exists(sock)


@pytest.mark.slow
class TestWorkerCrashRecovery:
    def test_sigkilled_worker_is_retried_byte_identically(self, serve):
        # long cells so the kill lands mid-computation
        specs = matrix(accesses=4000, seed=13)
        serial = run_sweep(specs)
        handle = serve(workers=1, cache=MemoryBackend(),
                       retry_limit=3, backoff_s=0.01)
        sock = handle.service.socket_path
        client = ServiceClient(sock)

        killed = threading.Event()

        def killer() -> None:
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                busy = [w for w in client.stats()["workers"]
                        if w["busy"]]
                if busy:
                    os.kill(busy[0]["pid"], signal.SIGKILL)
                    killed.set()
                    return
                time.sleep(0.02)

        thread = threading.Thread(target=killer, daemon=True)
        thread.start()
        report = run_sweep(specs, service=sock)
        thread.join(timeout=60)

        assert killed.is_set(), "test never observed a busy worker"
        assert fingerprints(report) == fingerprints(serial), \
            "a retried cell must be byte-identical to a serial run"
        metrics = client.stats()["metrics"]
        assert metrics["serve.worker.retries"]["value"] >= 1
        assert metrics["serve.worker.respawns"]["value"] >= 1
        # every cell still accounted exactly once
        assert report.total == len(specs)
        assert report.executed == len(specs)
