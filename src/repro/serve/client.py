"""``repro submit`` — the synchronous client of the sweep service.

:func:`submit_sweep` is the drop-in service route of
:func:`repro.exec.pool.run_sweep`: it ships a frozen
:class:`~repro.exec.spec.CellSpec` batch to a running ``repro serve``
socket, streams result frames back, and assembles a
:class:`~repro.exec.pool.SweepReport` **in spec order** with payloads
decoded through the exact same :func:`~repro.exec.pool.decode_payload`
path local execution uses.  That shared decode path plus index-ordered
assembly is what makes `service=` transparent: callers
(:class:`~repro.analysis.figures.FigureHarness`, the oracle suite,
``repro.explore``) cannot tell — byte for byte —
whether their sweep ran in-process or across a worker fleet.

The client is deliberately synchronous plain-socket code: the asyncio
machinery stays quarantined in the service (simlint SL901 keeps both
inside ``repro.serve``), and callers like ``run_sweep`` are blocking
APIs anyway.
"""
from __future__ import annotations

import os
import socket
from typing import Any, Callable

from repro.common.errors import ReproError
from repro.serve.protocol import (
    ProtocolError,
    check_reply,
    decode_frame,
    encode_frame,
    submit_frame,
)

#: per-socket-operation timeout; generous because one frame can take a
#: full cell simulation to arrive
DEFAULT_TIMEOUT_S = 600.0

#: the reply frame each one-shot request is answered with
_ONE_SHOT_REPLIES = {"ping": "pong", "stats": "stats", "shutdown": "bye"}


class ServiceError(ReproError):
    """The service reported a failure (request- or cell-level)."""


class ServiceClient:
    """Blocking NDJSON client for one ``repro serve`` socket."""

    def __init__(self, socket_path: str | os.PathLike,
                 timeout_s: float = DEFAULT_TIMEOUT_S) -> None:
        self.socket_path = os.fspath(socket_path)
        self.timeout_s = timeout_s

    def _connect(self) -> socket.socket:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(self.timeout_s)
        try:
            sock.connect(self.socket_path)
        except OSError as exc:
            sock.close()
            raise ServiceError(
                f"cannot reach sweep service at {self.socket_path!r}: "
                f"{exc} — is `repro serve` running?") from exc
        return sock

    def _roundtrip(self, frame: dict[str, Any]) -> dict[str, Any]:
        """Send one frame, read one reply, close; a reply other than,
        strictly, the frame the request is answered with raises
        :class:`ProtocolError`."""
        with self._connect() as sock:
            sock.sendall(encode_frame(frame))
            with sock.makefile("rb") as stream:
                line = stream.readline()
        if not line:
            raise ServiceError("service closed the connection "
                               "without replying")
        reply = decode_frame(line)
        if reply["op"] == "error":
            raise ServiceError(str(reply.get("error")))
        return check_reply(reply, (_ONE_SHOT_REPLIES[frame["op"]],))

    # ------------------------------------------------------------ one-shots
    def ping(self) -> bool:
        """True once the service answers with a pong frame."""
        self._roundtrip({"op": "ping"})
        return True

    def stats(self) -> dict[str, Any]:
        """The service's live stats frame (see ``metrics_registry``)."""
        return self._roundtrip({"op": "stats"})

    def metrics_registry(self) -> Any:
        """The service's metrics as a real obs registry object."""
        from repro.obs import registry_from_dump

        return registry_from_dump(self.stats()["metrics"])

    def shutdown(self) -> None:
        """Ask the service to drain and stop."""
        self._roundtrip({"op": "shutdown"})

    # --------------------------------------------------------------- sweeps
    def submit(self, spec_dicts: list[dict[str, Any]],
               code_version: str | None = None,
               on_frame: Callable[[dict[str, Any]], None] | None = None,
               ) -> tuple[list[dict[str, Any]], dict[str, Any]]:
        """Run one batch; returns (per-index frames, done frame).

        Frames arrive in completion order; the returned list is
        re-indexed to request order.  Every reply frame decodes through
        :func:`~repro.serve.protocol.check_reply`: a missing, extra or
        mistyped field raises :class:`ProtocolError`.  Cell errors are
        collected, not raised, so the caller sees every failure at once.
        """
        frames: list[dict[str, Any] | None] = [None] * len(spec_dicts)
        done: dict[str, Any] | None = None
        with self._connect() as sock:
            sock.sendall(encode_frame(submit_frame(spec_dicts,
                                                   code_version)))
            with sock.makefile("rb") as stream:
                for line in stream:
                    frame = decode_frame(line)
                    if frame["op"] == "error":
                        raise ServiceError(str(frame.get("error")))
                    frame = check_reply(frame)
                    if frame["op"] == "done":
                        done = frame
                        break
                    index = frame["index"]
                    if not 0 <= index < len(spec_dicts):
                        raise ProtocolError(
                            f"frame indexes cell {index!r} outside "
                            f"the batch of {len(spec_dicts)}")
                    frames[index] = frame
                    if on_frame is not None:
                        on_frame(frame)
        if done is None:
            raise ServiceError(
                "service stream ended before the done frame (did the "
                "service crash or drop the connection?)")
        missing = [i for i, f in enumerate(frames) if f is None]
        if missing:
            raise ServiceError(
                f"service completed but never answered cells {missing}")
        return [f for f in frames if f is not None], done


def submit_sweep(specs: list[Any],
                 service: "str | os.PathLike[str]",
                 progress: Callable[[int, int, Any], None] | None = None,
                 code_version: str | None = None) -> Any:
    """Run a sweep through the service; returns a local-shaped report.

    This is what ``run_sweep(..., service=...)`` calls.  Outcomes come
    back in spec order with values decoded by
    :func:`repro.exec.pool.decode_payload`; any cell error is raised as
    :class:`ServiceError` after the stream completes (so the message
    names every failed cell, not just the first).
    """
    from repro.exec.pool import CellOutcome, SweepReport, decode_payload
    from repro.exec.spec import cell_key

    keys = [cell_key(spec, code_version) for spec in specs]
    outcomes: list[CellOutcome | None] = [None] * len(specs)
    done_count = 0

    def on_frame(frame: dict[str, Any]) -> None:
        nonlocal done_count
        if frame["op"] != "result":
            return
        index = frame["index"]
        outcome = CellOutcome(
            specs[index], decode_payload(specs[index], frame["payload"]),
            cached=frame["cached"], elapsed_s=float(frame["elapsed_s"]),
            key=keys[index], deduped=frame["deduped"])
        outcomes[index] = outcome
        done_count += 1
        if progress is not None:
            progress(done_count, len(specs), outcome)

    client = ServiceClient(service)
    frames, _done = client.submit([spec.to_json() for spec in specs],
                                  code_version=code_version,
                                  on_frame=on_frame)
    errors = [(i, f["error"]) for i, f in enumerate(frames)
              if f["op"] == "cell_error"]
    if errors:
        detail = "; ".join(f"cell {i}: {msg}" for i, msg in errors[:5])
        more = f" (+{len(errors) - 5} more)" if len(errors) > 5 else ""
        raise ServiceError(
            f"{len(errors)} cell(s) failed on the service: "
            f"{detail}{more}")
    return SweepReport([o for o in outcomes if o is not None])
