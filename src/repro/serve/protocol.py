"""The sweep service wire protocol: newline-delimited JSON frames.

One frame is one JSON object serialized canonically (``sort_keys``,
tight separators, pure ASCII) followed by ``\\n``.  Canonical encoding
is not cosmetic: the distributed byte-identity guarantee rests on every
payload crossing the wire through exactly one encode/decode path, the
same ``json`` round-trip the on-disk cache uses — ints, floats and
strings survive it bit-for-bit.

Client -> server requests (one request per connection for ``submit``;
the others are single round trips):

=========== =========================================================
``submit``  ``{"op", "specs": [CellSpec.to_json(), ...],
            "code_version": str | null}`` — run a batch
``stats``   queue depth / hit rate / worker table / obs metrics dump
``ping``    liveness probe
``shutdown`` graceful drain: finish in-flight work, then stop
=========== =========================================================

Server -> client frames for one ``submit`` stream:

=============== =====================================================
``result``      one finished cell: ``index`` (position in the request
                batch), ``payload``, ``cached``/``deduped`` provenance
                flags and ``elapsed_s``
``cell_error``  cell ``index`` raised deterministically; ``error``
                carries the exception text
``done``        terminator: totals for the batch
``error``       request-level failure (bad frame, draining server)
=============== =====================================================

A one-shot request is answered with one ``pong``, ``bye`` or ``stats``
frame.  :func:`check_reply` strictly decodes every reply but ``error``.

Frames deliberately carry *payloads*, never decoded values: decoding
happens once, client-side, through :func:`repro.exec.pool
.decode_payload` — the same path cached and locally-computed payloads
take, so a value is identical no matter where it was computed.
"""
from __future__ import annotations

import json
from typing import Any

from repro.common.errors import ConfigError, ReproError
from repro.common.records import strict_record

#: protocol revision; servers reject frames from a different revision
#: loudly instead of guessing (bump on any frame-shape change)
PROTOCOL_VERSION = 1

#: default socket filename shared by ``repro serve`` and its clients
#: (defined here, not in service.py, so the CLI can read it without
#: importing the asyncio machinery)
DEFAULT_SOCKET = ".repro-serve.sock"

#: client -> server operations
REQUEST_OPS = ("submit", "stats", "ping", "shutdown")

#: server -> client frame kinds
REPLY_OPS = ("result", "cell_error", "done", "stats", "pong", "bye",
             "error")


class ProtocolError(ReproError):
    """A malformed or out-of-protocol frame."""


def encode_frame(frame: dict[str, Any]) -> bytes:
    """Serialize one frame canonically (the only writer in the repo)."""
    return (json.dumps(frame, sort_keys=True, separators=(",", ":"))
            + "\n").encode("utf-8")


def decode_frame(line: bytes) -> dict[str, Any]:
    """Parse one received line into a frame dict, loudly."""
    try:
        frame = json.loads(line.decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"undecodable frame: {exc}") from exc
    if not isinstance(frame, dict) or "op" not in frame:
        raise ProtocolError(
            f"frame is not an object with an 'op': {frame!r:.120}")
    return frame


def submit_frame(specs: list[dict[str, Any]],
                 code_version: str | None) -> dict[str, Any]:
    return {"op": "submit", "v": PROTOCOL_VERSION, "specs": specs,
            "code_version": code_version}


def result_frame(index: int, payload: dict[str, Any], cached: bool,
                 deduped: bool, elapsed_s: float) -> dict[str, Any]:
    return {"op": "result", "index": index, "payload": payload,
            "cached": cached, "deduped": deduped,
            "elapsed_s": elapsed_s}


def cell_error_frame(index: int, error: str) -> dict[str, Any]:
    return {"op": "cell_error", "index": index, "error": error}


def done_frame(total: int, executed: int, cached: int,
               deduped: int, retried: int) -> dict[str, Any]:
    return {"op": "done", "total": total, "executed": executed,
            "cached": cached, "deduped": deduped, "retried": retried}


#: the exact fields of each reply frame but ``error``
_REPLY_FIELDS: dict[str, dict[str, Any]] = {
    "result": {"op": str, "index": int, "payload": dict, "cached": bool,
               "deduped": bool, "elapsed_s": (float, int)},
    "cell_error": {"op": str, "index": int, "error": str},
    "done": {"op": str, "total": int, "executed": int, "cached": int,
             "deduped": int, "retried": int},
    "stats": {"op": str, "draining": bool, "queue_depth": int,
              "inflight": int, "workers": list, "metrics": dict},
    "pong": {"op": str},
    "bye": {"op": str},
}


def check_reply(frame: dict[str, Any], ops: tuple[str, ...] = (
        "result", "cell_error", "done")) -> dict[str, Any]:
    """``frame`` itself, once its op is one of ``ops`` (by default, a
    submit stream's) and it has exactly that frame's fields, each of
    its type."""
    op = frame["op"]
    if not isinstance(op, str) or op not in ops:
        raise ProtocolError(
            f"unexpected frame op {op!r} (expected {', '.join(ops)})")
    try:
        return strict_record(frame, _REPLY_FIELDS[op], f"{op} frame")
    except ConfigError as exc:
        raise ProtocolError(str(exc)) from exc


def error_frame(message: str) -> dict[str, Any]:
    return {"op": "error", "error": message}


def check_submit(frame: dict[str, Any]) -> list[dict[str, Any]]:
    """Validate a submit frame; returns the raw spec dicts."""
    if frame.get("v") != PROTOCOL_VERSION:
        raise ProtocolError(
            f"protocol revision mismatch: client sent {frame.get('v')!r},"
            f" server speaks {PROTOCOL_VERSION}")
    specs = frame.get("specs")
    if not isinstance(specs, list) or not specs \
            or not all(isinstance(s, dict) for s in specs):
        raise ProtocolError("submit needs a non-empty list of spec "
                            "objects under 'specs'")
    return specs
