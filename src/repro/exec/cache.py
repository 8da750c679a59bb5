"""Pluggable content-addressed result-cache backends.

A *backend* is any store of completed cell payloads addressed by the
canonical spec key (:func:`repro.exec.spec.cell_key`).  The contract,
:class:`CacheBackend`, is two methods — ``get`` / ``put`` — plus
three invariants every implementation must uphold (pinned for all of
them by ``tests/test_cache_backend.py``):

* **corruption is discarded, never trusted** — an unreadable entry, an
  unparsable one, or an envelope whose ``key`` does not match its
  address makes ``get`` return ``None`` (miss -> recompute); the cache
  can only ever make a sweep faster, not wrong;
* **puts are atomic** — a reader never observes a half-written entry,
  and concurrent writers of the same key are benign (cells are
  deterministic, so both write the same bytes);
* **unknown kinds fail loudly** — a structurally valid envelope whose
  ``kind`` is not one the executor knows means a newer writer (or a
  schema mismatch) shares this store, and silently recomputing would
  mask that misconfiguration, so ``get`` raises ``ConfigError``.  In
  practice the ``CACHE_SCHEMA`` component of the cell key prevents the
  collision — a new kind ships with a schema bump, so keys computed by
  old and new code never alias.

Backends:

* :class:`LocalDirBackend` — the on-disk store, sharded two levels deep
  (``<root>/<key[:2]>/<key>.json``) so a big campaign does not put
  thousands of files in one directory.  :data:`ResultCache` is its
  historical name and remains the default everywhere.
* :class:`MemoryBackend` — a dict-backed store for tests and for
  in-process dedup experiments; same envelope validation as disk.

Every entry is a self-validating envelope::

    {"key": <cell key>, "kind": <cell kind>, "payload": {...}}
"""
from __future__ import annotations

import abc
import json
import os
import pathlib
import tempfile
from typing import Any

from repro.common.errors import ConfigError
from repro.exec.spec import KINDS


def encode_envelope(key: str, kind: str, payload: dict[str, Any]) -> str:
    """The canonical serialized envelope for one completed cell."""
    return json.dumps({"key": key, "kind": kind, "payload": payload},
                      sort_keys=True)


def validate_envelope(envelope: Any, key: str,
                      source: str) -> dict[str, Any] | None:
    """Check a decoded envelope against its address.

    Returns the payload on success, ``None`` for corruption (caller
    discards and recomputes), and raises :class:`ConfigError` for the
    one case that must not be silent: a well-formed envelope whose
    ``kind`` this executor does not know.
    """
    if (not isinstance(envelope, dict)
            or envelope.get("key") != key
            or not isinstance(envelope.get("payload"), dict)):
        return None
    kind = envelope.get("kind")
    if kind not in KINDS:
        raise ConfigError(
            f"cache entry {source} carries unknown cell kind {kind!r} "
            f"(known: {KINDS}); this cache was written by an "
            "incompatible version — point the cache elsewhere or "
            "remove the entry")
    return envelope["payload"]


class CacheBackend(abc.ABC):
    """Protocol of a content-addressed result store.

    Keys are :func:`~repro.exec.spec.cell_key` hex digests; payloads are
    the JSON-serializable cell payloads :func:`~repro.exec.pool
    .execute_cell` produces.  Implementations must satisfy the three
    invariants in the module docstring.
    """

    @abc.abstractmethod
    def get(self, key: str) -> dict[str, Any] | None:
        """The cached payload for ``key``, or None on miss/corruption."""

    @abc.abstractmethod
    def put(self, key: str, kind: str, payload: dict[str, Any]) -> None:
        """Persist one completed cell atomically."""


class LocalDirBackend(CacheBackend):
    """Sharded on-disk store at ``<root>/<key[:2]>/<key>.json``.

    Writes are atomic (temp file + ``os.replace``), so a crash
    mid-``put`` leaves either the old entry or no entry.
    """

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = pathlib.Path(root)

    def path_for(self, key: str) -> pathlib.Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> dict[str, Any] | None:
        path = self.path_for(key)
        try:
            envelope = json.loads(path.read_text())
        except FileNotFoundError:
            return None
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            self._discard(path)
            return None
        payload = validate_envelope(envelope, key, str(path))
        if payload is None:
            self._discard(path)
        return payload

    def put(self, key: str, kind: str, payload: dict[str, Any]) -> None:
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        # a private temp name per writer (mkstemp), so concurrent puts
        # of one key — same bytes, cells are deterministic — never share
        # a staging file; os.replace makes the publish atomic
        fd, tmp = tempfile.mkstemp(prefix=f".{key[:8]}.",
                                   suffix=".tmp", dir=path.parent)
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(encode_envelope(key, kind, payload))
            os.replace(tmp, path)
        except OSError:
            self._discard(pathlib.Path(tmp))
            raise

    @staticmethod
    def _discard(path: pathlib.Path) -> None:
        """Best-effort removal of a corrupted entry."""
        try:
            path.unlink()
        except OSError:
            pass


#: the historical name of the on-disk backend; every CLI flag and call
#: site that says ``ResultCache(dir)`` keeps working unchanged.
ResultCache = LocalDirBackend


class MemoryBackend(CacheBackend):
    """Dict-backed store with the same envelope discipline as disk.

    Entries round-trip through the serialized envelope on both ``put``
    and ``get``, so a caller can never mutate a cached payload in place
    and corruption injected by tests exercises exactly the disk
    backend's validation path.
    """

    def __init__(self) -> None:
        self._entries: dict[str, str] = {}

    def get(self, key: str) -> dict[str, Any] | None:
        raw = self._entries.get(key)
        if raw is None:
            return None
        try:
            envelope = json.loads(raw)
        except (json.JSONDecodeError, UnicodeDecodeError):
            self._entries.pop(key, None)
            return None
        payload = validate_envelope(envelope, key, f"memory:{key[:12]}")
        if payload is None:
            self._entries.pop(key, None)
        return payload

    def put(self, key: str, kind: str, payload: dict[str, Any]) -> None:
        # a single dict assignment of the fully-built string: atomic
        self._entries[key] = encode_envelope(key, kind, payload)

    def corrupt(self, key: str, garbage: str) -> None:
        """Test hook: overwrite an entry with raw garbage."""
        self._entries[key] = garbage

    def __len__(self) -> int:
        return len(self._entries)
