"""Backend conformance: every CacheBackend upholds the same contract.

The suite is written once against the :class:`CacheBackend` protocol
and parametrized over every implementation, so a future backend joins
by adding one fixture row.  The three pinned invariants: corrupted
envelopes are discarded (never trusted), puts are atomic, and a
schema/version change relocates entries instead of rewriting them.
"""
import json
import threading

import pytest

from repro.common.errors import ConfigError
from repro.exec import (
    CacheBackend,
    CellSpec,
    LocalDirBackend,
    MemoryBackend,
    ResultCache,
    cell_key,
)
from repro.exec.cache import encode_envelope, validate_envelope

KEY = cell_key(CellSpec("sim", "wb-gc", "pers_hash", 600, 1024, 7))
OTHER = cell_key(CellSpec("sim", "asit", "pers_hash", 600, 1024, 7))
PAYLOAD = {"result": {"marker": 1, "nested": [1, 2, 3]}}

GARBAGE = [
    "not json at all {",
    '{"key": "wrong-key", "kind": "sim", "payload": {}}',
    '{"key": "%s", "kind": "sim", "payload": 42}' % KEY,
    '["a", "list"]',
]


@pytest.fixture(params=["local", "memory"])
def backend(request, tmp_path):
    if request.param == "local":
        return LocalDirBackend(tmp_path)
    return MemoryBackend()


def corrupt(backend, key, garbage):
    """Plant raw garbage at a key through the backend's own storage."""
    if isinstance(backend, LocalDirBackend):
        path = backend.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(garbage)
    else:
        backend.corrupt(key, garbage)


class TestConformance:
    def test_is_a_cache_backend(self, backend):
        assert isinstance(backend, CacheBackend)

    def test_miss_returns_none(self, backend):
        assert backend.get(KEY) is None

    def test_round_trip(self, backend):
        backend.put(KEY, "sim", PAYLOAD)
        assert backend.get(KEY) == PAYLOAD
        assert backend.get(OTHER) is None

    def test_payloads_cannot_be_mutated_in_place(self, backend):
        backend.put(KEY, "sim", PAYLOAD)
        stolen = backend.get(KEY)
        stolen["result"]["marker"] = 999
        assert backend.get(KEY) == PAYLOAD

    def test_overwrite_is_last_writer_wins(self, backend):
        backend.put(KEY, "sim", PAYLOAD)
        backend.put(KEY, "sim", {"result": {"marker": 2}})
        assert backend.get(KEY) == {"result": {"marker": 2}}

    @pytest.mark.parametrize("garbage", GARBAGE)
    def test_corrupted_entry_discarded_not_trusted(self, backend,
                                                   garbage):
        backend.put(KEY, "sim", PAYLOAD)
        corrupt(backend, KEY, garbage)
        assert backend.get(KEY) is None, \
            "a corrupted entry must read as a miss"
        # the discard healed the slot: a re-put works and reads back
        backend.put(KEY, "sim", PAYLOAD)
        assert backend.get(KEY) == PAYLOAD

    def test_contains_never_true_for_rejected_entries(self, backend):
        corrupt(backend, KEY, GARBAGE[0])
        assert backend.get(KEY) is None

    def test_unknown_kind_raises_loudly(self, backend):
        backend.put(KEY, "plasma", PAYLOAD)
        with pytest.raises(ConfigError, match="plasma"):
            backend.get(KEY)

    def test_schema_version_change_relocates_entries(self, backend):
        spec = CellSpec("sim", "wb-gc", "pers_hash", 600, 1024, 7)
        old_key = cell_key(spec, code_version="1.0.0/1")
        new_key = cell_key(spec, code_version="1.0.0/2")
        backend.put(old_key, "sim", PAYLOAD)
        assert new_key != old_key
        assert backend.get(new_key) is None, \
            "a schema bump must miss cleanly, not alias old entries"
        assert backend.get(old_key) == PAYLOAD, \
            "old entries stay untouched at their old addresses"

    def test_concurrent_same_key_puts_are_benign(self, backend):
        # deterministic cells => racing writers write identical bytes;
        # the backend must end in a valid entry, not a torn one
        def writer():
            for _ in range(50):
                backend.put(KEY, "sim", PAYLOAD)

        threads = [threading.Thread(target=writer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert backend.get(KEY) == PAYLOAD


class TestLocalDirAtomicity:
    def test_put_leaves_no_temp_files(self, tmp_path):
        backend = LocalDirBackend(tmp_path)
        backend.put(KEY, "sim", PAYLOAD)
        leftovers = [p for p in tmp_path.rglob("*") if p.is_file()
                     and p.suffix != ".json"]
        assert leftovers == []

    def test_entry_on_disk_is_the_canonical_envelope(self, tmp_path):
        backend = LocalDirBackend(tmp_path)
        backend.put(KEY, "sim", PAYLOAD)
        raw = backend.path_for(KEY).read_text()
        assert raw == encode_envelope(KEY, "sim", PAYLOAD)
        assert json.loads(raw)["key"] == KEY

    def test_sharded_layout(self, tmp_path):
        backend = LocalDirBackend(tmp_path)
        backend.put(KEY, "sim", PAYLOAD)
        assert backend.path_for(KEY).parent.name == KEY[:2]

    def test_result_cache_is_the_local_backend(self):
        assert ResultCache is LocalDirBackend


class TestEnvelopeHelpers:
    def test_validate_accepts_the_canonical_encoding(self):
        envelope = json.loads(encode_envelope(KEY, "sim", PAYLOAD))
        assert validate_envelope(envelope, KEY, "test") == PAYLOAD

    def test_validate_rejects_key_mismatch(self):
        envelope = json.loads(encode_envelope(KEY, "sim", PAYLOAD))
        assert validate_envelope(envelope, OTHER, "test") is None

    def test_validate_rejects_non_dict_shapes(self):
        assert validate_envelope(["list"], KEY, "test") is None
        assert validate_envelope(None, KEY, "test") is None
        assert validate_envelope({"key": KEY, "kind": "sim",
                                  "payload": 3}, KEY, "test") is None
