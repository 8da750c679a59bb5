"""Cache correctness: the cache may only ever make sweeps faster.

Covers the satellite checklist explicitly: hit on an identical spec,
miss on any config / seed / version-tag change, and a corrupted entry
being discarded and recomputed rather than trusted.
"""
import dataclasses
import json

import pytest

from repro.common.config import small_config
from repro.common.errors import ConfigError
from repro.exec import (
    CellSpec,
    ResultCache,
    cell_key,
    config_from_dict,
    config_to_dict,
    run_sweep,
)

CFG = config_to_dict(small_config())


def spec(**overrides) -> CellSpec:
    base = dict(kind="sim", variant="wb-gc", workload="pers_hash",
                accesses=600, footprint_blocks=1024, seed=7, config=CFG)
    base.update(overrides)
    return CellSpec(**base)


class TestCellKey:
    def test_identical_specs_share_a_key(self):
        assert cell_key(spec()) == cell_key(spec())

    def test_any_field_change_changes_the_key(self):
        base = cell_key(spec())
        assert cell_key(spec(seed=8)) != base
        assert cell_key(spec(accesses=601)) != base
        assert cell_key(spec(workload="pers_swap")) != base
        assert cell_key(spec(variant="asit")) != base
        assert cell_key(spec(footprint_blocks=2048)) != base

    def test_config_change_changes_the_key(self):
        other = dict(CFG)
        other["clock_ghz"] = 3.0
        assert cell_key(spec(config=other)) != cell_key(spec())

    def test_deep_config_change_changes_the_key(self):
        other = json.loads(json.dumps(CFG))
        other["security"]["hash_cycles"] += 1
        assert cell_key(spec(config=other)) != cell_key(spec())

    def test_version_tag_change_changes_the_key(self):
        assert cell_key(spec(), code_version="1.0.0/1") \
            != cell_key(spec(), code_version="1.0.1/1")
        assert cell_key(spec(), code_version="1.0.0/1") \
            != cell_key(spec(), code_version="1.0.0/2")

    def test_fault_plan_is_covered(self):
        a = spec(kind="explore", fault={"mode": "case", "crash_after": 3})
        b = spec(kind="explore", fault={"mode": "case", "crash_after": 4})
        assert cell_key(a) != cell_key(b)


class TestResultCache:
    def test_hit_on_identical_spec(self, tmp_path):
        cache = ResultCache(tmp_path)
        first = run_sweep([spec()], cache=cache)
        assert first.executed == 1 and first.cached == 0
        second = run_sweep([spec()], cache=cache)
        assert second.executed == 0 and second.cached == 1
        assert second.values[0].to_json() == first.values[0].to_json()

    def test_miss_on_seed_config_and_version_change(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_sweep([spec()], cache=cache)
        assert run_sweep([spec(seed=8)], cache=cache).executed == 1
        other = dict(CFG)
        other["clock_ghz"] = 3.0
        assert run_sweep([spec(config=other)], cache=cache).executed == 1
        assert run_sweep([spec()], cache=cache,
                         code_version="next/1").executed == 1
        # and the original key still hits
        assert run_sweep([spec()], cache=cache).cached == 1

    @pytest.mark.parametrize("garbage", [
        "not json at all {",
        '{"key": "wrong-key", "payload": {}}',
        '{"payload": 42}',
        '["a", "list"]',
    ])
    def test_corrupted_entry_is_discarded_and_recomputed(self, tmp_path,
                                                         garbage):
        cache = ResultCache(tmp_path)
        fresh = run_sweep([spec()], cache=cache)
        key = cell_key(spec())
        path = cache.path_for(key)
        assert path.exists()
        path.write_text(garbage)
        again = run_sweep([spec()], cache=cache)
        assert again.executed == 1, "corrupted entry must not be trusted"
        assert again.values[0].to_json() == fresh.values[0].to_json()
        # the recompute healed the entry on disk
        assert run_sweep([spec()], cache=cache).cached == 1

    def test_get_returns_none_on_missing(self, tmp_path):
        assert ResultCache(tmp_path).get("0" * 64) is None


class TestCacheSchema:
    """The ``CACHE_SCHEMA`` contract around the "explore" kind addition.

    A new cell kind must never invalidate existing entries retroactively
    — old entries just sit at their old addresses — and an envelope
    carrying a kind the executor does not know must fail *loudly*, not
    silently recompute (it means an incompatible writer shares the
    cache directory).
    """

    def test_schema_is_six(self):
        from repro.exec.spec import CACHE_SCHEMA, KINDS

        # schema 7: one case runner (clean plans are crashless cases)
        assert CACHE_SCHEMA == 7
        assert "explore" in KINDS

    @pytest.mark.parametrize("kind", ["probe", "fault", "oracle"])
    def test_retired_kinds_rejected(self, kind):
        # fault-campaign probes and cases are "explore" cells since
        # schema 3, and so are the oracle's cases since schema 5
        with pytest.raises(ConfigError, match="unknown cell kind"):
            spec(kind=kind, fault={"crash_after": 3})

    @pytest.mark.parametrize("kind, payload", [
        ("sim", {}),
        ("sim", {"case": {"outcome": "match"}}),
        # the envelope oracle tamper and mutant cells wrote before
        # schema 4
        ("explore", {"result": {"scheme": "steins", "outcome": "detected"}}),
        # a probe or case without its envelope
        ("explore", {"fires": []}),
        ("explore", {"result": {"outcome": "match"}}),
    ])
    def test_malformed_payload_rejected_loudly(self, kind, payload):
        from repro.exec import decode_payload

        plan = None if kind == "sim" else {"mode": "clean"}
        keys = str(sorted(payload))
        with pytest.raises(ConfigError) as err:
            decode_payload(spec(kind=kind, variant="steins", fault=plan),
                           payload)
        assert repr(kind) in str(err.value) and keys in str(err.value)

    def test_key_pinned_under_explicit_version(self):
        # golden hash re-pinned when "check" left the spec encoding:
        # growing the kind tuple must not shift keys of existing kinds —
        # only the key's own inputs (spec fields + code_version) may
        # move it
        assert cell_key(spec(), code_version="golden/1") == \
            "40e9f15cc8b9ca5db119b497cd7efa615712dfdbfdbf35aa26abdf47efb7d8d9"

    def test_schema_bump_relocates_but_never_rewrites(self, tmp_path):
        cache = ResultCache(tmp_path)
        old_key = cell_key(spec(), code_version="1.0.0/1")
        cache.put(old_key, "sim", {"marker": 1})
        # schema-2 code computes a different address and misses cleanly
        new_key = cell_key(spec(), code_version="1.0.0/2")
        assert new_key != old_key
        assert cache.get(new_key) is None
        # the schema-1 entry is untouched at its old address
        assert cache.get(old_key) == {"marker": 1}

    def test_unknown_kind_envelope_rejected_loudly(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cell_key(spec())
        cache.put(key, "plasma", {"payload-looks": "fine"})
        with pytest.raises(ConfigError, match="plasma"):
            cache.get(key)

    def test_explore_kind_requires_a_case_plan(self):
        with pytest.raises(ConfigError):
            spec(kind="explore", fault=None)
        s = spec(kind="explore", fault={"mode": "probe"})
        assert cell_key(s) != cell_key(spec())


class TestConfigIO:
    def test_round_trip_through_json(self):
        cfg = small_config()
        data = json.loads(json.dumps(config_to_dict(cfg)))
        assert config_from_dict(data) == cfg

    def test_enums_encode_by_value(self):
        assert CFG["security"]["counter_mode"] == "general"
        assert CFG["security"]["update_scheme"] == "lazy"

    def test_unknown_field_rejected(self):
        data = dict(CFG)
        data["warp_drive"] = True
        with pytest.raises(ConfigError):
            config_from_dict(data)

    def test_validation_reruns_on_decode(self):
        data = json.loads(json.dumps(CFG))
        data["clock_ghz"] = -1.0
        with pytest.raises(ConfigError):
            config_from_dict(data)

    def test_decoded_config_is_a_real_dataclass(self):
        cfg = config_from_dict(CFG)
        assert dataclasses.is_dataclass(cfg)
        assert cfg.security.metadata_cache.num_sets > 0
