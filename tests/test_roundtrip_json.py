"""Property tests: every result type survives a JSON round-trip losslessly.

The cache persists results as JSON, so ``from_json(to_json(x)) == x``
(after a real ``json.dumps``/``loads``, not just dict copying) is a
correctness requirement, not a convenience.  Inputs are fuzzed with a
seeded RNG so the property is exercised across many value shapes while
staying deterministic.
"""
import json
import math

import pytest

from repro.baselines.report import RecoveryReport
from repro.common.rng import make_rng
from repro.exec import CellSpec
from repro.explore.runner import ExploreCaseResult
from repro.sim.stats import RunResult

N_CASES = 50


def through_json(obj):
    """Encode to a real JSON string and back — catches types that only
    survive dict copying (tuples, numpy scalars, non-string keys)."""
    return json.loads(json.dumps(obj.to_json(), sort_keys=True))


def rngs():
    return [make_rng(1000 + i, "roundtrip") for i in range(N_CASES)]


def randrange(rng, lo, hi=None):
    if hi is None:
        lo, hi = 0, lo
    return int(rng.integers(lo, hi))


def choice(rng, options):
    return options[randrange(rng, len(options))]


def fuzz_float(rng):
    # exercise shortest-repr round-tripping on awkward values
    return choice(rng, [
        0.0, 1.0, float(rng.random()) * 1e9, float(rng.random()) * 1e-9,
        1 / 3, math.pi * float(rng.random()),
        float(randrange(rng, 1 << 53)),
    ])


@pytest.mark.parametrize("rng", rngs())
def test_run_result_round_trips(rng):
    result = RunResult(
        scheme=choice(rng, ["wb-gc", "asit", "steins"]),
        workload=choice(rng, ["pers_hash", "cactusADM", "lbm_r"]),
        exec_time_ns=fuzz_float(rng),
        data_reads=randrange(rng, 1 << 40),
        data_writes=randrange(rng, 1 << 40),
        avg_read_latency_ns=fuzz_float(rng),
        avg_write_latency_ns=fuzz_float(rng),
        nvm_write_traffic=randrange(rng, 1 << 40),
        nvm_read_traffic=randrange(rng, 1 << 40),
        energy_nj=fuzz_float(rng),
        metadata_cache_hit_rate=float(rng.random()),
        detail={f"k{i}": fuzz_float(rng) for i in range(randrange(rng, 4))},
    )
    assert RunResult.from_json(through_json(result)) == result


@pytest.mark.parametrize("rng", rngs())
def test_recovery_report_round_trips(rng):
    report = RecoveryReport(
        scheme=choice(rng, ["steins", "osiris", "anubis"]),
        nvm_reads=randrange(rng, 1 << 32),
        nvm_writes=randrange(rng, 1 << 32),
        hashes=randrange(rng, 1 << 32),
        nodes_recovered=randrange(rng, 1 << 20),
    )
    keys = sorted(RecoveryReport.KNOWN_KEYS)
    for key in keys[:randrange(rng, len(keys))]:
        report.bump(key, randrange(rng, 1, 1 << 16))
    assert RecoveryReport.from_json(through_json(report)) == report


def test_recovery_report_rejects_undeclared_detail_keys():
    data = RecoveryReport(scheme="steins").to_json()
    data["detail"] = {"typo_counter": 1}
    with pytest.raises(ValueError):
        RecoveryReport.from_json(data)


@pytest.mark.parametrize("rng", rngs())
def test_case_result_round_trips(rng):
    result = ExploreCaseResult(
        outcome=choice(rng, ["match", "detected", "silent_corruption"]),
        crash_point=choice(rng, ["", "ctr_write", "tree_update"]),
        crash_index=randrange(rng, -1, 1 << 20),
        recovery_crashed=float(rng.random()) < 0.5,
        second_crash_point=choice(rng, ["", "controller.evict"]),
        second_crash_index=randrange(rng, -1, 1 << 20),
        recovery_fires=randrange(rng, 1 << 10),
        resumed_fires=randrange(rng, 1 << 10),
        divergences=choice(rng, [[], [{"kind": "read", "where": "block 3",
                                       "expected": "1", "got": "2"}]]),
        detail=choice(rng, ["", "minimized to access 17"]),
    )
    assert ExploreCaseResult.from_json(through_json(result)) == result


@pytest.mark.parametrize("rng", rngs())
def test_cell_spec_round_trips(rng):
    kind = choice(rng, ["sim", "explore"])
    spec = CellSpec(
        kind=kind,
        variant=choice(rng, ["wb-gc", "asit", "steins"]),
        workload=choice(rng, ["pers_hash", "cactusADM"]),
        accesses=randrange(rng, 1, 1 << 20),
        footprint_blocks=randrange(rng, 1, 1 << 20),
        seed=randrange(rng, 1 << 32),
        config=choice(rng, [None, {"clock_ghz": 2.0}]),
        fault={"mode": "case", "crash_after": randrange(rng, 1 << 10)}
        if kind != "sim" else None,
    )
    assert CellSpec.from_json(through_json(spec)) == spec
