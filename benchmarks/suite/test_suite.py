"""Self-test of the benchmark suite: every workload at 1% size, through
the same child processes a full run uses.

    PYTHONPATH=src python -m pytest benchmarks/suite/test_suite.py -q
"""
from __future__ import annotations

import pytest

from benchmarks.suite.compare import label, win_rate
from benchmarks.suite.runner import (
    benchmark_spec,
    mismatched_ops,
    run_workload,
)
from benchmarks.suite.spans import LAYERS
from benchmarks.suite.workloads import WORKLOADS

SCALE = 0.01
SEED = 2024


@pytest.fixture(scope="module")
def results() -> dict[tuple[str, bool], dict]:
    return {(name, trace): run_workload(name, SEED, trace=trace,
                                        scale=SCALE)
            for name in WORKLOADS for trace in (False, True)}


def test_workloads_match_benchmark_json() -> None:
    assert [w["name"] for w in benchmark_spec()["workloads"]] == \
        list(WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_metric_emitted_with_its_unit(results, name, trace) -> None:
    result = results[(name, trace)]
    assert result["correct"], result["detail"]["errors"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    group = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in benchmark_spec()[group]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == expected
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_and_untraced_hashes_equal(results, name) -> None:
    plain = results[(name, False)]["detail"]["round_hashes"]
    traced = results[(name, True)]["detail"]["round_hashes"]
    assert plain and traced == plain


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_self_fractions_cover_the_timed_region(results, name) -> None:
    metrics = results[(name, True)]["metrics"]
    total = sum(metrics[f"{layer}.self_frac"]["value"] for layer in LAYERS)
    assert total == pytest.approx(1.0, abs=0.02)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_no_wrapper_left_installed(results, name, trace) -> None:
    assert results[(name, trace)]["detail"]["wrappers_installed"] == \
        [0] * (2 if trace else 1)


def test_compare_labels() -> None:
    parent = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert label(parent, [100.2, 99.8, 100.1, 100.4, 99.6], 0.07,
                 True) == "same"
    assert label(parent, [90.0, 91.0, 89.0, 90.5, 89.5], 0.07,
                 True) == "worse"
    assert label(parent, [103.0, 104.0, 103.5, 102.9, 103.2], 0.07,
                 True) == "same"
    assert label(parent, [110.0, 111.0, 109.0, 110.5, 109.5], 0.07,
                 True) == "better"
    assert label(parent, [60.0, 140.0, 100.0, 70.0, 130.0], 0.07,
                 True) == "unresolved"
    assert win_rate(parent, [101.0] * 5, True) == (4, 5)


def test_a_round_without_its_pin_fails() -> None:
    rounds = [{"hash": "a", "ops": 3}, {"hash": "b", "ops": 4},
              {"hash": "c", "ops": 5}]
    assert mismatched_ops(rounds, ["a", "b", "c"]) == 0
    assert mismatched_ops(rounds, ["a", "x", "c"]) == 4
    assert mismatched_ops(rounds, ["a", "b"]) == 5
