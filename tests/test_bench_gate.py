"""The throughput gate of ``tools/bench_ab.py --trajectory``, fed
synthetic suite result files: no benchmark runs here."""
from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_ab.py"
PINNED = {"fig-hit": 2.0, "persist": 1.0}


@pytest.fixture(scope="module")
def bench_ab():
    spec = importlib.util.spec_from_file_location("bench_ab", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def result(rate: float, correct: bool = True, failed: int = 0) -> dict:
    return {"correct": correct, "attempted": 10, "failed": failed,
            "metrics": {"work_per_s": {"value": rate, "unit": "1/s"}}}


def write_runs(out: Path, pairs: int, parent: dict, change: dict) -> None:
    """``pairs`` identical pairs of result files in ``out``."""
    for i in range(1, pairs + 1):
        for side, results in (("parent", parent), ("change", change)):
            (out / f"{side}_{i:02d}.json").write_text(
                json.dumps({"seed": 2024, "results": results}))


def gate(bench_ab, out: Path, pinned=PINNED, **change) -> list[str]:
    """The gate's failures when the change side runs at ``pinned``
    times a parent rate of 100, with ``change`` overriding workloads."""
    parent = {w: result(100.0) for w in PINNED}
    results = {w: result(100.0 * r) for w, r in PINNED.items()}
    results.update(change)
    write_runs(out, bench_ab.GATE_PAIRS, parent, results)
    return bench_ab.check_trajectory(pinned, out)


def test_at_the_pinned_ratio_passes(bench_ab, tmp_path, capsys):
    assert gate(bench_ab, tmp_path) == []
    assert "fig-hit: work_per_s ratio 2.000" in capsys.readouterr().out


def test_a_25_percent_decay_fails_naming_the_workload(bench_ab, tmp_path):
    failures = gate(bench_ab, tmp_path, persist=result(75.0))
    assert len(failures) == 1
    assert failures[0].startswith("persist: work_per_s ratio 0.750")


def test_a_decay_within_the_bound_passes(bench_ab, tmp_path):
    assert gate(bench_ab, tmp_path, persist=result(81.0)) == []


def test_a_workload_missing_from_the_results_fails(bench_ab, tmp_path):
    parent = {w: result(100.0) for w in PINNED}
    write_runs(tmp_path, bench_ab.GATE_PAIRS, parent,
               {"fig-hit": result(200.0)})
    assert bench_ab.check_trajectory(PINNED, tmp_path) == [
        "persist: missing from the results"]


def test_a_workload_missing_from_the_trajectory_fails(bench_ab, tmp_path):
    failures = gate(bench_ab, tmp_path, pinned={"fig-hit": 2.0})
    assert failures == ["persist: no pinned ratio in the trajectory file"]


def test_a_zero_rate_fails(bench_ab, tmp_path):
    failures = gate(bench_ab, tmp_path, persist=result(0.0))
    assert failures == ["persist: work_per_s is 0.0"]


def test_an_incorrect_run_fails(bench_ab, tmp_path):
    failures = gate(bench_ab, tmp_path,
                    persist=result(100.0, correct=False))
    assert len(failures) == bench_ab.GATE_PAIRS
    assert all("persist correct=False" in f for f in failures)


def test_a_failed_op_fails(bench_ab, tmp_path):
    failures = gate(bench_ab, tmp_path, persist=result(100.0, failed=1))
    assert failures and all("persist correct=True failed=1" in f
                            for f in failures)


def test_a_missing_result_file_fails(bench_ab, tmp_path):
    gate(bench_ab, tmp_path)
    (tmp_path / "change_02.json").unlink()
    failures = bench_ab.check_trajectory(PINNED, tmp_path)
    assert "change_02.json: no result" in failures


def test_the_median_pair_decides(bench_ab, tmp_path):
    gate(bench_ab, tmp_path)
    slow = {"results": {"fig-hit": result(100.0),
                        "persist": result(50.0)}}
    (tmp_path / "change_03.json").write_text(json.dumps(slow))
    assert bench_ab.check_trajectory(PINNED, tmp_path) == []


def test_the_checked_in_trajectory_covers_the_benchmark():
    root = TOOL.parent.parent
    trajectory = json.loads(
        (root / "benchmarks/results/suite_trajectory.json").read_text())
    spec = json.loads((root / "BENCHMARK.json").read_text())
    assert set(trajectory["ratios"]) == {w["name"]
                                         for w in spec["workloads"]}
    assert all(r > 0 for r in trajectory["ratios"].values())
