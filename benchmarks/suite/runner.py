"""Run one workload the way BENCHMARK.json describes it.

Every measurement happens in a fresh single-threaded child interpreter
(``child.py``) with ``PYTHONPATH=src``, one at a time, so no process
inherits memos or caches from another and at most one core is busy:

* untraced (``trace=False``): five ``setup`` children give ``setup_s``,
  and one ``measure`` child runs the workload and gives every other
  end-to-end metric;
* traced (``trace=True``): one untraced and one traced child run the
  workload; the traced child gives the per-layer metrics, the pair
  gives ``trace.overhead``, and their outputs must hash equal.
"""
from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

from benchmarks.suite.workloads import WORKLOADS

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parent.parent
BENCHMARK = ROOT / "BENCHMARK.json"
EXPECTED = SUITE / "expected.json"
#: where traced runs write layers.json and trace.json, per workload
TRACE_DIR = SUITE / "out"

SETUP_REPEATS = 5
#: a run ends within this many seconds, children included
RUN_TIMEOUT_S = 170


class ChildFailed(RuntimeError):
    """A child interpreter exited abnormally (no result to report)."""


def benchmark_spec() -> dict[str, Any]:
    return json.loads(BENCHMARK.read_text())


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    # one core per child, and str hashing that does not vary between runs
    env.update(PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def run_child(args: list[str], deadline: float) -> dict[str, Any]:
    """Run one child to completion before ``deadline`` (monotonic)."""
    cmd = [sys.executable, "-m", "benchmarks.suite.child", *args]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), text=True,
                              capture_output=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{' '.join(args)}: out of time") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{' '.join(args)}: exit {proc.returncode}\n"
                          + proc.stderr[-2000:])
    return json.loads(lines[-1])


def percentile(values: list[float], pct: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def pinned_rounds(workload: str, seed: int, scale: float
                  ) -> list[str] | None:
    """Round hashes pinned in expected.json, or None where nothing is
    pinned (other seeds, and runs below full size)."""
    if scale != 1.0:
        return None
    pins = json.loads(EXPECTED.read_text())
    return pins.get(str(seed), {}).get(workload)


def mismatched_ops(rounds: list[dict[str, Any]],
                   reference: list[str]) -> int:
    """Ops of every round whose hash differs from its reference, or
    that has no reference."""
    return sum(rnd["ops"] for i, rnd in enumerate(rounds)
               if i >= len(reference) or rnd["hash"] != reference[i])


def with_units(values: dict[str, float], group: str) -> dict[str, Any]:
    """Attach each metric's unit from BENCHMARK.json; every metric the
    file names must be present and nothing else."""
    units = {m["name"]: m["unit"] for m in benchmark_spec()[group]}
    if set(values) != set(units):
        raise ValueError(
            f"{group} metrics differ from BENCHMARK.json: missing "
            f"{sorted(set(units) - set(values))}, extra "
            f"{sorted(set(values) - set(units))}")
    return {name: {"value": values[name], "unit": units[name]}
            for name in units}


def run_workload(workload: str, seed: int, trace: bool,
                 scale: float = 1.0) -> dict[str, Any]:
    """One benchmark run of ``workload``.

    Returns the result line (``correct``, ``attempted``, ``failed``,
    ``metrics``) plus a ``detail`` entry with sample counts, simulated
    values and errors.  ``scale`` shrinks every op (tests use 0.01);
    pinned hashes apply only at full size.
    """
    deadline = time.monotonic() + RUN_TIMEOUT_S
    base = ["--workload", workload, "--seed", str(seed),
            "--scale", repr(scale)]
    if trace:
        plain = run_child(["measure", *base], deadline)
        traced = run_child(["measure", *base, "--trace-dir",
                            str(TRACE_DIR / workload)], deadline)
        values = dict(traced["layers"])
        values["trace.overhead"] = traced["seconds"] / plain["seconds"]
        metrics = with_units(values, "per_layer")
        children = [plain, traced]
        failed = mismatched_ops(traced["rounds"],
                                [r["hash"] for r in plain["rounds"]])
        samples = {}
    else:
        def setup_probe() -> float:
            return run_child(["setup", *base], deadline)["setup_s"]

        # probes on both sides of the measuring child, so one slow phase
        # of the host does not hold the whole median
        setup_s = [setup_probe() for _ in range(SETUP_REPEATS // 2)]
        plain = run_child(["measure", *base], deadline)
        setup_s += [setup_probe()
                    for _ in range(SETUP_REPEATS - len(setup_s))]
        # every op time is already rescaled to reference speed
        # (Recorder.calibrate)
        latencies = plain["latencies"]
        metrics = with_units({
            "work_per_s": plain["work"] / plain["seconds"],
            "op_ms_p50": percentile(latencies, 50) * 1e3,
            "op_ms_p90": percentile(latencies, 90) * 1e3,
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": plain["peak_rss_mb"],
        }, "end_to_end")
        children = [plain]
        failed = 0
        samples = {"work_per_s": len(latencies),
                   "op_ms_p50": len(latencies), "op_ms_p90": len(latencies),
                   "setup_s": len(setup_s)}
    pins = pinned_rounds(workload, seed, scale)
    if pins is not None:
        failed += mismatched_ops(plain["rounds"], pins)
    failed += sum(c["failed"] for c in children)
    errors = [e for c in children for e in c["errors"]]
    if failed and not errors:
        errors.append("simulated outputs differ from their reference hashes")
    leftover = sum(c["wrappers_installed"] for c in children)
    if leftover:
        errors.append(f"{leftover} span wrappers left installed")
    sim = children[-1]["sim"]
    return {
        "correct": failed == 0 and not errors,
        "attempted": sum(c["attempted"] for c in children),
        "failed": failed,
        "metrics": metrics,
        "detail": {
            "unit_of_work": WORKLOADS[workload].unit,
            "ops": len(plain["latencies"]),
            "round_hashes": [r["hash"] for r in children[-1]["rounds"]],
            "pinned_rounds_checked": 0 if pins is None
                                     else len(plain["rounds"]),
            "samples": samples,
            "wrappers_installed": [c["wrappers_installed"]
                                   for c in children],
            "sim": {
                key: statistics.median(vals) for key, vals in sim.items()
                if key in ("steins_exec_norm", "steins_recovery_sim_ms")},
            "errors": errors,
        },
    }
