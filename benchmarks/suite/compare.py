"""A/B comparison of result files written by ``run --out``.

One row per (workload, metric): each side's median and quartiles, the
change as a share of the parent median (positive = better), and a label
read against the metric's bound in BENCHMARK.json:

* ``unresolved`` - either side's quartile spread exceeds the bound, and
  not every change run beats every parent run;
* ``worse``      - the change median is worse by more than the bound;
* ``better``     - the change median is better by more than the bound;
* ``same``       - otherwise.  A smaller gain is shown by ``--claim``.

Per-layer metrics have no bound and are listed with label ``-``.
``--claim WORKLOAD:METRIC`` adds the win rate over (parent, change)
pairs, in the order given: a gain is claimed only when the change wins
at least 9 of 10 pairs (ties count for neither side) and the medians
differ by more than the parent's quartile spread.
"""
from __future__ import annotations

import json
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Any

#: wins needed over the pairs run for a claimed gain
WIN_SHARE = 0.9


@dataclass
class Row:
    workload: str
    metric: str
    unit: str
    bound: float | None
    higher_is_better: bool
    parent: list[float]
    change: list[float]
    label: str
    delta: float


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    """Quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def load_runs(paths: list[str]) -> list[dict[str, dict[str, Any]]]:
    """Each file as {workload: {metric: {"value", "unit"}}}."""
    runs = []
    for path in paths:
        doc = json.loads(Path(path).read_text())
        runs.append({w: r["metrics"] for w, r in doc["results"].items()})
    return runs


def gain(parent: list[float], change: list[float],
         higher_is_better: bool) -> float:
    """The change in median as a share of the parent's; > 0 is better."""
    sign = 1.0 if higher_is_better else -1.0
    mp = statistics.median(parent)
    return sign * (statistics.median(change) - mp) / abs(mp) if mp else 0.0


def label(parent: list[float], change: list[float], bound: float,
          higher_is_better: bool) -> str:
    sign = 1.0 if higher_is_better else -1.0
    beats_all = min(sign * v for v in change) > max(sign * v for v in parent)
    if max(spread(parent), spread(change)) > bound and not beats_all:
        return "unresolved"
    delta = gain(parent, change, higher_is_better)
    if delta < -bound:
        return "worse"
    if delta > bound:
        return "better"
    return "same"


def compare(parent_runs: list[dict[str, dict[str, Any]]],
            change_runs: list[dict[str, dict[str, Any]]],
            spec: dict[str, Any]) -> list[Row]:
    bounded = {m["name"]: m for m in spec["end_to_end"]}
    directions = {m["name"]: m["better"]
                  for m in spec["end_to_end"] + spec["per_layer"]}
    rows = []
    workloads = [w["name"] for w in spec["workloads"]]
    for workload in workloads:
        names: dict[str, str] = {}
        for run in parent_runs + change_runs:
            for name, m in run.get(workload, {}).items():
                names.setdefault(name, m["unit"])
        for name, unit in names.items():
            parent = [r[workload][name]["value"] for r in parent_runs
                      if name in r.get(workload, {})]
            change = [r[workload][name]["value"] for r in change_runs
                      if name in r.get(workload, {})]
            if not parent or not change:
                continue
            bound = bounded[name]["bound"] if name in bounded else None
            higher = directions[name] == "higher"
            tag = "-" if bound is None else label(parent, change, bound,
                                                  higher)
            rows.append(Row(workload, name, unit, bound, higher, parent,
                            change, tag, gain(parent, change, higher)))
    return rows


def win_rate(parent: list[float], change: list[float],
             higher_is_better: bool) -> tuple[int, int]:
    """(wins, pairs) over pairs taken in order; ties win nothing."""
    sign = 1.0 if higher_is_better else -1.0
    pairs = list(zip(parent, change))
    return sum(1 for p, c in pairs if sign * c > sign * p), len(pairs)


def claim_report(row: Row) -> tuple[bool, str]:
    wins, pairs = win_rate(row.parent, row.change, row.higher_is_better)
    q1, mp, q3 = quartiles(row.parent)
    mc = statistics.median(row.change)
    met = (pairs > 0 and wins >= WIN_SHARE * pairs
           and gain(row.parent, row.change, row.higher_is_better) * abs(mp)
           > q3 - q1)
    return met, (f"claim {row.workload}:{row.metric}: change wins "
                 f"{wins}/{pairs} pairs, median {mp:.6g} -> {mc:.6g} "
                 f"(parent quartile spread {q3 - q1:.6g}): "
                 f"{'met' if met else 'not met'}")


def format_rows(rows: list[Row]) -> list[str]:
    def side(values: list[float]) -> str:
        q1, q2, q3 = quartiles(values)
        return f"{q2:.6g} [{q1:.6g}, {q3:.6g}] n={len(values)}"

    lines = [f"{'workload':<14} {'metric':<34} {'bound':>6}  "
             f"{'parent median [q1, q3]':<40} "
             f"{'change median [q1, q3]':<40} {'delta':>8}  label"]
    for r in rows:
        bound = "-" if r.bound is None else f"{r.bound:.0%}"
        lines.append(
            f"{r.workload:<14} {r.metric + ' (' + r.unit + ')':<34} "
            f"{bound:>6}  {side(r.parent):<40} {side(r.change):<40} "
            f"{r.delta:>+8.2%}  {r.label}")
    return lines
