"""A/B-compare the working tree against a parent revision with the repo
benchmark, as one command.

Follows the procedure of ``benchmarks/suite/README.md`` ("A/B testing a
change"): the parent revision is checked out in a git worktree at
``.bench-ab/parent``, ``python3 -m benchmarks.suite run`` runs ten times
in each tree, alternating which side goes first, and ``compare`` prints
every (workload, metric) row and the win rate of each ``--claim``.  The
result files, and the ``layers.json`` of traced runs, stay in ``--out``
for a later ``compare``; the worktree is removed at the end.  Arguments
after ``--`` go to every ``run``::

    python3 tools/bench_ab.py HEAD~1 --claim fig-hit:work_per_s
    python3 tools/bench_ab.py HEAD~1 --claim fig-hit:work_per_s \\
        --out .bench-ab/seed7 -- --seed 7 --workload fig-hit

``make bench-ab PARENT=<rev>`` wraps it.  Exits non-zero when a run
failed (an op failed, or no result) or ``compare`` did.

``--trajectory FILE`` is the CI throughput gate (``make bench-gate``):
the parent is the anchor revision FILE names, three pairs run, and
``compare`` does not: against an old anchor its labels mean nothing.
Instead each workload's median per-pair ``work_per_s`` ratio (working
tree / anchor) must stay at or above 80% of the ratio FILE pins for it.
The gate fails when a run failed or was not correct, or when a
workload is missing from the results or from FILE::

    python3 tools/bench_ab.py \
        --trajectory benchmarks/results/suite_trajectory.json
"""
from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKTREE = ROOT / ".bench-ab" / "parent"
#: parent/change pairs per comparison: the README's minimum for a claim
PAIRS = 10
#: pairs per trajectory check: a 20% decay shows in three, a claim's
#: ten would take CI half an hour
GATE_PAIRS = 3
#: the trajectory's metric, and the share of its pinned ratio a
#: workload must keep
GATE_METRIC = "work_per_s"
GATE_FLOOR = 0.8


def git(*args: str) -> None:
    subprocess.run(["git", *args], cwd=ROOT, check=True)


def run_side(tree: Path, out: Path, run_args: list[str]) -> int:
    """One ``run`` of the suite in ``tree``.  Its log, and the
    ``layers.json`` a traced run writes, land beside ``out``."""
    start = time.time()
    with open(out.with_suffix(".log"), "w") as log:
        rc = subprocess.run(
            [sys.executable, "-m", "benchmarks.suite", "run", *run_args,
             "--out", str(out)],
            cwd=tree, stdout=log, stderr=subprocess.STDOUT).returncode
    for layers in (tree / "benchmarks" / "suite" / "out").glob(
            "*/layers.json"):
        if layers.stat().st_mtime >= start:
            shutil.copy(layers, out.with_name(
                f"{out.stem}_{layers.parent.name}_layers.json"))
    return rc


def check_trajectory(pinned: dict[str, float], out: Path) -> list[str]:
    """The gate's failures over the ``GATE_PAIRS`` result pairs in
    ``out``, an empty list when it passes; prints one line per judged
    workload."""
    failures = []
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for side, results in runs.items():
        for i in range(1, GATE_PAIRS + 1):
            path = out / f"{side}_{i:02d}.json"
            if not path.exists():
                failures.append(f"{path.name}: no result")
                results.append({})
                continue
            results.append(json.loads(path.read_text())["results"])
            for workload, r in results[-1].items():
                if not r["correct"] or r["failed"]:
                    failures.append(
                        f"{path.name}: {workload} correct={r['correct']} "
                        f"failed={r['failed']}")
    seen = {w for results in runs.values() for run in results for w in run}
    for workload in sorted(seen | set(pinned)):
        if workload not in pinned:
            failures.append(f"{workload}: no pinned ratio in the "
                            "trajectory file")
            continue
        ratios = []
        for parent, change in zip(runs["parent"], runs["change"]):
            rates = [run.get(workload, {}).get("metrics", {})
                     .get(GATE_METRIC, {}).get("value")
                     for run in (parent, change)]
            if None in rates:
                failures.append(f"{workload}: missing from the results")
                break
            if min(rates) <= 0:
                failures.append(f"{workload}: {GATE_METRIC} is "
                                f"{min(rates)}")
                break
            ratios.append(rates[1] / rates[0])
        else:
            ratio = statistics.median(ratios)
            floor = GATE_FLOOR * pinned[workload]
            verdict = "ok" if ratio >= floor else "DECAYED"
            print(f"{workload}: {GATE_METRIC} ratio {ratio:.3f} (pairs "
                  f"{', '.join(f'{r:.3f}' for r in ratios)}), pinned "
                  f"{pinned[workload]:.3f}, floor {floor:.3f}: {verdict}",
                  flush=True)
            if ratio < floor:
                failures.append(f"{workload}: {GATE_METRIC} ratio "
                                f"{ratio:.3f} below {floor:.3f}")
    return failures


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    run_args: list[str] = []
    if "--" in argv:
        cut = argv.index("--")
        argv, run_args = argv[:cut], argv[cut + 1:]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", nargs="?",
                        help="git revision to compare against")
    parser.add_argument("--claim", action="append", default=[],
                        metavar="WORKLOAD:METRIC")
    parser.add_argument("--out", type=Path,
                        default=ROOT / ".bench-ab" / "results")
    parser.add_argument("--trajectory", type=Path, metavar="FILE",
                        help="gate against the anchor and pinned ratios "
                             "in FILE instead of comparing to a parent")
    args = parser.parse_args(argv)
    if args.trajectory:
        if args.parent or args.claim:
            parser.error("--trajectory takes its parent from FILE and "
                         "makes no claim")
        trajectory = json.loads(args.trajectory.read_text())
        args.parent, pairs = trajectory["anchor"], GATE_PAIRS
    elif args.parent:
        pairs = PAIRS
    else:
        parser.error("give a parent revision or --trajectory")

    out = args.out.resolve()
    out.mkdir(parents=True, exist_ok=True)
    for stale in [*out.glob("parent_*"), *out.glob("change_*")]:
        stale.unlink()
    if WORKTREE.exists():
        git("worktree", "remove", "--force", str(WORKTREE))
    git("worktree", "add", "--detach", str(WORKTREE), args.parent)
    status = 0
    try:
        trees = {"parent": WORKTREE, "change": ROOT}
        for i in range(1, pairs + 1):
            order = ("parent", "change") if i % 2 else ("change", "parent")
            for side in order:
                rc = run_side(trees[side], out / f"{side}_{i:02d}.json",
                              run_args)
                print(f"pair {i}/{pairs} {side}: exit {rc}", flush=True)
                status = status or rc
    finally:
        git("worktree", "remove", "--force", str(WORKTREE))
    if args.trajectory:
        failures = check_trajectory(trajectory["ratios"], out)
        for failure in failures:
            print(f"bench-gate: {failure}", file=sys.stderr)
        return status or int(bool(failures))
    # a run that could not produce a result drops its whole pair, so the
    # remaining pairs stay aligned
    kept = [i for i in range(1, pairs + 1)
            if all((out / f"{side}_{i:02d}.json").exists()
                   for side in ("parent", "change"))]
    if not kept:
        return status or 2
    claims = [arg for claim in args.claim for arg in ("--claim", claim)]
    rc = subprocess.run(
        [sys.executable, "-m", "benchmarks.suite", "compare",
         "--parent", *[str(out / f"parent_{i:02d}.json") for i in kept],
         "--change", *[str(out / f"change_{i:02d}.json") for i in kept],
         *claims], cwd=ROOT).returncode
    return status or rc


if __name__ == "__main__":
    sys.exit(main())
