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
"""
from __future__ import annotations

import argparse
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKTREE = ROOT / ".bench-ab" / "parent"
#: parent/change pairs per comparison: the README's minimum for a claim
PAIRS = 10


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


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    run_args: list[str] = []
    if "--" in argv:
        cut = argv.index("--")
        argv, run_args = argv[:cut], argv[cut + 1:]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="git revision to compare against")
    parser.add_argument("--claim", action="append", default=[],
                        metavar="WORKLOAD:METRIC")
    parser.add_argument("--out", type=Path,
                        default=ROOT / ".bench-ab" / "results")
    args = parser.parse_args(argv)

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
        for i in range(1, PAIRS + 1):
            order = ("parent", "change") if i % 2 else ("change", "parent")
            for side in order:
                rc = run_side(trees[side], out / f"{side}_{i:02d}.json",
                              run_args)
                print(f"pair {i}/{PAIRS} {side}: exit {rc}", flush=True)
                status = status or rc
    finally:
        git("worktree", "remove", "--force", str(WORKTREE))
    # a run that could not produce a result drops its whole pair, so the
    # remaining pairs stay aligned
    pairs = [i for i in range(1, PAIRS + 1)
             if all((out / f"{side}_{i:02d}.json").exists()
                    for side in ("parent", "change"))]
    if not pairs:
        return status or 2
    claims = [arg for claim in args.claim for arg in ("--claim", claim)]
    rc = subprocess.run(
        [sys.executable, "-m", "benchmarks.suite", "compare",
         "--parent", *[str(out / f"parent_{i:02d}.json") for i in pairs],
         "--change", *[str(out / f"change_{i:02d}.json") for i in pairs],
         *claims], cwd=ROOT).returncode
    return status or rc


if __name__ == "__main__":
    sys.exit(main())
