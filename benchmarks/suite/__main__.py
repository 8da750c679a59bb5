"""Command line of the benchmark suite (see README.md).

    python -m benchmarks.suite run [--workload W]... [--seed S]
                                   [--trace 0|1] [--out R.json]
    python -m benchmarks.suite compare --parent P.json... --change C.json...
                                       [--claim WORKLOAD:METRIC]...
    python -m benchmarks.suite pin

``run`` measures each named workload (all five by default) one after
another and prints every metric with its unit and sample count, then one
JSON result line per workload; the last line of output is a result.  It
exits 1 when an op failed and 2 when a child process could not run.
"""
from __future__ import annotations

import argparse
import json
import sys
import time

from benchmarks.suite import compare as cmp
from benchmarks.suite.runner import (
    EXPECTED,
    RUN_TIMEOUT_S,
    ChildFailed,
    benchmark_spec,
    run_child,
    run_workload,
)
from benchmarks.suite.workloads import WORKLOADS

#: seeds expected.json pins: the default and the held-out seed
PINNED_SEEDS = (2024, 7)


def cmd_run(args: argparse.Namespace) -> int:
    results = {}
    ok = True
    for workload in args.workload or list(WORKLOADS):
        try:
            result = run_workload(workload, args.seed, bool(args.trace))
        except ChildFailed as exc:
            print(f"benchmark child failed: {exc}", file=sys.stderr)
            return 2
        detail = result["detail"]
        print(f"# {workload} seed={args.seed} trace={args.trace} "
              f"ops={detail['ops']} attempted={result['attempted']} "
              f"failed={result['failed']} "
              f"pinned_rounds={detail['pinned_rounds_checked']} "
              f"unit={detail['unit_of_work']}")
        for name, m in result["metrics"].items():
            n = detail["samples"].get(name)
            count = f"  (n={n})" if n is not None else ""
            print(f"  {name:<34} {m['value']:>14.6g} {m['unit']}{count}")
        for name, value in detail["sim"].items():
            print(f"  sim {name:<30} {value:>14.6g}")
        for error in detail["errors"]:
            print(f"  ERROR {error}", file=sys.stderr)
        ok = ok and result["correct"]
        results[workload] = result
        print(json.dumps({k: result[k] for k in
                          ("correct", "attempted", "failed", "metrics")}),
              flush=True)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"seed": args.seed, "trace": bool(args.trace),
                       "results": results},
                      fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0 if ok else 1


def cmd_compare(args: argparse.Namespace) -> int:
    spec = benchmark_spec()
    rows = cmp.compare(cmp.load_runs(args.parent), cmp.load_runs(args.change),
                       spec)
    for line in cmp.format_rows(rows):
        print(line)
    claims_met = True
    for claim in args.claim:
        workload, _, metric = claim.partition(":")
        match = [r for r in rows if (r.workload, r.metric) == (workload,
                                                                 metric)]
        if not match:
            print(f"claim {claim}: no such row", file=sys.stderr)
            return 2
        met, text = cmp.claim_report(match[0])
        print(text)
        claims_met = claims_met and met
    bad = [r for r in rows if r.label in ("worse", "unresolved")]
    return 0 if claims_met and not bad else 1


def cmd_pin(args: argparse.Namespace) -> int:
    """Re-pin expected.json: the round hashes of every workload at full
    size, for every seed in PINNED_SEEDS."""
    pins: dict[str, dict[str, list[str]]] = {}
    for seed in PINNED_SEEDS:
        pins[str(seed)] = {}
        for name in WORKLOADS:
            out = run_child(["measure", "--workload", name, "--seed",
                             str(seed)], time.monotonic() + RUN_TIMEOUT_S)
            if out["failed"]:
                print(f"{name} seed {seed} failed: {out['errors']}",
                      file=sys.stderr)
                return 1
            pins[str(seed)][name] = [r["hash"] for r in out["rounds"]]
            print(f"pinned {name} seed {seed}: {len(out['rounds'])} rounds")
    EXPECTED.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.suite",
        description="Benchmark suite of the Steins reproduction.")
    sub = parser.add_subparsers(dest="cmd", required=True)
    run = sub.add_parser("run", help="measure workloads")
    run.add_argument("--workload", action="append", choices=WORKLOADS,
                     help="repeatable; default: all five")
    run.add_argument("--seed", type=int, default=PINNED_SEEDS[0])
    # tools that run BENCHMARK.json's command pass its run_seconds; a
    # run's length is fixed by its workload, so both commits of an A/B
    # comparison measure the same ops
    run.add_argument("--seconds", type=float, help=argparse.SUPPRESS)
    run.add_argument("--trace", type=int, choices=(0, 1), default=0,
                     help="1: the traced per-layer run instead")
    run.add_argument("--out", help="write every result to this JSON file")
    comp = sub.add_parser("compare", help="A/B-compare result files")
    comp.add_argument("--parent", nargs="+", required=True)
    comp.add_argument("--change", nargs="+", required=True)
    comp.add_argument("--claim", action="append", default=[],
                      metavar="WORKLOAD:METRIC")
    sub.add_parser("pin", help="re-pin expected.json")
    args = parser.parse_args(argv)
    return {"run": cmd_run, "compare": cmd_compare, "pin": cmd_pin}[
        args.cmd](args)


if __name__ == "__main__":
    sys.exit(main())
