"""One fresh interpreter of a benchmark run (started by runner.py).

``setup``    imports the simulator, builds every system and generates
             every trace of the workload's first round, simulates
             nothing, and prints how long that took.
``measure``  runs the whole workload and prints what the Recorder
             saw, the process's peak RSS and, with ``--trace-dir``, the
             per-layer metrics of the spans.

Each prints one JSON object as its last line of output.
"""
import argparse
import json
import resource
import sys
from pathlib import Path
from time import perf_counter
from typing import Any

from benchmarks.suite import spans
from benchmarks.suite.workloads import (
    REFERENCE_S,
    WORKLOADS,
    Recorder,
    measure,
    reference_s,
    reference_table,
)


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: spans.SpanTracer, rec: Recorder
                  ) -> dict[str, float]:
    """The per-layer metrics of one traced run."""
    out: dict[str, float] = {}
    for layer, (calls, self_s) in tracer.layer_totals().items():
        out[f"{layer}.calls"] = calls
        out[f"{layer}.self_s"] = self_s
        out[f"{layer}.self_frac"] = ratio(self_s, rec.region_s)
    c = tracer.counters.get
    data_ops = c("controller.data_ops", 0)
    out["mem.llc_miss_ratio"] = ratio(c("mem.llc_misses", 0),
                                      c("mem.accesses", 0))
    out["integrity.metacache_hit_ratio"] = ratio(
        c("integrity.lookup_hits", 0), c("integrity.lookups", 0))
    out["controller.fetches_per_op"] = ratio(c("controller.fetches", 0),
                                             data_ops)
    out["crypto.unique_input_frac"] = ratio(len(tracer.crypto_inputs),
                                            c("crypto.calls", 0))
    out["nvm.reads_per_op"] = ratio(tracer.calls("nvm", "NVMDevice.read"),
                                    data_ops)
    out["nvm.writes_per_op"] = ratio(tracer.calls("nvm", "NVMDevice.write"),
                                     data_ops)
    out["nvm.wq_stall_ns_per_op"] = ratio(c("nvm.wq_stall_ps", 0) / 1000,
                                          data_ops)
    out["recovery.nvm_reads_per_recovery"] = ratio(
        c("recovery.nvm_reads", 0), c("recovery.count", 0))
    explored = sum(rec.sim.get("explored", []))
    pruned = sum(rec.sim.get("pruned", []))
    out["explore.pruned_frac"] = ratio(pruned, explored + pruned)
    return out


def run_traced(args: argparse.Namespace) -> dict[str, Any]:
    tracer = spans.SpanTracer()
    spans.install(tracer)
    try:
        rec = measure(args.workload, args.seed, args.scale, tracer)
    finally:
        tracer.uninstall()
    metrics = layer_metrics(tracer, rec)
    out_dir = Path(args.trace_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "layers.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed,
        "region_s": rec.region_s, "metrics": metrics,
        "methods": {f"{layer}:{name}": {"calls": calls, "self_s": self_s}
                    for (layer, name), (calls, self_s)
                    in sorted(tracer.methods.items())},
        "counters": tracer.counters,
        "spans_dropped": tracer.dropped,
    }, indent=2, sort_keys=True) + "\n")
    tracer.write_chrome_trace(out_dir / "trace.json")
    out = rec.to_json()
    out["layers"] = metrics
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks.suite.child")
    parser.add_argument("mode", choices=("setup", "measure"))
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--trace-dir")
    args = parser.parse_args(argv)
    table = reference_table()
    reference = reference_s(table)
    started = perf_counter()
    # without the simulator there is nothing to measure: fail before
    # any op, so no result is reported
    import repro  # noqa: F401

    if args.mode == "setup":
        workload = WORKLOADS[args.workload]
        workload.setup(workload.start(args.seed, args.scale))
        # set-up runs from the first simulator import; rescaled to
        # reference speed, like every measured time
        out: dict[str, Any] = {"setup_s": (perf_counter() - started)
                               * REFERENCE_S * 2
                               / (reference + reference_s(table))}
    elif args.trace_dir:
        out = run_traced(args)
    else:
        out = measure(args.workload, args.seed, args.scale).to_json()
    if args.mode == "measure":
        # ru_maxrss is in KiB on Linux
        out["peak_rss_mb"] = \
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        out["wrappers_installed"] = spans.installed_wrappers()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
