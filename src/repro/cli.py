"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``run``       simulate one (variant, workload) cell and print metrics
``compare``   run all variants on one workload, print the normalized table
``figure``    regenerate the paper's figures (9-17) and check its claims
``recover``   crash/recovery demo with timings
``storage``   the Sec. IV-E storage-overhead table
``overflow``  the Sec. III-B.2 counter-lifetime analysis
``workloads`` list the available workload profiles
``oracle``    differential conformance suite vs the reference model (docs/testing.md)
``explore``   systematic crash-space exploration with state-digest pruning (docs/crash_exploration.md)
``trace``     run one cell with tracing armed; write Chrome-trace + metric dumps (docs/observability.md)
``serve``     run the distributed sweep service on a local socket (docs/orchestration.md)
``submit``    talk to a running sweep service (ping/stats/shutdown/batch)
``lint``      run simlint over the tree (see ``repro.analysis.lint``)
"""
from __future__ import annotations

import argparse
import os
import sys

from repro.analysis.charts import render_grouped_bars, render_series
from repro.analysis.figures import CLAIMS, FIGURES, PAPER_FIGURES, \
    FigureHarness, failed_claims
from repro.analysis.recovery_model import scue_rebuild_estimate
from repro.analysis.report import render_kv, render_table
from repro.analysis.storage import all_storage_breakdowns
from repro.common.config import small_config
from repro.common.rng import make_rng
from repro.common.units import GB, TB, pretty_time_ns
from repro.core.countergen import years_to_overflow
from repro.exec import ResultCache
from repro.sim.runner import RunSpec, VARIANTS, make_system, run_cell, \
    run_trace
from repro.workloads import ALL_PROFILES, PAPER_WORKLOADS

def _figure_number(text: str) -> str:
    """argparse ``type`` for a figure number (``choices`` cannot check
    an empty ``nargs="*"`` positional)."""
    if text not in FIGURES:
        raise argparse.ArgumentTypeError(
            f"invalid choice: {text!r} (choose from {', '.join(FIGURES)})")
    return text


def _crash_sweep_parser(sub, name: str, summary: str, scheme_help: str, *,
                       seed: int, accesses: int,
                       footprint: int) -> argparse.ArgumentParser:
    """The options ``oracle`` and ``explore`` share, with the
    command's own defaults; :func:`_run_crash_sweep` consumes them."""
    cmd = sub.add_parser(name, help=summary)
    cmd.add_argument("--scheme", action="append", default=None,
                     metavar="NAME", help=scheme_help)
    cmd.add_argument("--workload", action="append",
                     choices=sorted(ALL_PROFILES), default=None,
                     help="workload trace (repeatable; default pers_hash)")
    cmd.add_argument("--seed", type=int, default=seed)
    cmd.add_argument("--accesses", type=int, default=accesses,
                     help="trace length per cell; approximate for "
                          "pers_hash/pers_swap, which emit whole "
                          "transactions")
    cmd.add_argument("--footprint", type=int, default=footprint,
                     help="trace footprint in data blocks")
    cmd.add_argument("--jobs", type=int, default=1,
                     help="worker processes (0 = one per CPU core); the "
                          "report is identical at any job count")
    cmd.add_argument("--cache-dir", default=None,
                     help="reuse completed cells from this result "
                          "cache (off by default)")
    cmd.add_argument("--json", action="store_true",
                     help="emit the full report as JSON on stdout")
    cmd.add_argument("--service", default=None,
                     help="route the sweeps through a running `repro "
                          "serve` socket")
    return cmd


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Steins (CLUSTER 2024) reproduction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="simulate one scheme x workload")
    run.add_argument("variant", choices=sorted(VARIANTS))
    run.add_argument("workload", choices=sorted(ALL_PROFILES))
    run.add_argument("--accesses", type=int, default=20_000)
    run.add_argument("--footprint", type=int, default=1 << 15)
    run.add_argument("--seed", type=int, default=2024)

    cmp_ = sub.add_parser("compare", help="all schemes on one workload")
    cmp_.add_argument("workload", choices=sorted(ALL_PROFILES))
    cmp_.add_argument("--accesses", type=int, default=20_000)
    cmp_.add_argument("--footprint", type=int, default=1 << 15)

    fig = sub.add_parser(
        "figure", help="regenerate the paper's figures and check its claims")
    fig.add_argument("number", nargs="*", type=_figure_number, metavar="N",
                     help=f"figure to print ({', '.join(FIGURES)}; "
                          "default: every paper figure 9-17)")
    fig.add_argument("--workload", action="append",
                     choices=sorted(ALL_PROFILES), default=None,
                     help="workload row (repeatable; default: the "
                          "paper's ten)")
    fig.add_argument("--accesses", type=int, default=30_000)
    fig.add_argument("--footprint", type=int, default=1 << 16,
                     help="workload footprint in 64 B blocks")
    fig.add_argument("--seed", type=int, default=2024)
    fig.add_argument("--jobs", type=int, default=0,
                     help="worker processes (0 = one per CPU core); the "
                          "tables are identical at any job count")
    fig.add_argument("--cache-dir", default=None,
                     help="reuse completed cells from this result cache "
                          "(off by default)")
    fig.add_argument("--service", default=None,
                     help="route the cells through a running `repro "
                          "serve` socket (ignores --jobs/--cache-dir: "
                          "the service owns both)")
    fig.add_argument("--chart", action="store_true",
                     help="render bar charts instead of number tables")
    fig.add_argument("--check", action="store_true",
                     help="evaluate the paper's claims on the printed "
                          "figures; exit 1 naming each one that fails")

    rec = sub.add_parser("recover", help="crash/recovery demo")
    rec.add_argument("variant", choices=[v for v in sorted(VARIANTS)
                                         if v != "wb-gc" and v != "wb-sc"])
    rec.add_argument("--writes", type=int, default=2500)

    sub.add_parser("storage", help="Sec. IV-E storage overhead")
    sub.add_parser("overflow", help="Sec. III-B.2 counter lifetimes")
    sub.add_parser("workloads", help="list workload profiles")

    oracle = _crash_sweep_parser(
        sub, "oracle",
        "differential conformance suite against the reference model "
        "(see docs/testing.md)",
        "scheme to check (repeatable; validated against the scheme "
        "registry, so plugin schemes work without CLI changes)",
        seed=2024, accesses=400, footprint=2048)
    oracle.add_argument("--all-schemes", action="store_true",
                        help="check every scheme (same as omitting "
                             "--scheme; spelled out for scripts)")

    explore = _crash_sweep_parser(
        sub, "explore",
        "systematic crash-space exploration with state-digest pruning "
        "(see docs/crash_exploration.md)",
        "scheme to explore (repeatable; validated against the scheme "
        "registry; default: every recovery-capable scheme)",
        seed=2025, accesses=120, footprint=512)
    explore.add_argument("--small", action="store_true",
                         help="tiny-trace preset (60 accesses, 256 "
                              "blocks) with full enumeration: every "
                              "equivalence class, every recovery step")
    explore.add_argument("--budget", type=int, default=None,
                         help="frontier budget: explore at most this "
                              "many equivalence classes per cell "
                              "(default: all of them)")
    explore.add_argument("--recovery-cap", type=int, default=None,
                         help="crash-during-recovery doses per "
                              "representative (default: every step)")
    explore.add_argument("--residual", action="append", type=int,
                         default=None,
                         help="torn-crash ADR word budget (repeatable; "
                              "default 0 and 8)")
    explore.add_argument("--no-mutants", action="store_true",
                         help="skip the seeded-mutant self-test")
    explore.add_argument("--progress", action="store_true",
                         help="per-cell progress lines on stderr")
    explore.add_argument("--report", default=None,
                         help="also write the JSON report to this file")
    explore.add_argument("--metrics", default=None,
                         help="write repro.obs metrics JSON to this file")

    trc = sub.add_parser(
        "trace",
        help="run one cell with tracing armed; write obs artifacts")
    trc.add_argument("variant", choices=sorted(VARIANTS))
    trc.add_argument("workload", choices=sorted(ALL_PROFILES))
    trc.add_argument("--accesses", type=int, default=20_000)
    trc.add_argument("--footprint", type=int, default=1 << 15)
    trc.add_argument("--seed", type=int, default=2024)
    trc.add_argument("--out", default="trace-out",
                     help="directory for trace.json / metrics.json / "
                          "metrics.csv")
    trc.add_argument("--capacity", type=int, default=None,
                     help="event ring-buffer capacity (default 65536; "
                          "older events beyond it are dropped)")
    trc.add_argument("--recover", action="store_true",
                     help="crash after the trace and trace the recovery "
                          "(recovery-capable variants only)")
    trc.add_argument("--small", action="store_true",
                     help="use the scaled-down test configuration (16 KB "
                          "metadata cache) so eviction and NV-buffer "
                          "activity shows up in short traces")

    # the serve/submit subparsers are defined next to their handlers so
    # the socket/asyncio machinery stays inside repro.serve (SL901);
    # importing the light cli shim pulls neither
    from repro.serve.cli import add_serve_args

    add_serve_args(sub)

    lint = sub.add_parser(
        "lint", help="run simlint (crash-consistency/determinism checks)",
        add_help=False)
    lint.add_argument("lint_args", nargs=argparse.REMAINDER,
                      help="arguments forwarded to simlint")
    return parser


def cmd_run(args) -> int:
    spec = RunSpec(args.variant, args.workload, accesses=args.accesses,
                   footprint_blocks=args.footprint, seed=args.seed)
    result = run_cell(spec)
    print(render_kv(f"{args.variant} x {args.workload}", {
        "exec time": pretty_time_ns(result.exec_time_ns),
        "data reads / writes": f"{result.data_reads} / "
                               f"{result.data_writes}",
        "avg read latency": f"{result.avg_read_latency_ns:.1f} ns",
        "avg write latency": f"{result.avg_write_latency_ns:.1f} ns",
        "NVM write traffic": f"{result.nvm_write_traffic} lines",
        "energy": f"{result.energy_nj / 1e3:.1f} uJ",
        "metadata cache hits": f"{result.metadata_cache_hit_rate:.1%}",
    }))
    return 0


def cmd_compare(args) -> int:
    results = {v: run_cell(RunSpec(v, args.workload,
                                   accesses=args.accesses,
                                   footprint_blocks=args.footprint))
               for v in VARIANTS}
    base = results["wb-gc"]
    rows = {metric: {v: results[v].normalized_to(base)[metric]
                     for v in VARIANTS}
            for metric in ("exec_time", "write_latency", "read_latency",
                           "write_traffic", "energy")}
    print(render_table(f"{args.workload}: normalized to WB-GC",
                       list(VARIANTS), rows, mean_row=False))
    return 0


def cmd_figure(args) -> int:
    numbers = args.number or list(PAPER_FIGURES)
    harness = FigureHarness(
        accesses=args.accesses, footprint_blocks=args.footprint,
        seed=args.seed,
        workloads=tuple(args.workload) if args.workload else PAPER_WORKLOADS,
        jobs=args.jobs or (os.cpu_count() or 1),
        cache=ResultCache(args.cache_dir)
        if args.cache_dir and not args.service else None,
        service=args.service)
    harness.progress = _sweep_progress
    # one fan-out over every cell the requested figures read; the
    # figure extractors below then hit only warm cells
    harness.ensure_figures(numbers)
    failed: list[str] = []
    checked = 0
    for number in numbers:
        fig = FIGURES[number]
        rows = harness.figure(number)
        title = f"Fig. {number}: {fig.title}"
        analytic = fig.baseline is None   # Fig. 17's seconds, no geomean
        if args.chart and analytic:
            print(render_series(title, rows))
        elif args.chart:
            print(render_grouped_bars(title, list(fig.variants), rows))
        else:
            print(render_table(title, list(fig.variants), rows,
                               baseline_note=fig.note, mean_row=not analytic,
                               fmt="{:.4f}" if analytic else "{:.3f}"))
        if args.check:
            failed += failed_claims(number, rows)
            checked += sum(claim.figure == number for claim in CLAIMS)
    report = harness.last_sweep
    print(f"figure: {report.summary()}" if report is not None
          else "figure: 0 cells, 0 simulated, 0 cached", file=sys.stderr)
    if not args.check:
        return 0
    for line in failed:
        print(f"FAILED {line}", file=sys.stderr)
    print(f"check: {checked - len(failed)} of {checked} claims hold",
          file=sys.stderr)
    return 1 if failed else 0


def cmd_recover(args) -> int:
    system = make_system(args.variant, small_config(
        metadata_cache_bytes=8 * 1024))
    rng = make_rng(17, "cli", args.variant)
    for addr in rng.integers(0, 40_000, args.writes):
        system.store(int(addr), flush=True)
    dirty = system.controller.metacache.dirty_count()
    system.crash()
    report = system.recover()
    checked = system.verify_all_persisted()
    print(render_kv(f"{args.variant} crash recovery", {
        "dirty nodes at crash": dirty,
        "nodes recovered": report.nodes_recovered,
        "NVM reads": report.nvm_reads,
        "modeled recovery time": pretty_time_ns(report.time_ns),
        "blocks re-verified": checked,
    }))
    return 0


def cmd_storage(_args) -> int:
    rows = {}
    for b in all_storage_breakdowns():
        key = f"{b.scheme}-{'sc' if b.counter_mode == 'split' else 'gc'}"
        rows[key] = {
            "height": float(b.tree_height),
            "tree_GB": b.tree_bytes / (1 << 30),
            "extra_nvm_KB": b.extra_nvm_bytes / 1024,
            "extra_cache_KB": b.extra_cache_bytes / 1024,
            "onchip_B": float(b.onchip_nv_bytes),
        }
    print(render_table("Sec. IV-E storage overhead (16 GB NVM)",
                       ["height", "tree_GB", "extra_nvm_KB",
                        "extra_cache_KB", "onchip_B"],
                       rows, mean_row=False, fmt="{:.2f}"))
    return 0


def cmd_overflow(_args) -> int:
    pairs = {e.scheme: f"{e.years:,.0f} years" for e in years_to_overflow()}
    pairs["scue-rebuild 16GB"] = \
        f"{scue_rebuild_estimate(16 * GB):.1f} s per recovery"
    pairs["scue-rebuild 1TB"] = \
        f"{scue_rebuild_estimate(1 * TB):.1f} s per recovery"
    print(render_kv("Counter lifetimes (Sec. III-B.2) and SCUE scale",
                    pairs))
    return 0


def _sweep_progress(done: int, total: int, outcome) -> None:
    """One stderr line per finished cell; stdout stays machine-diffable."""
    status = "cached" if outcome.cached else f"{outcome.elapsed_s:.1f}s"
    print(f"[{done}/{total}] {outcome.spec.variant} x "
          f"{outcome.spec.workload} ({status})", file=sys.stderr)


def _run_crash_sweep(args, run, report_path: str | None = None,
                     **kwargs) -> int:
    """Run one crash-sweep front end (``run_oracle_suite`` or
    ``run_explore``) with the shared options; ``kwargs`` add or override
    arguments.  Prints the report (JSON or text) on stdout and the cell
    provenance on stderr; a :class:`~repro.common.errors.ConfigError`
    exits 2."""
    import json

    from repro.common.errors import ConfigError

    shared = dict(
        workloads=args.workload, seed=args.seed, accesses=args.accesses,
        footprint=args.footprint, jobs=args.jobs or (os.cpu_count() or 1),
        cache=ResultCache(args.cache_dir) if args.cache_dir else None,
        service=args.service)
    try:
        summary = run(**{**shared, **kwargs})
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    # the report body is cache- and parallelism-independent: serial and
    # --jobs N runs (cold or warm) print byte-identical documents
    report = json.dumps(summary.to_json(), indent=2, sort_keys=True)
    if report_path:
        with open(report_path, "w") as fh:
            fh.write(report + "\n")
    if args.json:
        print(report)
    else:
        for line in summary.summary_lines():
            print(line)
    print(f"{args.command}: {summary.cells_executed} cells simulated, "
          f"{summary.cells_cached} cached", file=sys.stderr)
    return 0 if summary.ok else 1


def cmd_oracle(args) -> int:
    # the front ends import the simulator stack; keep them off the path
    # of the other subcommands
    from repro.oracle.sweep import run_oracle_suite

    return _run_crash_sweep(
        args, run_oracle_suite,
        schemes=None if args.all_schemes else args.scheme)


def cmd_explore(args) -> int:
    from repro.explore import run_explore

    from repro import obs

    small = dict(accesses=60, footprint=256) if args.small else {}
    registry = obs.MetricRegistry() if args.metrics else None
    status = _run_crash_sweep(
        args, run_explore, report_path=args.report, schemes=args.scheme,
        residuals=tuple(args.residual) if args.residual else (0, 8),
        class_budget=None if args.small else args.budget,
        recovery_cap=None if args.small else args.recovery_cap,
        with_mutants=not args.no_mutants,
        progress=_sweep_progress if args.progress else None,
        metrics=registry, **small)
    if registry is not None and status != 2:
        obs.write_metrics_json(args.metrics, registry)
    return status


def cmd_trace(args) -> int:
    """One traced cell -> Chrome-trace JSON + metric dumps on disk."""
    from repro import obs

    tracer = (obs.Tracer() if args.capacity is None
              else obs.Tracer(capacity=args.capacity))
    cfg = small_config() if args.small else None
    system = make_system(args.variant, cfg, tracer=tracer)
    if args.recover and not system.controller.supports_recovery:
        print(f"error: variant {args.variant!r} does not support "
              "recovery", file=sys.stderr)
        return 2
    profile = ALL_PROFILES[args.workload]
    trace = profile.generate(args.seed, args.accesses, args.footprint)
    result = run_trace(system, trace, args.workload,
                       flush_writes=profile.persistent)
    if args.recover:
        system.crash()
        system.recover()

    registry = obs.system_registry(system, tracer)
    os.makedirs(args.out, exist_ok=True)
    trace_path = os.path.join(args.out, "trace.json")
    metrics_path = os.path.join(args.out, "metrics.json")
    csv_path = os.path.join(args.out, "metrics.csv")
    obs.write_chrome_trace(trace_path, tracer,
                           label=f"{args.variant} x {args.workload}")
    obs.write_metrics_json(metrics_path, registry, tracer)
    obs.write_metrics_csv(csv_path, registry)

    counts = tracer.counts_by_kind()
    print(render_kv(f"traced {args.variant} x {args.workload}", {
        "exec time": pretty_time_ns(result.exec_time_ns),
        "events retained": f"{len(tracer)} "
                           f"(+{tracer.dropped} dropped)",
        **{f"  {kind}": str(n) for kind, n in counts.items()},
        "metrics": str(len(registry)),
        "artifacts": f"{trace_path}, {metrics_path}, {csv_path}",
    }))
    return 0


def cmd_serve(args) -> int:
    # the service imports asyncio + the worker machinery; load lazily
    from repro.serve.cli import run_serve

    return run_serve(args)


def cmd_submit(args) -> int:
    from repro.serve.cli import run_submit

    return run_submit(args)


def cmd_lint(args) -> int:
    from repro.analysis.lint.main import main as lint_main

    return lint_main(args.lint_args)


def cmd_workloads(_args) -> int:
    pairs = {name: profile.description
             + (" [persistent]" if profile.persistent else "")
             for name, profile in sorted(ALL_PROFILES.items())}
    print(render_kv("Workload profiles (paper Sec. IV)", pairs))
    return 0


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv[:1] == ["lint"]:
        # forwarded verbatim: argparse's REMAINDER cannot start at an
        # option-like token, so simlint parses its own argv
        from repro.analysis.lint.main import main as lint_main

        return lint_main(argv[1:])
    args = build_parser().parse_args(argv)
    handler = {
        "run": cmd_run,
        "compare": cmd_compare,
        "figure": cmd_figure,
        "recover": cmd_recover,
        "storage": cmd_storage,
        "overflow": cmd_overflow,
        "workloads": cmd_workloads,
        "oracle": cmd_oracle,
        "explore": cmd_explore,
        "trace": cmd_trace,
        "serve": cmd_serve,
        "submit": cmd_submit,
        "lint": cmd_lint,
    }[args.command]
    return handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
