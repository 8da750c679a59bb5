"""CLI entry points for ``repro serve`` and ``repro submit``.

These live here, not in :mod:`repro.cli`, so the asyncio machinery
stays inside the ``repro.serve`` package (simlint SL901).
``repro.cli`` calls :func:`add_serve_args` at parser-build time (this
module's top level is import-light — the service and its worker
processes load only when a handler actually runs) and delegates the
handlers lazily.
"""
from __future__ import annotations

import json
import sys

from repro.exec.workers import RETRY_LIMIT
from repro.serve.protocol import DEFAULT_SOCKET


def add_serve_args(sub) -> None:
    """Attach the ``serve`` and ``submit`` subparsers."""
    serve = sub.add_parser(
        "serve",
        help="run the distributed sweep service on a local socket "
             "(see docs/orchestration.md)")
    serve.add_argument("--socket", default=DEFAULT_SOCKET,
                       help="unix socket path to listen on")
    serve.add_argument("--workers", type=int, default=0,
                       help="worker processes (0 = one per CPU core)")
    serve.add_argument("--cache-dir", default=".repro-cache",
                       help="shared content-addressed result cache")
    serve.add_argument("--no-cache", action="store_true",
                       help="serve without a cache (always simulate)")
    serve.add_argument("--retry-limit", type=int, default=RETRY_LIMIT,
                       help="max re-runs of a cell whose worker died")
    serve.add_argument("--backoff", type=float, default=0.05,
                       help="linear requeue backoff per retry (seconds)")
    serve.add_argument("--cell-timeout", type=float, default=None,
                       help="kill a worker stuck on one cell for this "
                            "many seconds (off by default)")

    submit = sub.add_parser(
        "submit", help="talk to a running sweep service")
    submit.add_argument("--socket", default=DEFAULT_SOCKET,
                        help="service socket path")
    submit.add_argument("--ping", action="store_true",
                        help="liveness probe")
    submit.add_argument("--stats", action="store_true",
                        help="print queue/worker/metric stats as JSON")
    submit.add_argument("--shutdown", action="store_true",
                        help="ask the service to drain and stop")
    submit.add_argument("--specs", default=None,
                        help="JSON file with a list of cell-spec "
                             "objects to run")
    submit.add_argument("--code-version", default=None,
                        help="cache code-version tag for the batch")


def run_serve(args) -> int:
    """``repro serve``: run a sweep service until drained or killed."""
    import asyncio
    import os

    from repro.exec.cache import LocalDirBackend
    from repro.serve.service import SweepService

    cache = None if args.no_cache else LocalDirBackend(args.cache_dir)
    workers = args.workers or (os.cpu_count() or 1)
    service = SweepService(
        args.socket, workers=workers, cache=cache,
        retry_limit=args.retry_limit,
        backoff_s=args.backoff, cell_timeout_s=args.cell_timeout)

    async def _main() -> int:
        await service.start()
        print(f"repro serve: {workers} worker(s) on {args.socket} "
              f"(cache: {args.cache_dir if cache else 'off'})",
              file=sys.stderr)
        await service.serve_forever()
        print("repro serve: drained, stopping", file=sys.stderr)
        return 0

    try:
        return asyncio.run(_main())
    except KeyboardInterrupt:
        return 130


def run_submit(args) -> int:
    """``repro submit``: one-shot client ops against a running service."""
    from repro.serve.client import ServiceClient

    client = ServiceClient(args.socket)
    if args.ping:
        client.ping()
        print("pong")
        return 0
    if args.stats:
        print(json.dumps(client.stats(), indent=2, sort_keys=True))
        return 0
    if args.shutdown:
        client.shutdown()
        print("service draining", file=sys.stderr)
        return 0
    if args.specs:
        return _submit_specs(client, args)
    print("repro submit: nothing to do (see --ping/--stats/"
          "--shutdown/--specs)", file=sys.stderr)
    return 2


def _submit_specs(client, args) -> int:
    """Submit a JSON file of spec dicts; print payloads as JSON lines."""
    from repro.serve.client import ServiceError

    with open(args.specs) as fh:
        spec_dicts = json.load(fh)
    if not isinstance(spec_dicts, list):
        print("repro submit: --specs file must hold a JSON list of "
              "cell specs", file=sys.stderr)
        return 2
    try:
        frames, done = client.submit(spec_dicts,
                                     code_version=args.code_version)
    except ServiceError as exc:
        print(f"repro submit: {exc}", file=sys.stderr)
        return 1
    failed = 0
    for frame in frames:
        if frame["op"] == "cell_error":
            failed += 1
            print(json.dumps({"index": frame["index"],
                              "error": frame["error"]},
                             sort_keys=True))
        else:
            print(json.dumps({"index": frame["index"],
                              "cached": frame["cached"],
                              "deduped": frame["deduped"],
                              "payload": frame["payload"]},
                             sort_keys=True))
    print(f"submit: {done['total']} cells, {done['executed']} executed, "
          f"{done['cached']} cached, {done['deduped']} deduped, "
          f"{done['retried']} retried", file=sys.stderr)
    return 1 if failed else 0
