"""Host-time spans around each layer's public calls (traced runs only).

:func:`install` wraps the methods listed in :data:`TARGETS` at class
level (and the listed module functions in the namespace their caller
reads them from), records one span per call while a timed region is
open, and :meth:`SpanTracer.uninstall` puts every original back.  The
simulator itself is never edited: spans come only from these wrappers.

A span is ``(id, parent, group, layer, name, start, end)``.  Spans of
one op (a cell, a recovery sample, an explore cell) share a group id.
A layer's self time is the sum over its spans of the span's duration
minus the part its child spans cover, so the self times of all layers
add up to the timed regions they were recorded in.
"""
from __future__ import annotations

import functools
import importlib
import json
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterator

#: the layers, named after the module each one lives in
LAYERS = ("mem", "sim.system", "sim.clock", "controller", "recovery",
          "integrity", "crypto", "nvm", "workloads", "oracle", "explore",
          "exec")

#: marks a wrapper so a check can find one left installed
MARK = "__bench_span__"

#: spans kept for trace.json; later spans still count in the aggregates
RING_CAPACITY = 200_000

#: (layer, "module:Class" or "module", attribute names).  The
#: ``controller`` and ``recovery`` layers are expanded over every
#: registered scheme's controller class by :func:`install`.
TARGETS: tuple[tuple[str, str, tuple[str, ...]], ...] = (
    ("mem", "repro.mem.hierarchy:CacheHierarchy", ("access", "clwb")),
    ("sim.system", "repro.sim.system:SecureNVMSystem",
     ("run_stream", "crash", "recover")),
    ("sim.clock", "repro.sim.clock:MemClock",
     ("nvm_read", "nvm_read_overlapped", "nvm_write", "drain_writes")),
    ("integrity", "repro.integrity.metacache:MetadataCache",
     ("lookup", "peek", "contains", "insert", "insert_at",
      "victim_candidate", "remove", "mark_dirty")),
    ("crypto", "repro.crypto.engine:FastEngine", ("digest64", "otp")),
    ("nvm", "repro.nvm.device:NVMDevice",
     ("read", "write", "peek", "write_through", "crash_drain")),
    ("nvm", "repro.nvm.timing:NVMTimingModel",
     ("read", "write", "drain_all")),
    ("workloads", "repro.workloads.spec:WorkloadProfile", ("generate",)),
    ("oracle", "repro.oracle.harness:DifferentialRun",
     ("write", "read", "crash", "check_recovery", "verify_end_state")),
    ("explore", "repro.explore.runner", ("run_explore_cell",)),
    # the pool's worker reads execute_cell from its own module; the
    # explorer calls run_sweep through the name it imported
    ("exec", "repro.exec.pool", ("execute_cell",)),
    ("exec", "repro.explore.explorer", ("run_sweep",)),
)

CONTROLLER_METHODS = ("read_data", "write_data", "flush_all", "crash")


class SpanTracer:
    """Span stack, per-method aggregates, ratio counters and the ring."""

    def __init__(self) -> None:
        #: open spans: [layer, attr, name, start, child seconds, id, parent]
        self._stack: list[list[Any]] = []
        self._next_id = 1
        self.group = 0
        #: (layer, name) -> [calls, self seconds]
        self.methods: dict[tuple[str, str], list[Any]] = {}
        self.counters: dict[str, int] = {}
        #: hashes of the distinct crypto argument tuples
        self.crypto_inputs: set[int] = set()
        self.ring: list[tuple[int, int, int, str, str, float, float]] = []
        self.dropped = 0
        self._restore: list[Callable[[], None]] = []

    # ------------------------------------------------------------ spans
    def _open(self, layer: str, attr: str, name: str) -> list[Any]:
        stack = self._stack
        parent = stack[-1][5] if stack else 0
        frame = [layer, attr, name, perf_counter(), 0.0, self._next_id,
                 parent]
        self._next_id += 1
        stack.append(frame)
        return frame

    def _close(self, frame: list[Any]) -> None:
        end = perf_counter()
        stack = self._stack
        stack.pop()
        layer, _, name, start, child_s, span_id, parent = frame
        duration = end - start
        if stack:
            stack[-1][4] += duration
        agg = self.methods.get((layer, name))
        if agg is None:
            agg = self.methods[(layer, name)] = [0, 0.0]
        agg[0] += 1
        agg[1] += duration - child_s
        if len(self.ring) < RING_CAPACITY:
            self.ring.append((span_id, parent, self.group, layer, name,
                              start, end))
        else:
            self.dropped += 1

    @contextmanager
    def region(self, layer: str, name: str,
               new_group: bool) -> Iterator[None]:
        """A timed region: the root span of one op.  Wrapped calls
        record spans only while a region is open."""
        if new_group:
            self.group += 1
        frame = self._open(layer, name, name)
        try:
            yield
        finally:
            self._close(frame)

    @contextmanager
    def untimed(self) -> Iterator[None]:
        """Time the benchmark itself spends inside a region (the
        reference loop): left out of the enclosing span's self time."""
        start = perf_counter()
        try:
            yield
        finally:
            if self._stack:
                self._stack[-1][4] += perf_counter() - start

    def count(self, key: str, n: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    # --------------------------------------------------------- wrapping
    def wrap(self, layer: str, name: str, fn: Callable,
             before: Callable | None = None,
             after: Callable | None = None,
             new_group: bool = False) -> Callable:
        """``fn``, recording a span per call inside a timed region.

        A call made while the innermost open span has the same layer and
        method name, such as an override calling ``super()``, folds into
        that span.  ``before(args)`` runs ahead of the call and its value
        reaches ``after(args, result, value)``; both run inside the span,
        so their cost lands on the layer they count for.
        """
        tracer = self
        attr = fn.__name__

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = tracer._stack
            if not stack or (stack[-1][1] == attr and stack[-1][0] == layer):
                return fn(*args, **kwargs)
            if new_group:
                tracer.group += 1
            frame = tracer._open(layer, attr, name)
            try:
                token = before(args) if before is not None else None
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, result, token)
            finally:
                tracer._close(frame)
            return result

        setattr(wrapper, MARK, (layer, name))
        return wrapper

    def patch(self, owner: Any, attr: str, wrapper: Callable) -> None:
        original = owner.__dict__[attr]
        setattr(owner, attr, wrapper)
        self._restore.append(lambda: setattr(owner, attr, original))

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    # ---------------------------------------------------------- results
    def layer_totals(self) -> dict[str, tuple[int, float]]:
        """{layer: (calls, self seconds)} for every layer."""
        totals = {layer: [0, 0.0] for layer in LAYERS}
        for (layer, _), (calls, self_s) in self.methods.items():
            totals[layer][0] += calls
            totals[layer][1] += self_s
        return {layer: (c, s) for layer, (c, s) in totals.items()}

    def calls(self, layer: str, name: str) -> int:
        return self.methods.get((layer, name), (0, 0.0))[0]

    def write_chrome_trace(self, path: Path) -> None:
        """The ring as Chrome trace-event JSON (viewable in Perfetto)."""
        t0 = self.ring[0][5] if self.ring else 0.0
        events = [{
            "name": name, "cat": layer, "ph": "X", "pid": 1, "tid": 1,
            "ts": round((start - t0) * 1e6, 3),
            "dur": round((end - start) * 1e6, 3),
            "args": {"id": span_id, "parent": parent, "group": group},
        } for span_id, parent, group, layer, name, start, end in self.ring]
        path.write_text(json.dumps({
            "traceEvents": events, "displayTimeUnit": "ns",
            "otherData": {"spans_dropped": self.dropped}},
            separators=(",", ":")))


def _resolve(target: str) -> Any:
    module, _, cls = target.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


def _owners(cls: type, attr: str) -> list[type]:
    """Every class in ``cls``'s MRO that defines ``attr`` itself."""
    return [c for c in cls.__mro__ if attr in c.__dict__]


def _controller_owners() -> list[tuple[str, type, str]]:
    """(layer, class, attr) for every registered scheme's controller."""
    from repro.schemes import registered_schemes

    out = []
    for entry in registered_schemes():
        for attr in CONTROLLER_METHODS:
            out += [("controller", c, attr)
                    for c in _owners(entry.factory, attr)]
        out += [("recovery", c, "recover")
                for c in _owners(entry.factory, "recover")]
    return out


def install(tracer: SpanTracer) -> None:
    """Wrap every target; ``tracer.uninstall()`` restores them."""
    from repro.mem.hierarchy import MemOp

    def llc_miss(args: tuple, result: Any, _: Any) -> None:
        tracer.count("mem.accesses")
        if any(r.op is MemOp.READ for r in result.requests):
            tracer.count("mem.llc_misses")

    def lookup_hit(args: tuple, result: Any, _: Any) -> None:
        tracer.count("integrity.lookups")
        if result is not None:
            tracer.count("integrity.lookup_hits")

    def fetches_before(args: tuple) -> int:
        return args[0].stats.metadata_fetches

    def fetches_after(args: tuple, _: Any, before: int) -> None:
        tracer.count("controller.data_ops")
        tracer.count("controller.fetches",
                     args[0].stats.metadata_fetches - before)

    def crypto_input(tag: str) -> Callable[[tuple], None]:
        def note(args: tuple) -> None:
            tracer.count("crypto.calls")
            tracer.crypto_inputs.add(hash((tag, *args[1:])))
        return note

    def stall_before(args: tuple) -> int:
        return args[0].stats.write_stall_ps

    def stall_after(args: tuple, _: Any, before: int) -> None:
        tracer.count("nvm.wq_stall_ps", args[0].stats.write_stall_ps - before)

    def recovery_reads(args: tuple, result: Any, _: Any) -> None:
        tracer.count("recovery.count")
        tracer.count("recovery.nvm_reads", result.nvm_reads)

    hooks: dict[str, dict[str, Any]] = {
        "CacheHierarchy.access": {"after": llc_miss},
        "MetadataCache.lookup": {"after": lookup_hit},
        "FastEngine.digest64": {"before": crypto_input("digest64")},
        "FastEngine.otp": {"before": crypto_input("otp")},
        "NVMTimingModel.write": {"before": stall_before,
                                 "after": stall_after},
        "execute_cell": {"new_group": True},
    }
    sites = [(layer, _resolve(target), attr)
             for layer, target, attrs in TARGETS for attr in attrs]
    done: set[tuple[int, str]] = set()
    try:
        for layer, owner, attr in sites + _controller_owners():
            if (id(owner), attr) in done:
                continue
            done.add((id(owner), attr))
            fn = owner.__dict__[attr]
            name = fn.__qualname__
            opts = hooks.get(name, {})
            if layer == "controller" and attr in ("read_data", "write_data"):
                opts = {"before": fetches_before, "after": fetches_after}
            elif layer == "recovery":
                opts = {"after": recovery_reads}
            tracer.patch(owner, attr, tracer.wrap(layer, name, fn, **opts))
    except BaseException:
        tracer.uninstall()
        raise


def installed_wrappers() -> int:
    """How many span wrappers are installed right now (0 when clean)."""
    owners = {id(o): o for o in [_resolve(t) for _, t, _ in TARGETS]
              + [c for _, c, _ in _controller_owners()]}
    return sum(1 for owner in owners.values()
               for value in vars(owner).values()
               if callable(value) and hasattr(value, MARK))
