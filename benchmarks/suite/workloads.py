"""The five benchmark workloads and the closed loop that drives them.

Every workload is a closed loop with one client: each op starts only
after the previous one finished.  A workload is a fixed batch of work:
the run seed gives its inputs and nothing else, so a run does the same
work however fast the code is, and two commits are measured on the same
ops.  The ops are grouped into *rounds*, each with one hash of its
simulated outputs: a cell (access workloads), one recovery sample of
every scheme (``crash-recover``) or the whole exploration (``explore``).

Simulated caches start empty in every cell, as in the figure harness.
Variant and scheme lists are literals: a newly registered plugin does
not change the benchmark.  ``repro`` is imported lazily, so the parent
process can read the workload table without the simulator on its path.
"""
from __future__ import annotations

import hashlib
import json
import math
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, ContextManager, Iterator

ALL_VARIANTS = ("wb-gc", "wb-sc", "asit", "star", "scue", "steins-gc",
                "steins-sc", "phoenix", "secpm")

#: accesses per timed op of an access workload: one ``run_stream`` call
#: on the next segment of a cell's trace (the same segment
#: ``crash-recover`` runs between two crashes)
SEGMENT = 1000


def scaled(n: int, scale: float, floor: int) -> int:
    return max(floor, int(n * scale))


#: a fixed scale near the seconds :func:`reference_s` takes on the host
#: this suite was tuned on (2-core x86-64 container): rescaled times are
#: in these reference seconds, comparable with each other only
REFERENCE_S = 0.002
#: host seconds between two reference loops
WINDOW_S = 0.1


def reference_table() -> dict[int, int]:
    """The table :func:`reference_s` updates, one per process."""
    return dict.fromkeys(range(1 << 13), 0)


def reference_s(table: dict[int, int]) -> float:
    """Host seconds of a fixed interpreter loop over ``table``.

    Timed between ops, it tells how fast the host runs Python at that
    moment.  On a shared host that speed swings by up to 2x within a
    second and drifts between such levels over minutes, whatever the
    code under test does; rescaling each op by it removes most of the
    swing from the metrics.  Contention slows memory-bound work more
    than arithmetic, so the loop scatters updates over a table larger
    than the L1 cache and reused between calls: like the simulator's
    own tables, it has to come back from wherever the work in between
    pushed it.  Of the loops tried (arithmetic on a small table, this
    one, small-object allocation, a toy cache model and mixes of them)
    it tracked the five workloads best.
    """
    t0 = perf_counter()
    s = 1
    for i in range(5000):
        s = (s * 0x9E3779B1 + i) & 0xFFFFFFFF
        k = s & 0x1FFF
        table[k] = (table[k] + s) & 0xFFFF
    return perf_counter() - t0


class Untraced:
    """Where a measuring child opens timed regions.  Untraced runs use
    this no-op; traced runs use a :class:`spans.SpanTracer`."""

    def region(self, layer: str, name: str,
               new_group: bool) -> ContextManager[Any]:
        """The root of one timed op; ``new_group`` starts a new op
        group (a cell, a recovery sample, an exploration)."""
        return nullcontext()

    def untimed(self) -> ContextManager[Any]:
        """Time inside a region that belongs to no layer."""
        return nullcontext()


@dataclass
class Recorder:
    """Everything one measuring child reports back.

    ``latencies`` holds each op's seconds rescaled to reference speed:
    the measured time times ``REFERENCE_S`` over the mean of the
    reference loops that open and close its window (about ``WINDOW_S``
    of host time).  ``seconds`` is their sum, ``region_s`` the sum of
    the measured times, ``work`` the units of work done.  Each round
    records its op count and the hash of its simulated outputs.
    """

    timing: Any = field(default_factory=Untraced)
    rounds: list[dict[str, Any]] = field(default_factory=list)
    latencies: list[float] = field(default_factory=list)
    seconds: float = 0.0
    region_s: float = 0.0
    work: int = 0
    #: failed ops; ``aborted`` is 1 when an op raised and ended the run
    failed: int = 0
    aborted: int = 0
    errors: list[str] = field(default_factory=list)
    #: simulated-time values and counts, reported beside the metrics
    sim: dict[str, list[float]] = field(default_factory=dict)
    _pending: list[float] = field(default_factory=list)
    _table: dict[int, int] = field(default_factory=reference_table)
    _reference: float = 0.0
    _window_start: float = 0.0
    _round_start: int = 0
    _digest: Any = None

    def start(self) -> None:
        self._reference = reference_s(self._table)
        self._window_start = perf_counter()

    @property
    def ops(self) -> int:
        return len(self.latencies) + len(self._pending)

    def timed(self, seconds: float, work: int = 0) -> None:
        """One op of ``seconds`` that did ``work``; closes the window
        once it has lasted ``WINDOW_S``."""
        self._pending.append(seconds)
        self.region_s += seconds
        self.work += work
        if perf_counter() - self._window_start >= WINDOW_S:
            self.calibrate()

    def calibrate(self) -> None:
        """Rescale the window's ops and open the next window."""
        with self.timing.untimed():
            reference = reference_s(self._table)
        speed = REFERENCE_S * 2 / (self._reference + reference)
        for seconds in self._pending:
            self.latencies.append(seconds * speed)
            self.seconds += seconds * speed
        self._pending.clear()
        self._reference = reference
        self._window_start = perf_counter()

    def output(self, result: Any) -> None:
        """Simulated output of the current round, for its hash."""
        self._digest.update(json.dumps(
            result, sort_keys=True, separators=(",", ":")).encode())

    def note(self, key: str, value: float) -> None:
        self.sim.setdefault(key, []).append(value)

    def begin_round(self) -> None:
        self._digest = hashlib.sha256()
        self._round_start = self.ops

    def end_round(self) -> None:
        self.rounds.append({"hash": self._digest.hexdigest()[:16],
                            "ops": self.ops - self._round_start})

    def to_json(self) -> dict[str, Any]:
        return {"rounds": self.rounds, "latencies": self.latencies,
                "seconds": self.seconds, "region_s": self.region_s,
                "work": self.work, "attempted": self.ops + self.aborted,
                "failed": self.failed, "errors": self.errors,
                "sim": self.sim}


def _slice(trace: Any, lo: int, hi: int) -> Any:
    from repro.workloads.trace import TraceArrays

    return TraceArrays(trace.is_write[lo:hi], trace.address[lo:hi],
                       trace.gap_cycles[lo:hi])


def _segments(trace: Any) -> Iterator[Any]:
    """The trace in ``SEGMENT``-access pieces, each already converted to
    the python columns ``run_stream`` reads, so no op pays for that.
    Running them one after another equals running the whole trace: the
    batched loop keeps no state between calls but the clock, and
    simulated time is integer picoseconds."""
    for lo in range(0, len(trace), SEGMENT):
        segment = _slice(trace, lo, lo + SEGMENT)
        segment.columns  # noqa: B018 - cached conversion
        yield segment


class AccessWorkload:
    """Every variant runs every trace from empty caches: one cell, and
    one round, per (variant, trace), timed per segment of
    ``run_stream``."""

    unit = "accesses"

    def __init__(self, variants: tuple[str, ...], traces: dict[str, int],
                 footprint: int) -> None:
        self.variants = variants
        #: trace name -> accesses per cell
        self.traces = traces
        self.footprint = footprint

    def start(self, seed: int, scale: float) -> dict[str, Any]:
        from repro.analysis.figures import figure_config

        return {"seed": seed, "cfg": figure_config(),
                "n": {name: scaled(n, scale, 200)
                      for name, n in self.traces.items()}}

    def _cells(self, state: dict[str, Any]) -> Iterator[tuple]:
        """(variant, trace name, profile, fresh system, trace); each
        trace is generated once and shared by every variant."""
        from repro.sim.runner import make_system
        from repro.workloads import get_profile

        for name in self.traces:
            profile = get_profile(name)
            trace = profile.generate(state["seed"], state["n"][name],
                                     self.footprint)
            for variant in self.variants:
                yield (variant, name, profile,
                       make_system(variant, state["cfg"]), trace)

    def setup(self, state: dict[str, Any]) -> None:
        for _ in self._cells(state):
            pass

    def run(self, state: dict[str, Any], rec: Recorder) -> None:
        exec_ns: dict[tuple[str, str], float] = {}
        for variant, name, profile, system, trace in self._cells(state):
            rec.begin_round()
            for i, segment in enumerate(_segments(trace)):
                t0 = perf_counter()
                with rec.timing.region("sim.system", "run_stream", i == 0):
                    system.run_stream(segment,
                                      flush_writes=profile.persistent)
                rec.timed(perf_counter() - t0, len(segment))
            result = system.result(name)
            rec.output(result.to_json())
            rec.end_round()
            exec_ns[(variant, name)] = result.exec_time_ns
        if "steins-gc" in self.variants and "wb-gc" in self.variants:
            # Fig. 9's headline: steins-gc exec time over wb-gc, geomean
            # over the traces (the paper reports 1.006x)
            logs = [math.log(exec_ns[("steins-gc", t)]
                             / exec_ns[("wb-gc", t)]) for t in self.traces]
            rec.note("steins_exec_norm", math.exp(sum(logs) / len(logs)))


class CrashRecoverWorkload:
    """Fresh dirty states, one crash+recover each.

    One system per scheme warms on ``mcf_r`` until its metadata cache
    holds as many dirty nodes as it will (recovery work stops growing
    after about 40k accesses: before that, seeds that dirty the cache
    sooner recover more).  Then each round takes one recovery sample per
    scheme: run the next segment of the trace, capture the golden state,
    time ``crash()`` + ``recover()``, check the recovered state outside
    the timed region.
    """

    unit = "recoveries"
    variants = ("asit", "star", "scue", "steins-gc", "steins-sc",
                "phoenix", "secpm")
    trace = "mcf_r"

    def __init__(self, warm: int, samples: int, footprint: int) -> None:
        self.warm = warm
        self.samples = samples
        self.footprint = footprint

    def start(self, seed: int, scale: float) -> dict[str, Any]:
        from repro.analysis.figures import figure_config

        return {"seed": seed, "warm": scaled(self.warm, scale, 200),
                "segment": scaled(SEGMENT, scale, 20),
                "cfg": figure_config()}

    def _build(self, state: dict[str, Any]) -> tuple[Any, dict[str, Any]]:
        from repro.sim.runner import make_system
        from repro.workloads import get_profile

        n = state["warm"] + self.samples * state["segment"]
        trace = get_profile(self.trace).generate(state["seed"], n,
                                                 self.footprint)
        return trace, {v: make_system(v, state["cfg"])
                       for v in self.variants}

    def setup(self, state: dict[str, Any]) -> None:
        self._build(state)

    def run(self, state: dict[str, Any], rec: Recorder) -> None:
        from repro.sim.crash import capture_golden, check_recovered

        trace, systems = self._build(state)
        warm, size = state["warm"], state["segment"]
        for system in systems.values():
            system.run_stream(_slice(trace, 0, warm))
        for i in range(self.samples):
            rec.begin_round()
            lo = warm + i * size
            segment = _slice(trace, lo, lo + size)
            for variant, system in systems.items():
                system.run_stream(segment)
                golden = capture_golden(system)
                t0 = perf_counter()
                with rec.timing.region("sim.system", "crash+recover", True):
                    system.crash()
                    report = system.recover()
                rec.timed(perf_counter() - t0, 1)
                check_recovered(system, golden)
                rec.output(report.to_json())
                if variant == "steins-gc":
                    # Fig. 17's model: 100 ns per metadata read-and-verify
                    rec.note("steins_recovery_sim_ms", report.time_ns / 1e6)
            rec.end_round()


class ExploreWorkload:
    """The ``repro explore --small`` enumeration, serial and uncached:
    one round.  Its ops are the explorer's cells, each timed from the
    end of the previous one (so planning between sweeps counts), its
    work the explored candidates."""

    unit = "candidates"
    schemes = ("asit", "phoenix", "scue", "secpm", "star", "steins")

    def __init__(self, accesses: int, footprint: int) -> None:
        self.accesses = accesses
        self.footprint = footprint

    def start(self, seed: int, scale: float) -> dict[str, Any]:
        return {"seed": seed, "n": scaled(self.accesses, scale, 12)}

    def setup(self, state: dict[str, Any]) -> None:
        # the explorer builds its systems and traces inside every cell,
        # so importing it is all the set-up before the timed region
        import repro.explore  # noqa: F401

    def run(self, state: dict[str, Any], rec: Recorder) -> None:
        from repro.explore import run_explore

        last = perf_counter()

        def cell_done(*_: Any) -> None:
            nonlocal last
            rec.timed(perf_counter() - last)
            last = perf_counter()

        rec.begin_round()
        with rec.timing.region("explore", "run_explore", True):
            summary = run_explore(
                schemes=list(self.schemes), accesses=state["n"],
                footprint=self.footprint, seed=state["seed"], jobs=1,
                cache=None, progress=cell_done)
        rec.work += summary.explored_total
        rec.output(summary.to_json())
        rec.failed += len(summary.failures) + len(summary.escaped_mutants)
        if not summary.ok:
            rec.errors.append("exploration not ok")
        rec.end_round()
        rec.note("explored", summary.explored_total)
        rec.note("pruned", summary.pruned_total)


#: name -> workload; "why" is recorded in BENCHMARK.json and README.md.
#: Each is sized to take 10-25 s of host time on a 2-core x86-64
#: container.
WORKLOADS: dict[str, Any] = {
    # half the figure harness's 40k-access cell: by 20k accesses the
    # 512 KB LLC has filled and evicts dirty lines on both traces
    "fig-miss": AccessWorkload(
        ALL_VARIANTS, {"mcf_r": 20_000, "gems": 20_000}, footprint=1 << 16),
    # libquantum ops take 2-3x as long as xalancbmk ops and hardly
    # overlap them: with equal lengths the median op would fall in the
    # gap between the two
    "fig-hit": AccessWorkload(
        ("wb-gc", "asit", "star", "steins-gc"),
        {"xalancbmk": 500_000, "libquantum": 250_000}, footprint=2048),
    "persist": AccessWorkload(
        ALL_VARIANTS, {"pers_hash": 16_000, "pers_swap": 16_000},
        footprint=1 << 16),
    # 15 samples per scheme give 105 recoveries: ten beyond the 90th
    # percentile
    "crash-recover": CrashRecoverWorkload(
        warm=40_000, samples=15, footprint=1 << 16),
    # the --small preset of `repro explore` on 40 accesses, not 60
    "explore": ExploreWorkload(accesses=40, footprint=256),
}


def measure(name: str, seed: int, scale: float,
            timing: Any = None) -> Recorder:
    """Run the whole of workload ``name`` once.  A failing op ends the
    run; it is reported, not raised."""
    workload = WORKLOADS[name]
    rec = Recorder(timing if timing is not None else Untraced())
    state = workload.start(seed, scale)
    rec.start()
    try:
        workload.run(state, rec)
    except Exception:  # noqa: BLE001
        # the op that raised is attempted and failed
        rec.aborted = 1
        rec.failed += 1
        rec.errors.append(traceback.format_exc())
    rec.calibrate()
    return rec
