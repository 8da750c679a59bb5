"""The paper's figures (Figs. 9-17) and the claims checked against them.

:data:`FIGURES` is the one table that defines a figure: its variants,
baseline, metric, title and the paper's numbers.  :data:`CLAIMS` holds
the paper's shape claims as data rows, evaluated by
:func:`failed_claims`.  One :class:`FigureHarness` owns a lazily-filled
matrix of (variant, workload) -> RunResult cells, so figures sharing the
same runs (9/10/11/13/15 all read the -GC matrix) never re-simulate;
:meth:`FigureHarness.figure` returns ``{row: {variant: value}}``
mappings that ``repro figure`` prints with
:func:`repro.analysis.report.render_table`.

Scale note: the paper simulates 2 billion instructions per workload in
Gem5.  The harness defaults to 40k memory accesses per cell with
LLC/footprint ratios chosen to reach steady-state churn quickly (see
``figure_config``); ``accesses`` scales up for higher fidelity.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass, replace
from typing import NamedTuple

from repro.analysis.recovery_model import figure17_sweep
from repro.common.config import (
    CacheConfig,
    HierarchyConfig,
    SystemConfig,
    default_config,
)
from repro.common.units import KB, MB
from repro.exec import (
    CellSpec,
    ResultCache,
    SweepReport,
    config_to_dict,
    run_sweep,
)
from repro.sim.runner import GC_VARIANTS, SC_VARIANTS, VARIANTS
from repro.sim.stats import RunResult, geometric_mean
from repro.workloads import PAPER_WORKLOADS

Rows = dict[str, dict[str, float]]

#: every registered figure variant, in registry order — the "zoo" figure
#: grows automatically when a plugin scheme registers new variants
ZOO_VARIANTS: tuple[str, ...] = tuple(VARIANTS)

#: the recoverable schemes Fig. 17 compares
RECOVERABLE: tuple[str, ...] = ("asit", "star", "steins-gc", "steins-sc")


@dataclass(frozen=True)
class Figure:
    """One figure: its columns, what they are normalized to, and how
    the paper reports it.  ``baseline`` and ``metric`` are ``None`` for
    Fig. 17, which the analytic recovery model produces."""

    variants: tuple[str, ...]
    baseline: str | None
    metric: str | None
    title: str
    note: str


FIGURES: dict[str, Figure] = {
    "9": Figure(GC_VARIANTS, "wb-gc", "exec_time",
                "execution time (normalized to WB-GC)",
                "paper: ASIT ~1.20x, STAR ~1.12x, Steins-GC ~1.0x"),
    "10": Figure(GC_VARIANTS, "wb-gc", "write_latency",
                 "write latency (normalized to WB-GC)",
                 "paper: ASIT ~2.14x, STAR ~1.67x, Steins-GC ~1.06x"),
    "11": Figure(GC_VARIANTS, "wb-gc", "read_latency",
                 "read latency (normalized to WB-GC)",
                 "paper: ~1.0x for all schemes"),
    "12": Figure(SC_VARIANTS, "wb-sc", "exec_time",
                 "execution time (normalized to WB-SC)",
                 "paper: Steins-SC ~0.998x WB-SC, well below Steins-GC"),
    "13": Figure(GC_VARIANTS, "wb-gc", "write_traffic",
                 "write traffic (normalized to WB-GC)",
                 "paper: ASIT ~2.0x, STAR ~1.3x, Steins-GC ~1.05x"),
    "14": Figure(SC_VARIANTS, "wb-sc", "write_traffic",
                 "write traffic (normalized to WB-SC)",
                 "paper: Steins-SC ~1.01x WB-SC"),
    "15": Figure(GC_VARIANTS, "wb-gc", "energy",
                 "energy (normalized to WB-GC)",
                 "paper: Steins-GC ~1.0x, far below ASIT and STAR"),
    "16": Figure(SC_VARIANTS, "wb-sc", "energy",
                 "energy (normalized to WB-SC)",
                 "paper: Steins-SC ~9.4% below Steins-GC"),
    "17": Figure(RECOVERABLE, None, None,
                 "recovery time in seconds (all-dirty cache, 100ns/read)",
                 "paper at 4MB: ASIT 0.02s, STAR 0.065s, "
                 "Steins-GC 0.08s, Steins-SC 0.44s"),
    "zoo": Figure(ZOO_VARIANTS, "wb-gc", "exec_time",
                  "execution time (normalized to WB-GC), every "
                  "registered variant",
                  "not a paper figure: plugin schemes beside the "
                  "paper's variants"),
}

#: the paper's figures, printed in this order when none is named
PAPER_FIGURES: tuple[str, ...] = tuple(n for n in FIGURES if n.isdigit())

#: a claim term: a variant name is that variant's geomean over the
#: figure's rows, a ``(row, variant)`` pair one cell, a number a constant
Term = str | tuple[str, str] | float

_OPS = {"<": operator.lt, "<=": operator.le}


class Claim(NamedTuple):
    """One paper claim: ``left op right`` must hold on figure's rows."""

    figure: str
    text: str
    left: Term
    op: str
    right: Term


#: the paper's shape claims, one comparison per row (an interval takes
#: two rows); ``repro figure --check`` evaluates them
CLAIMS: tuple[Claim, ...] = (
    Claim("9", "Steins-GC runs faster than ASIT", "steins-gc", "<", "asit"),
    Claim("9", "Steins-GC runs faster than STAR", "steins-gc", "<", "star"),
    Claim("9", "Steins-GC stays near WB-GC", "steins-gc", "<", 1.2),
    Claim("9", "ASIT costs execution time", 1.05, "<", "asit"),
    Claim("10", "Steins-GC writes faster than ASIT",
          "steins-gc", "<", "asit"),
    Claim("10", "ASIT inflates write latency", 1.05, "<", "asit"),
    Claim("11", "Steins-GC read latency stays near 1 (low)",
          0.7, "<", "steins-gc"),
    Claim("11", "Steins-GC read latency stays near 1 (high)",
          "steins-gc", "<", 1.3),
    Claim("11", "STAR read latency stays near 1 (low)", 0.7, "<", "star"),
    Claim("11", "STAR read latency stays near 1 (high)", "star", "<", 1.5),
    Claim("12", "Steins-SC runs faster than Steins-GC",
          "steins-sc", "<", "steins-gc"),
    Claim("12", "Steins-SC stays near WB-SC", "steins-sc", "<", 1.15),
    Claim("13", "ASIT doubles write traffic (low)", 1.8, "<", "asit"),
    Claim("13", "ASIT doubles write traffic (high)", "asit", "<=", 2.05),
    Claim("13", "Steins-GC writes less than STAR",
          "steins-gc", "<", "star"),
    Claim("13", "STAR writes less than ASIT", "star", "<", "asit"),
    Claim("13", "Steins-GC writes more on random cactusADM than on "
          "sequential lbm_r",
          ("lbm_r", "steins-gc"), "<", ("cactusADM", "steins-gc")),
    Claim("14", "Steins-SC writes less than Steins-GC",
          "steins-sc", "<", "steins-gc"),
    Claim("14", "Steins-SC stays near WB-SC", "steins-sc", "<", 1.15),
    Claim("15", "Steins-GC uses less energy than ASIT",
          "steins-gc", "<", "asit"),
    Claim("15", "Steins-GC uses less energy than STAR",
          "steins-gc", "<", "star"),
    Claim("16", "Steins-SC uses less energy than Steins-GC",
          "steins-sc", "<", "steins-gc"),
    Claim("17", "ASIT at 4MB within 15% of 0.02 s (low)",
          0.017, "<=", ("4MB", "asit")),
    Claim("17", "ASIT at 4MB within 15% of 0.02 s (high)",
          ("4MB", "asit"), "<=", 0.023),
    Claim("17", "STAR at 4MB within 15% of 0.065 s (low)",
          0.05525, "<=", ("4MB", "star")),
    Claim("17", "STAR at 4MB within 15% of 0.065 s (high)",
          ("4MB", "star"), "<=", 0.07475),
    Claim("17", "Steins-GC at 4MB within 15% of 0.08 s (low)",
          0.068, "<=", ("4MB", "steins-gc")),
    Claim("17", "Steins-GC at 4MB within 15% of 0.08 s (high)",
          ("4MB", "steins-gc"), "<=", 0.092),
    Claim("17", "Steins-SC at 4MB within 15% of 0.44 s (low)",
          0.374, "<=", ("4MB", "steins-sc")),
    Claim("17", "Steins-SC at 4MB within 15% of 0.44 s (high)",
          ("4MB", "steins-sc"), "<=", 0.506),
    Claim("17", "ASIT recovers faster than STAR at 4MB",
          ("4MB", "asit"), "<", ("4MB", "star")),
    Claim("17", "STAR recovers faster than Steins-GC at 4MB",
          ("4MB", "star"), "<", ("4MB", "steins-gc")),
    Claim("17", "Steins-GC recovers faster than Steins-SC at 4MB",
          ("4MB", "steins-gc"), "<", ("4MB", "steins-sc")),
)


def _value(term: Term, rows: Rows) -> float | None:
    """A term's value on ``rows``; ``None`` when a cell it needs is
    missing or undefined (a zero baseline)."""
    if isinstance(term, tuple):
        workload, variant = term
        return rows.get(workload, {}).get(variant)
    if isinstance(term, str):
        column = [row.get(term) for row in rows.values()]
        if not column or any(v is None or v <= 0 for v in column):
            return None
        return geometric_mean(column)
    return term


def _describe(term: Term, value: float | None) -> str:
    shown = "undefined" if value is None else f"{value:.4g}"
    if isinstance(term, tuple):
        return f"{term[1]} on {term[0]} = {shown}"
    if isinstance(term, str):
        return f"geomean {term} = {shown}"
    return shown


def failed_claims(number: str, rows: Rows) -> list[str]:
    """One line per claim of figure ``number`` that ``rows`` break.  A
    claim whose cell is missing or undefined fails: it never passes
    silently."""
    failed = []
    for claim in CLAIMS:
        if claim.figure != number:
            continue
        left = _value(claim.left, rows)
        right = _value(claim.right, rows)
        if left is None or right is None \
                or not _OPS[claim.op](left, right):
            failed.append(
                f"Fig. {number}: {claim.text}: "
                f"{_describe(claim.left, left)} {claim.op} "
                f"{_describe(claim.right, right)} does not hold")
    return failed


def figure_config() -> SystemConfig:
    """Table I structure with a scaled-down LLC.

    Trace simulation cannot afford the paper's 2 B instructions per
    workload; shrinking the CPU-side caches (not the metadata cache or
    NVM parameters) reaches the same steady-state eviction behaviour
    within tens of thousands of accesses.  The security-side structures,
    where the schemes differ, stay exactly at Table I.
    """
    cfg = default_config()
    return replace(cfg, hierarchy=HierarchyConfig(
        l1=CacheConfig(16 * KB, 2),
        l2=CacheConfig(128 * KB, 8),
        l3=CacheConfig(512 * KB, 8),
    ))


class FigureHarness:
    """Cached (variant, workload) simulation matrix + figure extractors.

    Cells execute through :mod:`repro.exec`: ``jobs`` > 1 fans missing
    cells out over a worker pool, and an optional :class:`ResultCache`
    persists every completed cell so a warm regeneration simulates
    nothing.  Parallel and serial fills are bitwise identical (each cell
    derives its own RNG stream from its spec alone).
    """

    def __init__(self, accesses: int = 40_000,
                 footprint_blocks: int = 1 << 16,
                 seed: int = 2024,
                 workloads: tuple[str, ...] = PAPER_WORKLOADS,
                 cfg: SystemConfig | None = None,
                 jobs: int = 1,
                 cache: ResultCache | None = None,
                 service: str | None = None) -> None:
        self.accesses = accesses
        self.footprint_blocks = footprint_blocks
        self.seed = seed
        self.workloads = workloads
        self.cfg = cfg if cfg is not None else figure_config()
        self.jobs = jobs
        self.cache = cache
        #: socket path of a running ``repro serve`` instance; when set,
        #: sweeps route through the service instead of a local pool
        self.service = service
        #: optional ``(done, total, outcome)`` callback for sweep progress
        self.progress = None
        #: the report of the most recent :meth:`ensure` fan-out
        self.last_sweep: SweepReport | None = None
        self._cells: dict[tuple[str, str], RunResult] = {}
        self._config_dict = config_to_dict(self.cfg)

    # ------------------------------------------------------------ cells
    def spec(self, variant: str, workload: str) -> CellSpec:
        """The self-contained executor spec for one matrix cell."""
        return CellSpec("sim", variant, workload, self.accesses,
                        self.footprint_blocks, self.seed,
                        config=self._config_dict)

    def ensure(self, pairs: list[tuple[str, str]]) -> None:
        """Fill all missing cells among ``pairs`` in one sweep."""
        missing: list[tuple[str, str]] = []
        for pair in pairs:
            if pair not in self._cells and pair not in missing:
                missing.append(pair)
        if not missing:
            return
        specs = [self.spec(v, w) for v, w in missing]
        report = run_sweep(specs, jobs=self.jobs, cache=self.cache,
                           progress=self.progress, service=self.service)
        for pair, result in zip(missing, report.values):
            self._cells[pair] = result
        self.last_sweep = report

    def ensure_matrix(self, variants: tuple[str, ...]) -> None:
        """Fill the full ``variants`` x ``self.workloads`` matrix."""
        self.ensure([(v, w) for v in variants for w in self.workloads])

    def cell(self, variant: str, workload: str) -> RunResult:
        key = (variant, workload)
        if key not in self._cells:
            self.ensure([key])
        return self._cells[key]

    def _normalized(self, variants: tuple[str, ...], baseline: str,
                    metric: str) -> Rows:
        needed = dict.fromkeys(variants)
        needed[baseline] = None
        self.ensure_matrix(tuple(needed))
        rows: Rows = {}
        for workload in self.workloads:
            base = self.cell(baseline, workload)
            row: dict[str, float] = {}
            for variant in variants:
                norm = self.cell(variant, workload).normalized_to(base)
                row[variant] = norm[metric]
            rows[workload] = row
        return rows

    def ensure_figures(self, numbers: list[str]) -> None:
        """Fill every cell the ``numbers`` figures read in one sweep."""
        needed: dict[str, None] = {}
        for number in numbers:
            fig = FIGURES[number]
            if fig.baseline is not None:
                needed.update(dict.fromkeys(fig.variants))
                needed[fig.baseline] = None
        self.ensure_matrix(tuple(needed))

    def figure(self, number: str) -> Rows:
        """Figure ``number``'s ``{row: {variant: value}}`` mapping.

        Figs. 9-16 and ``zoo`` normalize the simulated matrix to the
        figure's baseline.  Fig. 17 is the analytic recovery model
        (all-dirty cache, 100 ns per read-and-verify, Sec. IV-D) at the
        paper's cache sizes; no simulated recovery enters it, and the
        functional recoveries are only checked to recover at least one
        node (``benchmarks/bench_fig17_recovery_time.py``).
        """
        fig = FIGURES[number]
        if fig.baseline is not None:
            return self._normalized(fig.variants, fig.baseline, fig.metric)
        rows: Rows = {}
        for variant, estimates in figure17_sweep().items():
            for est in estimates:
                size = est.cache_bytes
                label = f"{size // KB}KB" if size < MB else f"{size // MB}MB"
                rows.setdefault(label, {})[variant] = est.time_s
        return rows
