"""SPEC2006/2017-like workload profiles (paper Sec. IV).

We do not have SPEC binaries (proprietary), so each benchmark the paper
uses is replaced by a synthetic profile matching its published memory
behaviour — footprint, write intensity, and access-pattern mix — which
are the properties the paper's figures actually exercise (it explicitly
contrasts random-access cactusADM against sequential lbm for write
traffic).  See DESIGN.md, substitution table.

Profiles (8 SPEC-like, as the paper selects eight from ASIT's set):

==============  =========================================================
``lbm_r``       fluid dynamics: streaming sequential, write-heavy
``mcf_r``       sparse network simplex: pointer chasing, read-heavy
``libquantum``  quantum simulation: sequential streaming reads
``milc``        lattice QCD: strided sweeps, moderate writes
``cactusADM``   numerical relativity: random stencil updates, write-heavy
``gems``        GemsFDTD: large strided read sweeps
``xalancbmk``   XML transform: Zipf-skewed pointer traffic
``omnetpp``     discrete-event sim: Zipf random with frequent writes
==============  =========================================================
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.common.errors import ConfigError
from repro.common.rng import derive_seed, make_rng
from repro.workloads import synthetic as syn
from repro.workloads.trace import TraceArrays, interleave


@dataclass(frozen=True)
class WorkloadProfile:
    """A named, parameterized trace generator."""

    name: str
    description: str
    build: Callable[[int, int, int], TraceArrays]  # (seed, n, footprint)
    #: persistent-memory workloads flush (clwb) every store so writes
    #: reach the memory controller immediately (STAR's workloads do)
    persistent: bool = False
    #: per-benchmark footprint relative to the harness baseline — SPEC
    #: benchmarks differ wildly in resident set size
    footprint_mult: float = 1.0

    def generate(self, seed: int, n: int, footprint: int) -> TraceArrays:
        """Build the trace from a *profile-unique* derived seed.

        The builders compose shared primitives (``sequential``, ``zipf``,
        ...) that tag their streams only by primitive kind, so two
        profiles handed the same base seed would draw from identical
        sub-streams.  Deriving ``(seed, "workload", name)`` here gives
        every (workload, seed) cell of a sweep its own independent RNG
        stream; variants deliberately share the trace (the paper
        compares schemes on identical access streams), which is why the
        derivation excludes the variant.

        ``n`` is exact for the SPEC-like profiles.  The persistent ones
        emit whole transactions (``n // 3`` hash inserts of 3 or 4
        accesses, ``n // 4`` swaps of 4), so their length is only near
        ``n``: at seed 2024, ``pers_hash`` gives 409 accesses for
        ``n=400`` and ``pers_swap`` 248 for ``n=250``.
        """
        if n <= 0 or footprint <= 0:
            raise ConfigError("length and footprint must be positive")
        cell_seed = derive_seed(seed, "workload", self.name)
        return self.build(cell_seed, n, max(64, int(footprint
                                                    * self.footprint_mult)))


def _lbm(seed: int, n: int, fp: int) -> TraceArrays:
    # two streaming arrays: read the source grid, write the target grid
    half = fp // 2
    reads = syn.sequential(seed, n // 2, 0, half, write_frac=0.05,
                           gap_mean=6)
    writes = syn.sequential(seed + 1, n - n // 2, half, half,
                            write_frac=0.9, gap_mean=6)
    return interleave([reads, writes], chunk=64, rng=make_rng(seed, "lbm"))


def _mcf(seed: int, n: int, fp: int) -> TraceArrays:
    # pointer chase over the arc network; node-field updates hit a much
    # smaller arena (SPEC write sets are far smaller than read footprints)
    chase = syn.pointer_chase(seed, (n * 4) // 5, 0, min(fp, 1 << 16),
                              write_frac=0.0, gap_mean=18)
    updates = syn.zipf(seed + 1, n - len(chase), 0, max(64, fp // 4),
                       skew=1.2, write_frac=0.9, gap_mean=18)
    return interleave([chase, updates], chunk=128,
                      rng=make_rng(seed, "mcf"))


def _libquantum(seed: int, n: int, fp: int) -> TraceArrays:
    # stream the register array; amplitudes are written back into a
    # compact output region
    reads = syn.sequential(seed, (n * 17) // 20, 0, fp, write_frac=0.0,
                           gap_mean=4)
    writes = syn.sequential(seed + 1, n - len(reads), 0,
                            max(64, fp // 2), write_frac=1.0, gap_mean=4)
    return interleave([reads, writes], chunk=256,
                      rng=make_rng(seed, "libq"))


def _milc(seed: int, n: int, fp: int) -> TraceArrays:
    # sweep the lattice; update the local field block being computed
    s1 = syn.strided(seed, n // 2, 0, fp, stride=17, write_frac=0.05,
                     gap_mean=12)
    s2 = syn.sequential(seed + 1, n - n // 2, 0, max(64, fp // 3),
                        write_frac=0.6, gap_mean=12)
    return interleave([s1, s2], chunk=256, rng=make_rng(seed, "milc"))


def _cactus(seed: int, n: int, fp: int) -> TraceArrays:
    return syn.uniform_random(seed, n, 0, fp, write_frac=0.45, gap_mean=14)


def _gems(seed: int, n: int, fp: int) -> TraceArrays:
    # FDTD: stream the grids, write the field block under the stencil
    reads = syn.strided(seed, (n * 4) // 5, 0, fp, stride=33,
                        write_frac=0.0, gap_mean=8)
    writes = syn.strided(seed + 1, n - len(reads), 0, max(64, fp // 3),
                         stride=3, write_frac=0.9, gap_mean=8)
    return interleave([reads, writes], chunk=256,
                      rng=make_rng(seed, "gems"))


def _xalanc(seed: int, n: int, fp: int) -> TraceArrays:
    # Zipf-hot pointer traffic plus a DOM-rebuild scan phase: the scan is
    # what pushes dirty lines out of the LLC in the real benchmark too.
    hot = syn.zipf(seed, (n * 4) // 5, 0, fp, skew=1.3, write_frac=0.25,
                   gap_mean=20)
    scan = syn.sequential(seed + 1, n - len(hot), 0, fp, write_frac=0.3,
                          gap_mean=10)
    return interleave([hot, scan], chunk=512,
                      rng=make_rng(seed, "xalanc"))


def _omnetpp(seed: int, n: int, fp: int) -> TraceArrays:
    # event-heap churn (Zipf) with periodic event-log appends (stream)
    hot = syn.zipf(seed, (n * 5) // 6, 0, fp, skew=1.15, write_frac=0.4,
                   gap_mean=16)
    log = syn.sequential(seed + 1, n - len(hot), 0, fp, write_frac=0.8,
                         gap_mean=12)
    return interleave([hot, log], chunk=512,
                      rng=make_rng(seed, "omnetpp"))


SPEC_PROFILES: dict[str, WorkloadProfile] = {
    p.name: p for p in (
        WorkloadProfile("lbm_r", "streaming grids, write-heavy", _lbm,
                        footprint_mult=3.0),
        WorkloadProfile("mcf_r", "pointer chasing, read-heavy", _mcf,
                        footprint_mult=2.0),
        WorkloadProfile("libquantum", "sequential streaming reads",
                        _libquantum, footprint_mult=4.0),
        WorkloadProfile("milc", "strided sweeps, moderate writes", _milc,
                        footprint_mult=1.5),
        WorkloadProfile("cactusADM", "random stencil updates, write-heavy",
                        _cactus, footprint_mult=0.75),
        WorkloadProfile("gems", "large strided read sweeps", _gems,
                        footprint_mult=2.0),
        WorkloadProfile("xalancbmk", "Zipf-skewed pointer traffic", _xalanc,
                        footprint_mult=1.0),
        WorkloadProfile("omnetpp", "Zipf random, frequent writes",
                        _omnetpp, footprint_mult=1.0),
    )
}
