"""Sec. IV-F — multi-controller scalability.

Parallel speedup of disjoint client streams over 1/2/4/6 memory
controllers (Cascade Lake: 2 MCs x 3 Optane DIMMs), and the serialization
of colliding streams.
"""
from benchmarks.conftest import save_and_show
from repro.analysis.figures import figure_config
from repro.analysis.report import render_table
from repro.common.rng import make_rng
from repro.sim.multi import MultiControllerSystem


def sweep(accesses: int = 8000):
    cfg = figure_config()
    rng = make_rng(4, "scalability")
    addrs = [int(a) for a in rng.integers(0, 1 << 16, accesses)]
    rows = {}
    for n in (1, 2, 4, 6):
        multi = MultiControllerSystem("steins", cfg, num_controllers=n)
        for addr in addrs:
            multi.store(addr, flush=True)
        r = multi.result()
        rows[f"{n} MC"] = {
            "wall_ms": r.exec_time_ns / 1e6,
            "speedup": r.parallel_speedup,
        }
    return rows


def test_scalability(benchmark, results_dir):
    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    table = render_table(
        "Sec. IV-F: Steins over multiple memory controllers "
        "(disjoint client streams)",
        ["wall_ms", "speedup"], rows, mean_row=False, fmt="{:.3f}")
    save_and_show(results_dir, "scalability", table)
    assert rows["4 MC"]["wall_ms"] < rows["1 MC"]["wall_ms"]
    assert rows["4 MC"]["speedup"] > rows["2 MC"]["speedup"] > 1.0
