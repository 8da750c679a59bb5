"""Golden stats-pin suite: the simulator's observable output is frozen.

Two properties, both load-bearing for the exact-time/fast-path work:

* **Pinned cells** — every (variant, workload) metric dump is
  byte-identical to ``fixtures/golden_stats.json``.  Integer-picosecond
  time plus deterministic traces make this exact: any refactor of the
  hot path (batching, memoization, event-driven skips) that changes a
  single count, latency, or energy value fails here, not in a figure
  three PRs later.  Regenerate the fixture ONLY for a change that is
  *meant* to alter simulated behaviour, never for a performance change.

* **Batch equivalence** — :meth:`SecureNVMSystem.run_stream` (the
  batched hot path) produces results byte-identical to the per-access
  ``advance``/``store``/``load`` loop it replaced.  Integer time sums
  are associative, which is what makes the deferred-cycle accumulation
  provably equivalent; this test is the proof's executable half.
"""
import json
from pathlib import Path

import pytest

from repro.common.config import small_config
from repro.nvm.layout import Region
from repro.sim.multi import MultiControllerSystem
from repro.sim.runner import VARIANTS, RunSpec, make_system, run_cell
from repro.workloads import get_profile
from repro.workloads.trace import TraceArrays
from tests.conftest import drive

GOLDEN_PATH = Path(__file__).resolve().parent / "fixtures" / \
    "golden_stats.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text())

#: the pinned single-controller grid (15 cells including multi)
WORKLOADS = ("mcf_r", "pers_hash")
SPEC = dict(accesses=3000, footprint_blocks=2048, seed=99)


def canon(value) -> str:
    """Canonical byte form used for the byte-identity comparison."""
    return json.dumps(value, sort_keys=True)


class TestPinnedCells:
    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    @pytest.mark.parametrize("workload", WORKLOADS)
    def test_cell_byte_identical(self, variant, workload):
        spec = RunSpec(variant=variant, workload=workload, **SPEC)
        result = run_cell(spec, small_config())
        assert canon(result.to_json()) == \
            canon(GOLDEN[f"{variant}/{workload}"])

    def test_multi_controller_cell_byte_identical(self):
        mc = MultiControllerSystem("steins", small_config(),
                                   num_controllers=3)
        trace = get_profile("mcf_r").generate(7, 2000, 1024)
        for is_write, addr, gap in trace:
            mc.advance(gap)
            (mc.store if is_write else mc.load)(addr)
        r = mc.result()
        got = {
            "num_controllers": r.num_controllers,
            "exec_time_ns": r.exec_time_ns,
            "total_busy_ns": r.total_busy_ns,
            "nvm_write_traffic": r.nvm_write_traffic,
            "energy_nj": r.energy_nj,
            "parallel_speedup": r.parallel_speedup,
        }
        assert canon(got) == canon(GOLDEN["multi/steins-gc/mcf_r"])

    def test_fixture_covers_every_variant(self):
        expected = {f"{v}/{w}" for v in VARIANTS for w in WORKLOADS}
        expected.add("multi/steins-gc/mcf_r")
        assert set(GOLDEN) == expected


class TestBatchEquivalence:
    """run_stream == per-access advance/store/load, byte for byte."""

    @staticmethod
    def assert_same_memory(batched, stepped) -> None:
        assert batched.persisted == stepped.persisted
        assert dict(batched.device.populated(Region.DATA)) == \
            dict(stepped.device.populated(Region.DATA))

    @pytest.mark.parametrize("variant,workload", [
        ("steins-gc", "mcf_r"),      # read-heavy, non-persistent
        ("wb-sc", "pers_hash"),      # persistent: exercises clwb flushes
        ("scue", "libquantum"),      # distinct controller family
    ])
    def test_stream_matches_per_access_loop(self, variant, workload):
        profile = get_profile(workload)
        trace = profile.generate(5, 1500, 1024)
        flush = profile.persistent

        batched = make_system(variant, small_config())
        batched.run_stream(trace, flush_writes=flush)

        stepped = make_system(variant, small_config())
        drive(stepped, trace, flush_writes=flush)

        assert batched.clock.now_ps == stepped.clock.now_ps
        assert batched.accesses == stepped.accesses
        assert canon(batched.result(workload).to_json()) == \
            canon(stepped.result(workload).to_json())
        self.assert_same_memory(batched, stepped)

    @pytest.mark.parametrize("variant,workload", [
        ("steins-gc", "mcf_r"),      # unflushed stores lost to the crash
        ("asit", "pers_hash"),       # flushed stores survive it
    ])
    def test_crash_between_stream_segments(self, variant, workload):
        profile = get_profile(workload)
        trace = profile.generate(5, 1500, 1024)
        flush = profile.persistent
        first = trace.head(700)
        second = TraceArrays(trace.is_write[700:], trace.address[700:],
                             trace.gap_cycles[700:])

        batched = make_system(variant, small_config())
        batched.run_stream(first, flush_writes=flush)
        batched.crash()
        batched.recover()
        batched.run_stream(second, flush_writes=flush)

        stepped = make_system(variant, small_config())
        drive(stepped, first, flush_writes=flush)
        stepped.crash()
        stepped.recover()
        drive(stepped, second, flush_writes=flush)

        assert batched.clock.now_ps == stepped.clock.now_ps
        assert batched.accesses == stepped.accesses
        assert canon(batched.result(workload).to_json()) == \
            canon(stepped.result(workload).to_json())
        self.assert_same_memory(batched, stepped)
