"""Zero-denominator averages must be exact 0.0, end to end.

Every ``x / n if n else 0.0`` average in the stats facade
(``TimingStats.avg_read_ns``/``avg_write_ns``,
``ControllerStats.avg_read_ns``/``avg_write_ns``,
``CacheStats.hit_rate``) has a zero-access edge the figures never
exercise; these tests pin it down both on the dataclasses directly and
through a full zero-access simulation whose ``RunResult`` must survive
a ``to_json``/``from_json`` round trip bit-for-bit.
"""
import numpy as np

from repro.baselines.base import ControllerStats
from repro.mem.cache import CacheStats
from repro.nvm.timing import TimingStats
from repro.obs import system_registry
from repro.sim.runner import RunSpec, make_system, run_cell, run_trace
from repro.sim.stats import RunResult
from repro.workloads.trace import TraceArrays


def empty_trace() -> TraceArrays:
    return TraceArrays(
        is_write=np.zeros(0, dtype=np.bool_),
        address=np.zeros(0, dtype=np.int64),
        gap_cycles=np.zeros(0, dtype=np.float64),
    )


class TestDataclassZeroAverages:
    def test_timing_stats(self):
        s = TimingStats()
        assert s.avg_read_ns == 0.0
        assert s.avg_write_ns == 0.0
        assert isinstance(s.avg_read_ns, float)

    def test_controller_stats(self):
        s = ControllerStats()
        assert s.avg_read_ns == 0.0
        assert s.avg_write_ns == 0.0

    def test_cache_stats(self):
        s = CacheStats()
        assert s.accesses == 0
        assert s.hit_rate == 0.0


class TestZeroAccessRun:
    def run_empty(self, variant: str) -> RunResult:
        system = make_system(variant)
        return run_trace(system, empty_trace(), "empty")

    def test_all_metrics_exactly_zero(self):
        for variant in ("wb-gc", "steins-gc", "steins-sc"):
            r = self.run_empty(variant)
            assert r.exec_time_ns == 0.0
            assert r.data_reads == 0
            assert r.data_writes == 0
            assert r.avg_read_latency_ns == 0.0
            assert r.avg_write_latency_ns == 0.0
            assert r.nvm_write_traffic == 0
            assert r.nvm_read_traffic == 0
            assert r.energy_nj == 0.0
            assert r.metadata_cache_hit_rate == 0.0

    def test_round_trip_preserves_exact_zeros(self):
        r = self.run_empty("steins-gc")
        back = RunResult.from_json(r.to_json())
        assert back == r
        # exact float equality, not approx: 0/0-guarded averages must
        # serialize as real 0.0, never -0.0, nan or 1e-17 residue
        assert back.avg_read_latency_ns == 0.0
        assert back.avg_write_latency_ns == 0.0
        assert back.metadata_cache_hit_rate == 0.0

    def test_as_dict_of_zero_run(self):
        d = self.run_empty("wb-gc").as_dict()
        assert d["avg_read_latency_ns"] == 0.0
        assert d["avg_write_latency_ns"] == 0.0
        assert d["detail.max_read_latency_ns"] == 0.0
        assert d["detail.max_write_latency_ns"] == 0.0

    def test_registry_gauges_of_zero_run(self):
        """The repro.obs facade reports the same exact zeros."""
        system = make_system("steins-gc")
        run_trace(system, empty_trace(), "empty")
        reg = system_registry(system)
        assert reg.gauge("nvm.timing.avg_read_ns").value == 0.0
        assert reg.gauge("nvm.timing.avg_write_ns").value == 0.0
        assert reg.gauge("ctrl.avg_read_latency_ns").value == 0.0
        assert reg.gauge("ctrl.avg_write_latency_ns").value == 0.0
        assert reg.gauge("metacache.hit_rate").value == 0.0

    def test_zero_accesses_rejected_by_generator(self):
        """The workload generator's contract: a zero-length *generated*
        trace is a configuration error — the supported zero-access path
        is an explicit empty TraceArrays (tests above)."""
        import pytest

        from repro.common.errors import ConfigError

        with pytest.raises(ConfigError):
            run_cell(RunSpec("wb-gc", "pers_hash", accesses=0,
                             footprint_blocks=64))
