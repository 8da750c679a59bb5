"""RecoveryReport accounting, the recovery register-sum check, and
RunResult statistics helpers."""
import pytest

from repro.baselines.report import READ_VERIFY_NS, RecoveryReport, check_sum
from repro.common.errors import ReplayDetectedError, TamperDetectedError
from repro.sim.stats import RunResult, geometric_mean


class TestRecoveryReport:
    def test_time_follows_paper_methodology(self):
        """Sec. IV-D: 100 ns per metadata read-and-verify."""
        assert READ_VERIFY_NS == 100.0
        report = RecoveryReport("steins")
        report.read(650)
        assert report.time_ns == pytest.approx(65_000.0)
        assert report.time_s == pytest.approx(65e-6)

    def test_counters_accumulate(self):
        report = RecoveryReport("asit")
        report.read(3)
        report.write(2)
        report.hash(5)
        report.bump("record_lines", 4)
        report.bump("record_lines")
        d = report.as_dict()
        assert d["nvm_reads"] == 3
        assert d["nvm_writes"] == 2
        assert d["hashes"] == 5
        assert d["record_lines"] == 5
        assert d["scheme"] == "asit"

    def test_undeclared_detail_key_rejected(self):
        """bump() enforces the KNOWN_KEYS registry (simlint SL301's
        runtime twin): a typo'd key must fail loudly, not fork a new
        counter that no figure reads."""
        report = RecoveryReport("asit")
        with pytest.raises(ValueError, match="undeclared"):
            report.bump("record_lnies")


@pytest.mark.parametrize("total,raised", [
    (41, None),                   # sums agree: nothing lost or forged
    (40, ReplayDetectedError),    # replayed state lowers the sum
    (42, TamperDetectedError),    # a sum above the register is forged
])
def test_check_sum(total, raised):
    if raised is None:
        check_sum("scue Recovery_root", total, 41)
        return
    with pytest.raises(raised, match="scue Recovery_root mismatch"):
        check_sum("scue Recovery_root", total, 41)


class TestRunResultStats:
    def make(self, **over) -> RunResult:
        base = dict(scheme="wb", workload="x", exec_time_ns=100.0,
                    data_reads=10, data_writes=5,
                    avg_read_latency_ns=50.0, avg_write_latency_ns=300.0,
                    nvm_write_traffic=20, nvm_read_traffic=30,
                    energy_nj=1000.0, metadata_cache_hit_rate=0.9)
        base.update(over)
        return RunResult(**base)

    def test_normalization_ratios(self):
        base = self.make()
        other = self.make(exec_time_ns=150.0, nvm_write_traffic=40)
        norm = other.normalized_to(base)
        assert norm["exec_time"] == pytest.approx(1.5)
        assert norm["write_traffic"] == pytest.approx(2.0)
        assert norm["energy"] == pytest.approx(1.0)

    def test_normalization_zero_base_is_none(self):
        """A zero-baseline metric has no ratio: it must surface as an
        explicit None (rendered '-', excluded from geomeans), never as a
        NaN that poisons downstream aggregation silently."""
        base = self.make(nvm_write_traffic=0)
        other = self.make(nvm_write_traffic=5)
        norm = other.normalized_to(base)
        assert norm["write_traffic"] is None
        # the other baselines are non-zero and still produce real ratios
        assert norm["exec_time"] == pytest.approx(1.0)

    def test_as_dict_namespaces_detail(self):
        """Detail keys export as detail.<key>, so a probe entry named
        like a core metric can never shadow it."""
        r = self.make(detail={"max_write_latency_ns": 900.0,
                              "energy_nj": 7.0})
        d = r.as_dict()
        assert d["detail.max_write_latency_ns"] == 900.0
        assert d["detail.energy_nj"] == 7.0
        assert d["energy_nj"] == 1000.0  # the real metric survives
        assert d["scheme"] == "wb"
        assert "max_write_latency_ns" not in d


class TestGeometricMean:
    def test_basic(self):
        assert geometric_mean([2.0, 8.0]) == pytest.approx(4.0)
        assert geometric_mean([3.0]) == pytest.approx(3.0)

    def test_rejects_empty_and_nonpositive(self):
        with pytest.raises(ValueError):
            geometric_mean([])
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])
        with pytest.raises(ValueError):
            geometric_mean([-1.0])

    def test_order_invariant(self):
        a = geometric_mean([1.2, 3.4, 0.7, 9.9])
        b = geometric_mean([9.9, 0.7, 3.4, 1.2])
        assert a == pytest.approx(b)

    def test_no_overflow_on_long_extreme_sweeps(self):
        """Regression: the old running-product implementation hit
        inf/0.0 long before the final root; exp-of-mean-of-logs stays
        finite for 10k values at both float64 extremes."""
        big = [1e300] * 10_000
        assert geometric_mean(big) == pytest.approx(1e300, rel=1e-9)
        tiny = [1e-300] * 10_000
        assert geometric_mean(tiny) == pytest.approx(1e-300, rel=1e-9)
        mixed = [1e300, 1e-300] * 5_000
        assert geometric_mean(mixed) == pytest.approx(1.0, rel=1e-9)
