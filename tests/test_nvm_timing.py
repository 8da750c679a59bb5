"""PCM timing model: row buffer, posted writes, queue back-pressure.

The model runs on integer picoseconds; equality assertions are exact.
"""
import pytest

from repro.common.config import NVMTimingConfig
from repro.nvm.timing import NVMTimingModel


def make_model(**kwargs) -> NVMTimingModel:
    return NVMTimingModel(NVMTimingConfig(**kwargs))


def test_read_row_miss_then_hit():
    m = make_model()
    done1 = m.read(0, row=5)
    assert done1 == 63_000            # tRCD + tCL = 63 ns
    done2 = m.read(done1, row=5)
    assert done2 - done1 == 15_000    # open-row hit
    assert m.stats.row_misses == 1
    assert m.stats.row_hits == 1


def test_completion_times_are_exact_ints():
    m = make_model()
    done = m.read(0, row=1)
    assert isinstance(done, int)
    free, done_w = m.write(done, row=2)
    assert isinstance(free, int) and isinstance(done_w, int)
    assert isinstance(m.stats.read_latency_ps, int)
    assert isinstance(m.stats.write_latency_ps, int)


def test_row_buffer_capacity_evicts_lru():
    m = make_model(row_buffer_rows=2)

    def row_hit(row):
        m.read(0, row)
        return m.last_row_hit

    assert not row_hit(1)
    assert not row_hit(2)
    assert row_hit(1)         # still open
    assert not row_hit(3)     # evicts 2 (LRU)
    assert not row_hit(2)


def test_posted_write_does_not_stall():
    m = make_model()
    issuer_free, done = m.write(0, row=1)
    assert issuer_free == 0
    assert done == 300_000            # tWR = 300 ns


def test_write_queue_backpressure():
    m = make_model(write_queue_entries=2, bank_parallelism=1)
    m.write(0, row=1)
    m.write(0, row=2)
    issuer_free, _ = m.write(0, row=3)   # queue full -> stall
    assert issuer_free > 0
    assert m.stats.write_stall_ps > 0
    assert m.stats.write_stall_ns > 0.0


def test_bank_parallelism_shortens_channel_occupancy():
    serial = make_model(bank_parallelism=1)
    banked = make_model(bank_parallelism=8)
    for m in (serial, banked):
        m.write(0, row=1)
        m.write(0, row=2)
    # a read arriving right after two writes waits much less with banks
    t_serial = serial.read(0, row=9)
    t_banked = banked.read(0, row=9)
    assert t_banked < t_serial


def test_reads_wait_for_device():
    m = make_model(bank_parallelism=1)
    m.write(0, row=1)   # occupies device 300 ns
    done = m.read(0, row=2)
    assert done >= 300_000


def test_queue_drains_over_time():
    m = make_model(write_queue_entries=4)
    for _ in range(4):
        m.write(0, row=1)
    assert m.queue_depth == 4
    m.write(10_000_000, row=1)   # far future: all retired
    assert m.queue_depth == 1


def test_drain_all():
    m = make_model()
    m.write(0, row=1)
    m.write(0, row=2)
    done = m.drain_all()
    assert m.queue_depth == 0
    assert done > 0


def test_latency_stats_accumulate():
    m = make_model()
    m.read(0, row=1)
    m.read(100_000, row=50_000)
    assert m.stats.read_count == 2
    assert m.stats.avg_read_ns > 0
    m.write(1_000_000, row=1)   # device idle by then
    assert m.stats.avg_write_ns == pytest.approx(300.0)
