"""The one-kernel NVM timing model against the one it replaced.

``tests/timing_reference.RefTimingModel`` keeps the open rows in a
separate ``RowBufferModel`` and retires completed writes with a loop
over the queue; ``NVMTimingModel`` does both inline, the retire as one
``bisect_right``.  Random interleavings of ``read``, ``write`` and
``drain_all``, at times that may also go backwards, over a small pool
of rows, must give equal return values, stats, row outcomes, queue
depths and open rows (in LRU order) after every call.
"""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import NVMTimingConfig
from repro.nvm.timing import NVMTimingModel
from tests.conftest import scaled
from tests.timing_reference import RefTimingModel

SHAPES = [(rows, entries, banks) for rows in (1, 2, 8)
          for entries in (1, 2, 64) for banks in (1, 4)]

#: (op, when, row).  ``when`` is a step in ps from the previous call's
#: time (tWR is 300 ns, so steps span retiring none to all of a small
#: queue), or ``("done", k)``: exactly the k-th completion time returned
#: so far, where a write completing then must already count as retired
WHEN = st.one_of(st.integers(-400_000, 700_000),
                 st.tuples(st.just("done"), st.integers(0, 1 << 10)))
OPS = st.tuples(st.sampled_from(["read", "write", "drain_all"]), WHEN,
                st.integers(0, 11))


def _state(model, open_rows):
    return (model.stats, model.queue_depth, list(open_rows))


@pytest.mark.parametrize("rows,entries,banks", SHAPES,
                         ids=[f"rows{r}-wq{e}-banks{b}"
                              for r, e, b in SHAPES])
@settings(max_examples=scaled(40), deadline=None)
@given(ops=st.lists(OPS, min_size=1, max_size=120))
def test_kernel_matches_reference(rows, entries, banks, ops):
    cfg = NVMTimingConfig(row_buffer_rows=rows, write_queue_entries=entries,
                          bank_parallelism=banks)
    model, ref = NVMTimingModel(cfg), RefTimingModel(cfg)
    now, completions = 0, [0]
    for op, when, row in ops:
        if isinstance(when, int):
            now = max(0, now + when)
        else:
            now = completions[when[1] % len(completions)]
        if op == "drain_all":
            assert model.drain_all() == ref.drain_all()
        else:
            got = getattr(model, op)(now, row)
            assert got == getattr(ref, op)(now, row)
            if op == "read":
                assert model.last_row_hit == ref.last_row_hit
                completions.append(got)
            else:
                completions.append(got[1])
                now = got[0]  # past a queue-full stall, the issuer waits
        assert _state(model, model._open_rows) == _state(
            ref, ref.rows._open_rows)


def test_drain_all_returns_channel_free_time():
    """Pinned: ``drain_all`` returns when the channel is free, which
    with four banks is before the last posted write is durable."""
    model = NVMTimingModel(NVMTimingConfig())   # tWR 300 ns, 4 banks
    model.write(0, row=1)
    _, last_done = model.write(0, row=2)
    assert last_done == 75_000 + 300_000
    assert model.drain_all() == 2 * 75_000 < last_done
    assert model.queue_depth == 0
