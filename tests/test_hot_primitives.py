"""The data path's node primitives against their plain definitions.

``FastEngine.digest64`` folds a field wider than 64 bits in inline
64-bit lanes, ``GeneralCounterBlock.to_packed`` is unrolled, the counter
blocks validate with ``min``/``max``, a plain general bump returns one
shared ``IncrementResult`` and ``MemoryRequest`` is a named tuple.  Each
must stay bit-identical to (or behave exactly like) what it replaced.
"""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import constants as C
from repro.common.bitfield import pack_fields
from repro.common.errors import CounterOverflowError
from repro.common.rng import _SPLITMIX_GAMMA, mix_wide
from repro.counters import GeneralCounterBlock, SplitCounterBlock
from repro.counters.base import IncrementResult
from repro.crypto.engine import FastEngine
from repro.mem.hierarchy import MemOp, MemoryRequest
from tests.conftest import scaled

_MASK64 = (1 << 64) - 1

EDGES = [0, 1, _MASK64, _MASK64 + 1, (1 << 448) - 1, 1 << 447,
         (1 << 512) - 1, 1 << 511]
FIELD = st.one_of(st.sampled_from(EDGES), st.integers(0, _MASK64),
                  st.integers(0, (1 << 448) - 1),
                  st.integers(0, (1 << 512) - 1))


def mix_wide_chain(key: int, *fields: int) -> int:
    """digest64 as it was: ``mix_wide`` for every field wider than 64
    bits, one splitmix64 step for the others, then the avalanche."""
    state = key & _MASK64
    for f in fields:
        if f > _MASK64:
            state = mix_wide(f, state)
        else:
            s = ((state ^ f) + _SPLITMIX_GAMMA) & _MASK64
            z = ((s ^ (s >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
            state = s ^ z ^ (z >> 31)
    s = (state + _SPLITMIX_GAMMA) & _MASK64
    z = ((s ^ (s >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


@settings(max_examples=scaled(200))
@given(key=st.integers(0, _MASK64), fields=st.lists(FIELD, max_size=6))
def test_digest64_matches_mix_wide_chain(key, fields):
    engine = FastEngine(key)
    engine._digest_memo.clear()  # compute, do not recall
    assert engine.digest64(*fields) == mix_wide_chain(key, *fields)


@pytest.mark.parametrize("field", EDGES)
def test_digest64_edges_match_mix_wide_chain(field):
    engine = FastEngine(0x5EED)
    engine._digest_memo.clear()
    assert engine.digest64(3, field, 7) == mix_wide_chain(0x5EED, 3, field, 7)


@pytest.mark.parametrize("field", [-1, -(1 << 64), -(1 << 448)])
def test_digest64_rejects_negative_fields(field):
    with pytest.raises(ValueError, match="non-negative"):
        FastEngine(1).digest64(5, field)


@settings(max_examples=scaled(200))
@given(counters=st.lists(st.integers(0, C.GENERAL_COUNTER_MAX),
                         min_size=8, max_size=8))
def test_general_to_packed_matches_pack_fields(counters):
    widths = [C.GENERAL_COUNTER_BITS] * C.GENERAL_COUNTERS_PER_NODE
    block = GeneralCounterBlock(counters)
    assert block.to_packed() == pack_fields(widths, counters)
    assert GeneralCounterBlock.from_packed(block.to_packed()) == block


@pytest.mark.parametrize("bad", [-1, C.GENERAL_COUNTER_MAX + 1, 1 << 64])
def test_general_out_of_range_counter_names_first_offender(bad):
    counters = [5, 0, bad, 7, -3, 0, 0, 0]
    with pytest.raises(CounterOverflowError) as err:
        GeneralCounterBlock(counters)
    assert str(err.value) == f"counter {bad} exceeds 56 bits"
    with pytest.raises(CounterOverflowError, match="counter -3 exceeds"):
        GeneralCounterBlock.from_snapshot(("general", (0,) * 4 + (-3,) * 4))


@pytest.mark.parametrize("bad", [-1, C.MINOR_COUNTER_MAX + 1])
def test_split_out_of_range_minor_names_first_offender(bad):
    minors = [0] * 64
    minors[9], minors[40] = bad, 99
    with pytest.raises(CounterOverflowError) as err:
        SplitCounterBlock(0, minors)
    assert str(err.value) == f"minor {bad} exceeds 6 bits"
    with pytest.raises(CounterOverflowError,
                       match="major counter exceeds 64 bits"):
        SplitCounterBlock(1 << 64)


def test_in_range_blocks_keep_their_counters():
    top = C.GENERAL_COUNTER_MAX
    assert GeneralCounterBlock([0, top] * 4).counters == [0, top] * 4
    split = SplitCounterBlock.from_snapshot(
        ("split", 2, (C.MINOR_COUNTER_MAX,) * 64, "skip"))
    assert split.minors == [C.MINOR_COUNTER_MAX] * 64
    assert isinstance(split.minors, list)


def test_increment_result_fields_and_immutability():
    block = GeneralCounterBlock()
    first, second = block.increment(0), block.increment(3)
    assert first == second == IncrementResult(gensum_delta=1)
    assert (first.gensum_delta, first.minor_overflow,
            first.major_overflow) == (1, False, False)
    with pytest.raises(AttributeError):
        first.gensum_delta = 2
    assert block.increment(0).gensum_delta == 1  # the shared one held
    split = SplitCounterBlock(0, [C.MINOR_COUNTER_MAX] + [0] * 63)
    overflow = split.increment(0)
    assert overflow.minor_overflow and not overflow.major_overflow
    assert overflow.gensum_delta == split.gensum() - C.MINOR_COUNTER_MAX


def test_memory_request_fields_and_equality():
    request = MemoryRequest(MemOp.READ, 12)
    assert (request.op, request.line_addr) == (MemOp.READ, 12)
    assert request == MemoryRequest(MemOp.READ, 12)
    assert request != MemoryRequest(MemOp.WRITE, 12)
    with pytest.raises(AttributeError):
        request.line_addr = 13
