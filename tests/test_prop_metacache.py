"""Model-based property tests of the metadata cache and record tracker.

Each test drives the real structure and a trivially-correct Python model
with the same random operation sequence and compares observable state —
the classic way to catch LRU/way-assignment/coalescing bugs.
"""
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import CacheConfig, EnergyConfig, small_config
from repro.counters import GeneralCounterBlock
from repro.integrity.metacache import MetadataCache
from repro.integrity.node import SITNode
from repro.nvm.device import NVMDevice
from repro.nvm.energy import EnergyMeter
from repro.nvm.layout import build_layout
from repro.sim.clock import MemClock
from repro.core.tracking import OffsetRecordTracker
from tests.conftest import scaled

cache_ops = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.integers(0, 40)),
        st.tuples(st.just("lookup"), st.integers(0, 40)),
        st.tuples(st.just("dirty"), st.integers(0, 40)),
        st.tuples(st.just("remove"), st.integers(0, 40)),
    ),
    min_size=1, max_size=120)


@settings(max_examples=scaled(60))
@given(cache_ops)
def test_metacache_against_model(ops):
    cache = MetadataCache(CacheConfig(8 * 64, 2))   # 4 sets x 2 ways
    # model: per set, an ordered list of (offset, dirty)
    model: dict[int, list[list]] = {s: [] for s in range(cache.num_sets)}

    def set_of(off):
        return off % cache.num_sets

    for op, off in ops:
        entry_list = model[set_of(off)]
        found = next((e for e in entry_list if e[0] == off), None)
        if op == "insert":
            if found is not None:
                continue  # the real structure rejects duplicates
            victim = cache.insert(off, SITNode(0, off,
                                               GeneralCounterBlock()),
                                  dirty=False)
            if len(entry_list) >= cache.ways:
                expected_victim = entry_list.pop(0)
                assert victim is not None
                assert victim[0] == expected_victim[0]
                assert victim[2] == expected_victim[1]
            else:
                assert victim is None
            entry_list.append([off, False])
        elif op == "lookup":
            node = cache.lookup(off)
            if found is None:
                assert node is None
            else:
                assert node is not None and node.index == off
                entry_list.remove(found)
                entry_list.append(found)   # LRU touch
        elif op == "dirty":
            if found is not None:
                transitioned = cache.mark_dirty(off)
                assert transitioned == (not found[1])
                found[1] = True
        else:  # remove
            removed = cache.remove(off)
            assert (removed is not None) == (found is not None)
            if found is not None:
                entry_list.remove(found)
        # the touched set holds the model's entries in LRU order
        assert [o for o, _, _ in cache.set_entries(set_of(off))] == \
            [e[0] for e in entry_list]
    # final state agrees, each set in LRU order
    for s, entries in model.items():
        real = [off for off, _, _ in cache.set_entries(s)]
        assert real == [off for off, _ in entries]
        for off, dirty in entries:
            assert cache.is_dirty(off) == dirty


record_ops = st.lists(
    st.tuples(st.integers(0, 63), st.integers(0, 500)),
    min_size=1, max_size=150)


@settings(max_examples=scaled(40))
@given(record_ops)
def test_tracker_against_model(ops):
    """After any record sequence + crash flush, the persisted records
    equal the last offset written per slot."""
    cfg = small_config()
    device = NVMDevice(build_layout(1024, 600, 64))
    clock = MemClock(cfg, device, EnergyMeter(EnergyConfig()))
    tracker = OffsetRecordTracker(num_cache_slots=64, cache_lines=2,
                                  device=device)
    model: dict[int, int] = {}
    for slot, offset in ops:
        tracker.record(slot, offset, clock)
        model[slot] = offset
    tracker.flush_on_crash()
    offsets, _ = tracker.read_all_offsets(device)
    assert offsets == set(model.values())
