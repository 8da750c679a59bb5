"""Property-based end-to-end tests of the Steins protocol (hypothesis).

Random operation sequences (writes, reads, flushes, crash+recover) must
preserve: data round-trips, the LInc invariant, and full verifiability.
These are the paper's correctness claims exercised adversarially.
"""
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common.config import CounterMode
from repro.core.controller import SteinsController
from tests.conftest import scaled
from tests.test_controller_base import make_rig
from tests.test_steins_controller import assert_linc_invariant

ops = st.lists(
    st.one_of(
        st.tuples(st.just("write"), st.integers(0, 1500),
                  st.integers(0, 1 << 32)),
        st.tuples(st.just("read"), st.integers(0, 1500), st.just(0)),
        st.tuples(st.just("crash"), st.just(0), st.just(0)),
    ),
    min_size=1, max_size=80)


@settings(max_examples=scaled(25), deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops, st.sampled_from([CounterMode.GENERAL, CounterMode.SPLIT]))
def test_random_ops_preserve_all_invariants(sequence, mode):
    controller, device, _ = make_rig(mode, SteinsController,
                                     metadata_cache_bytes=1024)
    shadow: dict[int, int] = {}
    for op, addr, value in sequence:
        if op == "write":
            controller.write_data(addr, value)
            shadow[addr] = value
        elif op == "read":
            assert controller.read_data(addr) == shadow.get(addr, 0)
        else:
            controller.crash()
            controller.recover()
    # end state: everything verifies and matches the shadow model
    assert_linc_invariant(controller)
    for addr, value in shadow.items():
        assert controller.read_data(addr) == value


@settings(max_examples=scaled(15), deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(st.integers(0, 4000), min_size=10, max_size=150),
       st.integers(0, 9))
def test_crash_anywhere_recovers(addrs, crash_mod):
    """Crash after every (crash_mod+1)-th write; data always survives."""
    controller, _, _ = make_rig(CounterMode.GENERAL, SteinsController,
                                metadata_cache_bytes=1024)
    shadow = {}
    for i, addr in enumerate(addrs):
        controller.write_data(addr, i + 1)
        shadow[addr] = i + 1
        if i % (crash_mod + 1) == crash_mod:
            controller.crash()
            controller.recover()
    for addr, value in shadow.items():
        assert controller.read_data(addr) == value
    assert_linc_invariant(controller)


@settings(max_examples=scaled(15), deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(st.integers(0, 800), min_size=5, max_size=100))
def test_flush_all_then_cold_restart_equivalent(addrs):
    """flush_all + cache clear must be observationally identical to a
    crash + recovery for subsequent reads."""
    a, _, _ = make_rig(CounterMode.GENERAL, SteinsController, 1024)
    b, _, _ = make_rig(CounterMode.GENERAL, SteinsController, 1024)
    for i, addr in enumerate(addrs):
        a.write_data(addr, i)
        b.write_data(addr, i)
    a.flush_all()
    a.metacache.clear()
    b.crash()
    b.recover()
    for addr in sorted(set(addrs)):
        assert a.read_data(addr) == b.read_data(addr)


def test_flush_all_survives_nested_redirty_regression():
    """Regression (hypothesis-found): flush_all persisted a parent,
    then a nested NV-buffer drain (triggered by evictions inside the
    flush's own parent-update walk) applied a child's generated counter
    into that parent — and the loop's unconditional mark_clean erased
    the re-dirty, stranding the update in a clean cache entry NVM never
    saw.  A cold restart then verified the child against the stale
    persisted parent counter (HMAC mismatch).  flush_all now marks
    clean *before* flushing so nested re-dirtying survives."""
    addrs = [48, 176, 400, 776, 0, 8, 16, 24, 40, 56, 64, 360, 128,
             400, 768]
    a, _, _ = make_rig(CounterMode.GENERAL, SteinsController, 1024)
    b, _, _ = make_rig(CounterMode.GENERAL, SteinsController, 1024)
    for i, addr in enumerate(addrs):
        a.write_data(addr, i)
        b.write_data(addr, i)
    a.flush_all()
    a.metacache.clear()
    b.crash()
    b.recover()
    for addr in sorted(set(addrs)):
        assert a.read_data(addr) == b.read_data(addr)


def test_flush_all_uses_live_entry_after_midpass_refetch_regression():
    """Regression (hypothesis-found): flush_all iterated a snapshot of
    dirty (offset, node) pairs; mid-pass, a leaf flush's drain evicted
    the parent and re-fetched it as a *fresh* object that then absorbed
    the leaf's generated counter.  The loop later reached the stale
    snapshot pair, saw the offset dirty (the fresh entry's bit), and
    persisted the stale object — overwriting the applied counter in NVM
    while mark_clean erased the only dirty bit pointing at the live
    copy.  A cold restart then verified the leaf against the stale
    parent slot (HMAC mismatch).  flush_all now re-peeks the live cache
    entry before flushing."""
    addrs = [128, 192, 448, 680, 728, 8, 88, 768, 136, 0, 216, 320,
             200, 72, 8, 128, 616]
    a, _, _ = make_rig(CounterMode.GENERAL, SteinsController, 1024)
    b, _, _ = make_rig(CounterMode.GENERAL, SteinsController, 1024)
    for i, addr in enumerate(addrs):
        a.write_data(addr, i)
        b.write_data(addr, i)
    a.flush_all()
    a.metacache.clear()
    b.crash()
    b.recover()
    for addr in sorted(set(addrs)):
        assert a.read_data(addr) == b.read_data(addr)


@settings(max_examples=scaled(10), deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(st.integers(0, 1200), min_size=5, max_size=60))
def test_repeated_recovery_converges_to_a_fixed_point(addrs):
    """Recovery is idempotent up to quiescence: reinstall evictions may
    flush children and park parent updates in the NV buffer, so one
    pass can legitimately advance durable state — but each pass must
    validate against its own pre-crash golden snapshot, and repeated
    crash+recover must reach a bit-identical fixed point once the
    buffered updates have migrated to the root (a few tree heights)."""
    from repro.common.config import small_config
    from repro.sim.crash import capture_golden, check_recovered
    from repro.sim.system import SecureNVMSystem
    from tests.recovery_fingerprint import controller_fingerprint

    system = SecureNVMSystem(
        "steins", small_config(metadata_cache_bytes=1024))
    for addr in addrs:
        system.store(addr, flush=True)
    previous = None
    for _ in range(12):
        golden = capture_golden(system)
        system.crash()
        system.recover()
        check_recovered(system, golden)
        fingerprint = controller_fingerprint(system)
        if fingerprint == previous:
            break
        previous = fingerprint
    else:
        raise AssertionError("recovery never reached a fixed point")
