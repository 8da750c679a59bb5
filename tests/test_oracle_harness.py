"""Differential harness unit tests (repro.oracle.harness).

Each oracle case is exercised directly on short traces: clean runs must
match, targeted crashes (run on the crash engine, ``repro.explore``)
must recover and match, staged tampers must be loud, and a deliberately
lying controller or a forged recovery must produce a divergence —
proving the harness can actually fail.
"""
import json

import numpy as np
import pytest

from repro.common.config import small_config
from repro.common.errors import ConfigError, RecoveryError
from repro.explore.runner import (
    ExploreCaseResult,
    run_case,
    run_clean,
    run_explore_cell,
)
from repro.integrity.node import SITNode
from repro.nvm.layout import Region
from repro.oracle.harness import (
    TAMPER_KINDS,
    DifferentialRun,
    Divergence,
    _straddling_target,
    run_tamper_case,
)
from repro.sim.crash import check_recovered
from repro.workloads import get_profile
from repro.workloads.trace import TraceArrays


@pytest.fixture(scope="module")
def cfg():
    return small_config(metadata_cache_bytes=2048)


@pytest.fixture(scope="module")
def trace():
    return get_profile("pers_hash").generate(seed=2024, n=250,
                                             footprint=2048)


def make_trace(ops):
    """(is_write, addr) pairs -> a TraceArrays with zero gaps."""
    return TraceArrays(
        np.array([w for w, _ in ops], dtype=bool),
        np.array([a for _, a in ops], dtype=np.int64),
        np.zeros(len(ops), dtype=np.int32))


# ----------------------------------------------------------- round trips
def test_divergence_and_case_json_roundtrip():
    div = Divergence("read", "block 3", "1", "2")
    case = ExploreCaseResult(outcome="diverged",
                             crash_point="controller.write", crash_index=7,
                             divergences=[div.to_json()], detail="x")
    blob = json.dumps(case.to_json())
    decoded = ExploreCaseResult.from_json(json.loads(blob))
    assert decoded == case
    assert decoded.divergences == [{"kind": "read", "where": "block 3",
                                    "expected": "1", "got": "2"}]


# ------------------------------------------------------------ clean runs
@pytest.mark.parametrize("scheme", ["wb", "steins"])
def test_clean_case_matches(scheme, cfg, trace, monkeypatch):
    runs = []
    init = DifferentialRun.__init__

    def spy(self, *args, **kwargs):
        init(self, *args, **kwargs)
        runs.append(self)

    monkeypatch.setattr(DifferentialRun, "__init__", spy)
    result = run_clean(scheme, cfg, trace)
    assert result.outcome == "match"
    assert result.divergences == []
    (dr,) = runs
    # non-vacuous: every trace read and the full end-state read-back
    # went through the secure path
    trace_reads = int((~trace.is_write).sum())
    assert trace_reads > 0 and dr.model.blocks
    assert dr.controller.stats.data_reads == \
        trace_reads + len(dr.model.blocks)


def test_lying_reads_diverge(cfg):
    """The harness must be able to fail: a controller that returns
    stale data produces read divergences, not a pass."""
    dr = DifferentialRun("steins", cfg)
    dr.write(3)
    truth = dr.model.read(3)
    dr.controller.read_data = lambda addr: truth + 1
    dr.read(3)
    dr.verify_end_state()
    kinds = {d.kind for d in dr.divergences}
    assert "read" in kinds and "readback" in kinds


def test_recovery_check_flags_root_rollback(cfg, trace):
    dr = DifferentialRun("steins", cfg)
    dr.run_trace(trace)
    dr.controller.flush_all()
    pre = dr.crash()
    dr.system.recover()
    # forge the snapshot so the live root looks like a regression
    bumped = dict(pre)
    bumped["root"] = [c + 1 for c in dr.controller.root.snapshot()]
    dr.check_recovery(bumped)
    assert any(d.kind == "root-regress" for d in dr.divergences)


def _restored_dirty_node(dr, pre):
    """Recover, then pick a pre-crash dirty node recovery put back dirty
    in the metadata cache, and persist that copy so its NVM line
    dominates the pre-crash snapshot too."""
    dr.system.recover()
    c = dr.controller
    off = next(o for o in sorted(pre["dirty"]) if c.metacache.is_dirty(o)
               and max(pre["dirty"][o][3][1]) > 0)
    dr.system.device.poke(Region.TREE, off, c.metacache.peek(off).snapshot())
    return off


@pytest.mark.parametrize("forgery", ["marked-clean", "regressed-copy"])
def test_recovery_check_flags_restored_node_clean_or_regressed(
        forgery, cfg, trace):
    """A cached copy is the live one: a restored node that lost its
    dirty bit, or that regressed below the pre-crash snapshot, is a
    divergence even while its persisted line dominates."""
    dr = DifferentialRun("steins", cfg)
    dr.run_trace(trace)
    pre = dr.crash()
    off = _restored_dirty_node(dr, pre)
    c = dr.controller
    if forgery == "marked-clean":
        c.metacache.mark_clean(off)
    else:
        kind, level, index, (mode, ctrs), hmac = pre["dirty"][off][:5]
        low = list(ctrs)
        low[low.index(max(low))] -= 1
        c.metacache.peek(off).block = SITNode.from_snapshot(
            (kind, level, index, (mode, tuple(low)), hmac)).block
    dr.check_recovery(pre)
    assert [d.where for d in dr.divergences] == [f"offset {off}"]


def _regressed(snap):
    """``snap`` with its largest general counter one lower."""
    kind, level, index, (mode, ctrs), hmac = snap[:5]
    low = list(ctrs)
    low[low.index(max(low))] -= 1
    return (kind, level, index, (mode, tuple(low)), hmac)


def _drop_tree_line(dr, off):
    lines = dr.system.device.clone_store()
    del lines[(Region.TREE, off)]
    dr.system.device.restore_store(lines)


def _evict(dr, off, persisted):
    """Drop the restored node from the metadata cache, leaving
    ``persisted`` (or nothing) as its NVM copy."""
    dr.controller.metacache.remove(off)
    if persisted is None:
        _drop_tree_line(dr, off)
    else:
        dr.system.device.poke(Region.TREE, off, persisted)


#: crafted post-recovery states: (dr, pre, restored dirty offset) ->
#: mutate the recovered state (or the snapshot it is judged against)
#: in place; paired with the divergence kind it must raise, or None
_CRAFTED = {
    "as-recovered": (lambda dr, pre, off: None, None),
    "dirty-comes-back-clean": (
        lambda dr, pre, off: dr.controller.metacache.mark_clean(off),
        "node-regress"),
    "dirty-comes-back-regressed": (
        lambda dr, pre, off: setattr(
            dr.controller.metacache.peek(off), "block",
            SITNode.from_snapshot(_regressed(pre["dirty"][off])).block),
        "node-regress"),
    "evicted-persisted-dominates": (
        lambda dr, pre, off: _evict(
            dr, off, dr.controller.metacache.peek(off).snapshot()),
        None),
    "evicted-persisted-regresses": (
        lambda dr, pre, off: _evict(dr, off, _regressed(pre["dirty"][off])),
        "node-regress"),
    "evicted-persisted-missing": (
        lambda dr, pre, off: _evict(dr, off, None), "node-lost"),
    "persisted-tree-node-vanished": (
        lambda dr, pre, off: _drop_tree_line(
            dr, next(o for o in sorted(pre["tree"])
                     if o not in pre["dirty"])),
        "tree-lost"),
    # the live root reads as a regression of a root one step ahead
    "root-regress": (
        lambda dr, pre, off: pre.update(
            root=tuple(c + 1 for c in dr.controller.root.snapshot())),
        "root-regress"),
    # a root that gains (or loses) slots is a divergence, not a
    # comparison truncated to the shorter root
    "root-arity": (
        lambda dr, pre, off: pre.update(root=tuple(pre["root"]) + (0,)),
        "root-regress"),
}


@pytest.mark.parametrize("state", sorted(_CRAFTED))
def test_both_entry_points_flag_the_same_states(state, cfg, trace):
    """``check_recovered`` raises, naming the first divergence, on
    exactly the post-recovery states where
    ``DifferentialRun.check_recovery`` records one."""
    craft, kind = _CRAFTED[state]
    dr = DifferentialRun("steins", cfg)
    dr.run_trace(trace)
    pre = dr.crash()
    off = _restored_dirty_node(dr, pre)
    craft(dr, pre, off)
    try:
        check_recovered(dr.system, pre)
        raised = None
    except RecoveryError as exc:
        raised = str(exc)
    dr.check_recovery(pre)
    if kind is None:
        assert raised is None and dr.divergences == []
    else:
        assert kind in {d.kind for d in dr.divergences}
        assert raised is not None
        assert raised.startswith(f"{dr.divergences[0].kind} at "
                                 f"{dr.divergences[0].where}")


# ----------------------------------------------------------- crash cases
def test_crash_case_recovers_and_matches(cfg, trace):
    result = run_case("steins", cfg, trace,
                      {"mode": "crash", "point": "controller.write",
                       "crash_after": 5})
    assert result.outcome == "match"
    assert result.crash_point
    assert result.crash_index < len(trace)


def test_crash_case_on_wb_is_unsupported(cfg, trace):
    result = run_case("wb", cfg, trace,
                      {"mode": "crash", "point": "controller.write",
                       "crash_after": 5})
    assert result.outcome == "unsupported"


def test_crash_beyond_fire_span_reports_no_crash(cfg, trace):
    result = run_case("steins", cfg, trace,
                      {"mode": "crash", "point": "controller.write",
                       "crash_after": 10_000_000})
    assert result.outcome == "no_crash"


def test_crash_during_recovery_still_converges(cfg, trace):
    result = run_case("steins", cfg, trace,
                      {"mode": "crash", "point": "recovery.step",
                       "crash_after": 40, "recovery_crash_after": 1})
    assert result.outcome == "match"
    assert result.recovery_crashed


# ---------------------------------------------------------- tamper cases
@pytest.mark.parametrize("kind", TAMPER_KINDS)
def test_tampers_are_loud_on_steins(kind, cfg, trace):
    result = run_tamper_case(kind, "steins", trace, cfg)
    assert result.outcome == "detected", result.detail


def test_unknown_tamper_kind_rejected(cfg, trace):
    with pytest.raises(ConfigError):
        run_tamper_case("voltage-glitch", "steins", trace, cfg)
    with pytest.raises(ConfigError):
        run_explore_cell("steins", {"mode": "tamper"}, cfg, trace)


def test_straddling_target_needs_a_block_in_both_halves():
    disjoint = make_trace([(True, 1), (True, 2), (True, 3), (True, 4)])
    with pytest.raises(RecoveryError):
        _straddling_target(disjoint, half=2)
    straddling = make_trace([(True, 1), (True, 2), (True, 2), (False, 1)])
    assert _straddling_target(straddling, half=2) == 2
