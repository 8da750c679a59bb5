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
from repro.common.errors import RecoveryError
from repro.explore.runner import ExploreCaseResult, run_case, run_clean
from repro.integrity.node import SITNode
from repro.nvm.layout import Region
from repro.oracle.harness import (
    TAMPER_KINDS,
    DifferentialRun,
    Divergence,
    OracleCaseResult,
    _straddling_target,
    run_tamper_case,
)
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
    assert Divergence.from_json(div.to_json()) == div
    case = ExploreCaseResult(outcome="diverged",
                             crash_point="controller.write", crash_index=7,
                             divergences=[div.to_json()])
    blob = json.dumps(case.to_json())
    assert ExploreCaseResult.from_json(json.loads(blob)) == case
    result = OracleCaseResult(
        scheme="steins", workload="pers_hash", outcome="diverged",
        crash_point="controller.write", crash_index=9,
        divergences=[div], detail="x")
    decoded = OracleCaseResult.from_json(result.to_json())
    assert decoded == result
    assert decoded.silent_divergence


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
    assert dr.reads > 0
    assert dr.blocks_checked > 0


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
    result = run_tamper_case(kind, "steins", "pers_hash", trace, cfg)
    assert result.outcome == "detected", result.detail


def test_unknown_tamper_kind_rejected(cfg, trace):
    with pytest.raises(ValueError):
        run_tamper_case("voltage-glitch", "steins", "pers_hash", trace,
                        cfg)


def test_straddling_target_needs_a_block_in_both_halves():
    disjoint = make_trace([(True, 1), (True, 2), (True, 3), (True, 4)])
    with pytest.raises(RecoveryError):
        _straddling_target(disjoint, half=2)
    straddling = make_trace([(True, 1), (True, 2), (True, 2), (False, 1)])
    assert _straddling_target(straddling, half=2) == 2
