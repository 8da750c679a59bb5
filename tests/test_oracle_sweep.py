"""Suite planning and execution (repro.oracle.sweep).

Planning is pure and pinned here case by case; execution is covered by
one small end-to-end suite run through repro.exec with a cache, which
must be clean on first contact and fully cached on the second.
"""
import pytest

from repro.common.config import small_config
from repro.exec.cache import ResultCache
from repro.explore.planner import first_middle_last_plans
from repro.explore.runner import ExploreProbe, run_probe
from repro.oracle.harness import ExploreCaseResult
from repro.oracle.mutants import MUTANTS
from repro.oracle.sweep import (
    SuiteSummary,
    build_suite,
    mutant_plans_for,
    role_of,
    run_oracle_suite,
    tamper_plans_for,
)
from repro.workloads import get_profile


@pytest.fixture(scope="module")
def cfg():
    return small_config(metadata_cache_bytes=2048)


@pytest.fixture(scope="module")
def trace():
    return get_profile("pers_hash").generate(seed=2024, n=250,
                                             footprint=2048)


# -------------------------------------------------------------- planning
def test_probe_fires_order_runtime_fires(cfg, trace):
    log = [p for p, _, _ in run_probe("steins", cfg, trace).fires]
    assert log, "a write-heavy trace must fire injection points"
    assert "controller.write" in log
    # the probe is deterministic: same trace, same log
    assert log == [p for p, _, _ in run_probe("steins", cfg, trace).fires]


def probe_of(points):
    """A probe whose fires hit ``points`` in order."""
    return ExploreProbe(fires=tuple((p, i, "d") for i, p in
                                    enumerate(points)),
                        accesses=len(points))


def test_crash_plans_pick_first_middle_last():
    probe = probe_of(["a", "b", "a", "a"])
    plans = first_middle_last_plans(probe, recovery_doses=(1,))
    aimed = {(p["point"], p["crash_after"]) for p in plans
             if "recovery_crash_after" not in p}
    assert aimed == {("a", 1), ("a", 3), ("a", 4), ("b", 2)}
    recovery = [p for p in plans if p.get("recovery_crash_after")]
    assert recovery == [{"mode": "case", "point": "recovery.step",
                         "crash_after": 3, "recovery_crash_after": 1}]


def test_crash_plans_empty_log_plans_nothing():
    assert first_middle_last_plans(probe_of([])) == []


def test_tamper_plans_respect_recovery_support():
    steins = {p["attack"] for p in tamper_plans_for("steins")}
    wb = {p["attack"] for p in tamper_plans_for("wb")}
    assert "tree-counter" in steins and "tree-replay" in steins
    assert wb == steins - {"tree-counter", "tree-replay"}


def test_mutant_plans_follow_the_registry():
    # two fires inside a 2-access trace, then the graceful flush's two
    probe = ExploreProbe(fires=(
        ("controller.write", 0, "d"), ("controller.write", 1, "d"),
        ("controller.read", 2, "d"), ("controller.flush", 2, "d")),
        accesses=2)
    for scheme in ("wb", "steins", "secpm"):
        plans = {p["mutant"]: p for p in mutant_plans_for(scheme, probe)}
        assert set(plans) == {n for n, m in MUTANTS.items()
                              if scheme in m.schemes}
        for name, plan in plans.items():
            crash = MUTANTS[name].crash
            assert plan["mode"] == ("clean" if crash is None else "case")
            assert plan.get("at_shutdown", False) == (crash is not None)
            assert plan.get("crash_after") == (
                3 if crash == "unflushed" else None)


@pytest.fixture(scope="module")
def suite(cfg, trace):
    probes = {("steins", "pers_hash"): run_probe("steins", cfg, trace)}
    return build_suite(["steins"], ["pers_hash"], probes)


def test_build_suite_covers_all_modes(suite):
    roles = {role_of(plan) for _, _, plan in suite}
    assert roles == {"clean", "crash", "tamper", "mutant"}
    assert all(cell[:2] == ("steins", "pers_hash") for cell in suite)


# --------------------------------------------------------------- tallies
def fake(outcome):
    return ExploreCaseResult(outcome=outcome)


def test_summary_acceptance_bar(suite):
    def cell_with(role):
        return next(c for c in suite if role_of(c[2]) == role)

    tally = SuiteSummary(schemes=["steins"], workloads=["pers_hash"])
    tally.add(cell_with("clean"), fake("match"))
    tally.add(cell_with("tamper"), fake("neutralized"))
    for caught in ("detected", "diverged", "data_loss"):
        tally.add(cell_with("mutant"), fake(caught))
    assert tally.ok and not tally.failures
    assert tally.cases[-1]["mode"] == "mutant"
    # a crash-mode divergence is both a failure and a *silent* one
    tally.add(cell_with("crash"), fake("diverged"))
    # an escaped mutant fails without being a silent divergence, and so
    # does a mutant run that never reached the bug's check
    for escaped in ("match", "inapplicable", "no_crash", "unsupported"):
        tally.add(cell_with("mutant"), fake(escaped))
    assert not tally.ok
    assert len(tally.failures) == 5
    assert len(tally.silent_divergences) == 1
    assert tally.to_json()["ok"] is False
    assert "cells_cached" not in tally.to_json()
    assert any(line.startswith("FAIL") for line in tally.summary_lines())


# ------------------------------------------------------------ end to end
@pytest.mark.slow
def test_small_suite_is_clean_then_fully_cached(tmp_path):
    cache = ResultCache(str(tmp_path / "cache"))
    kwargs = dict(schemes=["steins"], accesses=250, footprint=2048,
                  seed=2024, jobs=1, cache=cache)
    first = run_oracle_suite(**kwargs)
    assert first.ok, first.summary_lines()
    assert first.cells_executed > 0 and first.cells_cached == 0
    second = run_oracle_suite(**kwargs)
    assert second.ok
    assert second.cells_executed == 0
    # every case plus the one probe its crash plans came from
    assert second.cells_cached == len(second.cases) + 1
    assert second.outcome_counts == first.outcome_counts


def test_warm_suite_builds_no_system(tmp_path, monkeypatch):
    """Probes are cached cells too: a warm rerun constructs no
    simulated system at all."""
    from repro.sim.system import SecureNVMSystem

    kwargs = dict(schemes=["steins"], accesses=60, footprint=512,
                  seed=3, cache=ResultCache(str(tmp_path / "cache")))
    cold = run_oracle_suite(**kwargs)
    built = []
    init = SecureNVMSystem.__init__

    def spy(self, *args, **kw):
        built.append(self)
        init(self, *args, **kw)

    monkeypatch.setattr(SecureNVMSystem, "__init__", spy)
    warm = run_oracle_suite(**kwargs)
    assert built == []
    assert warm.cells_executed == 0
    assert warm.cells_cached == cold.cells_executed
    assert warm.to_json() == cold.to_json()
