"""Suite planning and execution (repro.oracle.sweep).

Planning is pure and pinned here case by case; execution is covered by
one small end-to-end suite run through repro.exec with a cache, which
must be clean on first contact and fully cached on the second.
"""
import pytest

from repro.common.config import small_config
from repro.common.errors import ConfigError
from repro.exec.cache import ResultCache
from repro.explore.planner import first_middle_last_plans
from repro.explore.runner import ExploreProbe, run_probe
from repro.oracle.harness import ExploreCaseResult
from repro.oracle.mutants import MUTANTS
from repro.oracle.sweep import (
    SuiteSummary,
    build_suite,
    mutant_plans_for,
    run_oracle_cell,
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
                                    enumerate(points)))


def test_crash_plans_pick_first_middle_last():
    probe = probe_of(["a", "b", "a", "a"])
    plans = first_middle_last_plans(probe, recovery_doses=(1,))
    aimed = {(p["point"], p["crash_after"]) for p in plans
             if "recovery_crash_after" not in p}
    assert aimed == {("a", 1), ("a", 3), ("a", 4), ("b", 2)}
    recovery = [p for p in plans if p.get("recovery_crash_after")]
    assert recovery == [{"mode": "crash", "point": "recovery.step",
                         "crash_after": 3, "recovery_crash_after": 1}]


def test_crash_plans_empty_log_plans_nothing():
    assert first_middle_last_plans(probe_of([])) == []


def test_tamper_plans_respect_recovery_support():
    steins = {p["attack"] for p in tamper_plans_for("steins")}
    wb = {p["attack"] for p in tamper_plans_for("wb")}
    assert "tree-counter" in steins and "tree-replay" in steins
    assert wb == steins - {"tree-counter", "tree-replay"}


def test_mutant_plans_follow_the_registry():
    for scheme in ("wb", "steins"):
        names = {p["mutant"] for p in mutant_plans_for(scheme)}
        assert names == {n for n, m in MUTANTS.items()
                         if scheme in m.schemes}


def test_build_suite_covers_all_modes(cfg):
    specs = build_suite(["steins"], ["pers_hash"], accesses=250,
                        footprint=2048, seed=2024, cfg=cfg)
    modes = {s.fault["mode"] for s in specs}
    assert modes == {"clean", "crash", "tamper", "mutant"}
    assert all(s.kind == "oracle" for s in specs)


def test_run_oracle_cell_rejects_unknown_mode(cfg, trace):
    with pytest.raises(ConfigError):
        run_oracle_cell("steins", {"mode": "psychic"}, cfg, trace)


# --------------------------------------------------------------- tallies
def fake(outcome):
    return ExploreCaseResult(outcome=outcome)


def spec_with(plan, cfg):
    specs = build_suite(["steins"], ["pers_hash"], 250, 2048, 2024, cfg)
    return next(s for s in specs if s.fault["mode"] == plan)


def test_summary_acceptance_bar(cfg):
    tally = SuiteSummary(schemes=["steins"], workloads=["pers_hash"])
    tally.add(spec_with("clean", cfg), fake("match"), cached=False)
    tally.add(spec_with("tamper", cfg), fake("neutralized"), cached=True)
    tally.add(spec_with("mutant", cfg), fake("detected"), cached=False)
    assert tally.ok and not tally.failures
    assert (tally.cells_executed, tally.cells_cached) == (2, 1)
    # a crash-mode divergence is both a failure and a *silent* one
    tally.add(spec_with("crash", cfg), fake("diverged"), cached=False)
    # an escaped mutant fails without being a silent divergence
    tally.add(spec_with("mutant", cfg), fake("match"), cached=False)
    assert not tally.ok
    assert len(tally.failures) == 2
    assert len(tally.silent_divergences) == 1
    assert tally.to_json()["ok"] is False
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
    assert second.cells_cached == len(second.cases)
    assert second.outcome_counts == first.outcome_counts
