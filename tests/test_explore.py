"""The crash-space explorer: probe/digest mechanics, DPOR-style pruning
soundness, planner frontier selection, double-crash cases, executor
integration (cache determinism, serial == parallel), and the
end-to-end mutant self-test.

The headline properties pinned here mirror the acceptance criteria:

* pruning is *sound* — a pruned class member reproduces its
  representative's result bit for bit under every plan variant;
* a warm-cache re-exploration performs zero re-simulations and its
  report compares equal to the cold run's;
* every seeded mutant is re-found without the explorer being told
  where to crash.
"""
import json

import pytest

from tests.conftest import KnownDivergence

from repro.common.config import small_config
from repro.common.errors import ConfigError
from repro.exec import CellSpec, ResultCache, config_to_dict, run_sweep
from repro.explore import (
    DurableDigest,
    ExploreCaseResult,
    ExploreProbe,
    partition_fires,
    phase2_plans,
    phase3_plans,
    run_explore,
    run_explore_cell,
    run_probe,
    second_crash_picks,
    select_frontier,
)
from repro.explore.planner import (
    FireClass,
    _spread,
    recovery_crash_picks,
    shutdown_plans,
)
from repro.explore.runner import run_case
from repro.faults.registry import FaultPlan, ResidualBudget, armed
from repro.oracle.harness import DifferentialRun
from repro.workloads import get_profile


@pytest.fixture(scope="module")
def explore_cfg():
    """Smallest metadata cache: short traces still evict, so fires
    cluster into state-equivalent classes (pruning has work to do)."""
    return small_config(metadata_cache_bytes=512)


@pytest.fixture(scope="module")
def tiny_trace():
    return get_profile("pers_hash").generate(seed=2025, n=40,
                                             footprint=128)


@pytest.fixture(scope="module")
def steins_probe(explore_cfg, tiny_trace):
    return run_probe("steins", explore_cfg, tiny_trace)


# ------------------------------------------------------------- probing
class TestProbe:
    def test_records_point_index_digest(self, steins_probe, tiny_trace):
        assert steins_probe.fires
        for point, access_idx, digest in steins_probe.fires:
            assert isinstance(point, str) and "." in point
            assert 0 <= access_idx <= len(tiny_trace)
            int(digest, 16)  # a hex sha256
            assert len(digest) == 64

    def test_graceful_shutdown_fires_recorded_past_trace(
            self, steins_probe, tiny_trace):
        # flush_all fires carry access index len(trace): crashing there
        # resumes nothing
        assert any(i == len(tiny_trace)
                   for _, i, _ in steins_probe.fires)

    def test_probe_is_deterministic(self, explore_cfg, tiny_trace):
        again = run_probe("steins", explore_cfg, tiny_trace)
        assert again.fires == run_probe("steins", explore_cfg,
                                        tiny_trace).fires

    def test_json_round_trip(self, steins_probe):
        blob = json.dumps(steins_probe.to_json())
        assert ExploreProbe.from_json(json.loads(blob)) == steins_probe

    def test_mutant_probe_survives_midtrace_detection(
            self, explore_cfg, tiny_trace):
        # counter-reuse dies loudly on the first re-read; the probe must
        # return the fires reachable before that point, not explode
        probe = run_probe("steins", explore_cfg, tiny_trace,
                          mutant="counter-reuse")
        assert probe.fires


# ------------------------------------------------- partition + frontier
class TestDigest:
    """The probe's digest is incremental; it must equal a digest built
    from scratch on the same machine state."""

    @pytest.mark.parametrize("scheme", ["steins", "asit", "star"])
    def test_incremental_equals_fresh_at_every_fire(self, scheme,
                                                    explore_cfg,
                                                    tiny_trace):
        dr = DifferentialRun(scheme, explore_cfg, check_counters=False)
        digest = DurableDigest(dr.system)
        pairs = []

        def observe(point):
            pairs.append((digest(), DurableDigest(dr.system)()))

        with armed(FaultPlan(on_fire=observe)):
            dr.run_trace(tiny_trace)
        assert len(pairs) > 40
        assert all(inc == fresh for inc, fresh in pairs)
        assert len({inc for inc, _ in pairs}) > 1

    def test_rolled_back_lines_leave_the_digest(self, explore_cfg,
                                                tiny_trace):
        dr = DifferentialRun("steins", explore_cfg, check_counters=False)
        dr.run_trace(tiny_trace[:20])
        digest = DurableDigest(dr.system)
        before = digest()
        lines = len(dr.system.device.lines())
        # an exhausted ADR budget rolls back every queued write; lines
        # first written inside the queue window disappear
        dr.system.device.crash_drain(ResidualBudget(0))
        assert len(dr.system.device.lines()) < lines
        after = digest()
        assert after != before
        assert after == DurableDigest(dr.system)()


class TestPartition:
    def test_classes_merge_only_equal_state_and_resume(self,
                                                       steins_probe):
        classes = partition_fires(steins_probe)
        assert sum(len(c.fires) for c in classes) == \
            len(steins_probe.fires)
        for cls in classes:
            for k in cls.fires:
                point, idx, digest = steins_probe.fires[k - 1]
                assert idx == cls.access_index
                assert digest == cls.digest

    def test_eviction_fires_do_merge(self, steins_probe):
        # the 512 B cache forces clean evictions, which leave durable
        # state untouched -> at least one multi-member class exists
        classes = partition_fires(steins_probe)
        assert any(len(c.fires) > 1 for c in classes)
        assert len(classes) < len(steins_probe.fires)

    def test_frontier_none_keeps_everything(self, steins_probe):
        classes = partition_fires(steins_probe)
        kept, skipped = select_frontier(classes, None)
        assert kept == classes and skipped == 0

    def test_frontier_budget_prefers_changed_then_newest(self):
        mk = lambda rep, changed: FireClass(
            digest=f"d{rep}", access_index=rep, point="controller.write",
            fires=(rep,), changed=changed)
        classes = (mk(1, True), mk(2, False), mk(3, True), mk(4, False))
        kept, skipped = select_frontier(classes, 2)
        # both changed classes survive; probe order is preserved
        assert [c.rep for c in kept] == [1, 3]
        assert skipped == 2

    def test_frontier_order_is_probe_order(self):
        mk = lambda rep: FireClass(
            digest=f"d{rep}", access_index=rep, point="p.q",
            fires=(rep,), changed=True)
        classes = tuple(mk(r) for r in (5, 1, 9, 3))
        kept, _ = select_frontier(classes, 3)
        assert [c.rep for c in kept] == [5, 9, 3]


class TestPlanPicks:
    def test_spread_full_when_under_cap(self):
        assert _spread(4, None) == (1, 2, 3, 4)
        assert _spread(4, 10) == (1, 2, 3, 4)
        assert recovery_crash_picks(3, None) == (1, 2, 3)

    def test_spread_caps_with_endpoints(self):
        picks = _spread(100, 5)
        assert len(picks) == 5
        assert picks[0] == 1 and picks[-1] == 100
        assert picks == tuple(sorted(picks))

    def test_second_crash_picks_dedupe(self):
        assert second_crash_picks(0) == ()
        assert second_crash_picks(1) == (1,)
        assert second_crash_picks(2) == (1, 2)
        assert second_crash_picks(10) == (1, 6, 10)

    def test_shutdown_plans_cover_torn_variants(self):
        plans = shutdown_plans((0, 8))
        assert plans[0] == {"mode": "case", "at_shutdown": True}
        assert [p.get("residual_words") for p in plans] == [None, 0, 8]

    def test_phase_plan_shapes(self):
        cls = FireClass(digest="d", access_index=3, point="p.q",
                        fires=(7, 9), changed=True)
        assert phase2_plans(cls, 2, None) == [
            {"mode": "case", "crash_after": 7, "recovery_crash_after": 1},
            {"mode": "case", "crash_after": 7, "recovery_crash_after": 2},
        ]
        assert all(p["crash_after"] == 7 for p in phase3_plans(cls, 5))


# ---------------------------------------------------- pruning soundness
class TestPruningSoundness:
    def test_member_reproduces_representative(self, explore_cfg,
                                              tiny_trace, steins_probe):
        """The DPOR claim itself: same digest + same resume index =>
        byte-identical case result, under every plan variant."""
        classes = [c for c in partition_fires(steins_probe)
                   if len(c.fires) > 1]
        assert classes, "need at least one multi-member class"
        cls = max(classes, key=lambda c: len(c.fires))
        for variant in ({}, {"residual_words": 0},
                        {"recovery_crash_after": 1},
                        {"second_crash_after": 1}):
            rep = run_case("steins", explore_cfg, tiny_trace,
                           {"mode": "case", "crash_after": cls.fires[0],
                            **variant}).to_json()
            member = run_case("steins", explore_cfg, tiny_trace,
                              {"mode": "case",
                               "crash_after": cls.fires[-1],
                               **variant}).to_json()
            # only the injection-point *label* may differ inside a class
            rep.pop("crash_point")
            member.pop("crash_point")
            assert rep == member


# ----------------------------------------------------------- run_case
class TestRunCase:
    def test_trigger_past_span_is_no_crash(self, explore_cfg,
                                           tiny_trace):
        result = run_case("steins", explore_cfg, tiny_trace,
                          {"mode": "case", "crash_after": 10_000})
        assert result.outcome == "no_crash"

    def test_healthy_crash_matches(self, explore_cfg, tiny_trace):
        result = run_case("steins", explore_cfg, tiny_trace,
                          {"mode": "case", "crash_after": 5})
        assert result.outcome == "match"
        assert result.crash_point
        assert 0 <= result.crash_index < len(tiny_trace)
        assert result.recovery_fires > 0

    def test_double_crash_recovers_twice(self, explore_cfg, tiny_trace):
        first = run_case("steins", explore_cfg, tiny_trace,
                         {"mode": "case", "crash_after": 5})
        assert first.resumed_fires > 0
        result = run_case("steins", explore_cfg, tiny_trace,
                          {"mode": "case", "crash_after": 5,
                           "second_crash_after": first.resumed_fires // 2
                           + 1})
        assert result.outcome == "match"
        assert result.second_crash_point
        assert result.second_crash_index >= result.crash_index

    def test_crash_during_recovery_converges(self, explore_cfg,
                                             tiny_trace):
        result = run_case("steins", explore_cfg, tiny_trace,
                          {"mode": "case", "crash_after": 5,
                           "recovery_crash_after": 1})
        assert result.outcome == "match"
        assert result.recovery_crashed

    def test_shutdown_candidate_reaches_post_flush_state(
            self, explore_cfg, tiny_trace):
        result = run_case("steins", explore_cfg, tiny_trace,
                          {"mode": "case", "at_shutdown": True})
        assert result.outcome == "match"
        assert result.crash_point == "shutdown"
        assert result.crash_index == len(tiny_trace)

    def test_shutdown_candidate_catches_root_rollback(
            self, explore_cfg, tiny_trace):
        # the root only advances during the final flush, so the mutant
        # is invisible to every mid-trace crash -- the shutdown boundary
        # is the one candidate that can see it
        mid = run_case("steins", explore_cfg, tiny_trace,
                       {"mode": "case", "crash_after": 5,
                        "mutant": "root-rollback"})
        assert mid.outcome == "inapplicable"
        boundary = run_case("steins", explore_cfg, tiny_trace,
                            {"mode": "case", "at_shutdown": True,
                             "mutant": "root-rollback"})
        assert boundary.outcome == "diverged"

    def test_json_round_trip(self, explore_cfg, tiny_trace):
        result = run_case("steins", explore_cfg, tiny_trace,
                          {"mode": "case", "crash_after": 5})
        blob = json.dumps(result.to_json())
        assert ExploreCaseResult.from_json(json.loads(blob)) == result

    def test_unknown_mode_rejected(self, explore_cfg, tiny_trace):
        with pytest.raises(ConfigError):
            run_explore_cell("steins", {"mode": "warp"}, explore_cfg,
                             tiny_trace)

    def test_unknown_mutant_rejected(self, explore_cfg, tiny_trace):
        with pytest.raises(ConfigError):
            run_case("steins", explore_cfg, tiny_trace,
                     {"mode": "case", "crash_after": 5,
                      "mutant": "gremlin"})

    @pytest.mark.parametrize("plan", [
        {"mode": "case", "crash_afer": 5},        # a misspelt trigger
        {"mode": "clean", "crash_after": 5},      # a clean run never crashes
        {"mode": "case", "crash_after": True},    # a bool is no fire index
        {"mode": "tamper", "attack": "data-bits"},  # the retired mode
        {"mode": "probe", "attack": "data-bits"},
    ], ids=["misspelt", "clean-crash", "bool-fire", "tamper", "probe"])
    def test_malformed_plan_rejected(self, plan, explore_cfg, tiny_trace):
        """Both entry points decode the plan strictly: no key is read
        with a default that hides a typo or a mistyped value."""
        with pytest.raises(ConfigError):
            run_explore_cell("steins", plan, explore_cfg, tiny_trace)
        with pytest.raises(ConfigError):
            run_case("steins", explore_cfg, tiny_trace, plan)

    def test_probe_plan_is_not_a_case(self, explore_cfg, tiny_trace):
        with pytest.raises(ConfigError, match="run_probe"):
            run_case("steins", explore_cfg, tiny_trace, {"mode": "probe"})


# ------------------------------------------------- executor integration
class TestExecIntegration:
    def test_explore_cells_flow_through_run_sweep_and_cache(
            self, explore_cfg, tmp_path):
        cfg_dict = config_to_dict(explore_cfg)
        specs = [
            CellSpec("explore", "steins", "pers_hash", 40, 128, 2025,
                     config=cfg_dict,
                     fault={"mode": "probe"}),
            CellSpec("explore", "steins", "pers_hash", 40, 128, 2025,
                     config=cfg_dict,
                     fault={"mode": "case", "crash_after": 5}),
        ]
        cache = ResultCache(tmp_path / "cache")
        cold = run_sweep(specs, cache=cache)
        assert cold.executed == 2
        assert isinstance(cold.values[0], ExploreProbe)
        assert isinstance(cold.values[1], ExploreCaseResult)
        warm = run_sweep(specs, cache=cache)
        assert warm.executed == 0 and warm.cached == 2
        assert warm.values[0] == cold.values[0]
        assert warm.values[1] == cold.values[1]

    def test_explore_cells_need_explicit_config(self):
        from repro.exec.pool import execute_cell

        spec = CellSpec("explore", "steins", "pers_hash", 40, 128, 2025,
                        fault={"mode": "probe"})
        with pytest.raises(ConfigError):
            execute_cell(spec)


# ----------------------------------------------------------- end to end
class TestRunExplore:
    def test_full_enumeration_finds_mutants_and_prunes(self):
        summary = run_explore(schemes=["steins"], accesses=40,
                              footprint=128)
        assert summary.ok
        assert summary.explored_total > 100
        assert summary.pruned_total > 0
        v = summary.variants[0]
        assert v.classes < v.fires
        assert set(v.explored) >= {"clean", "phase1", "phase2", "phase3"}
        caught = {m.name for m in summary.mutants if m.caught}
        assert caught == {"counter-reuse", "stale-read",
                          "skip-parent-update", "root-rollback"}

    def test_warm_rerun_zero_resims_and_equal_report(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        kw = dict(schemes=["asit"], accesses=30, footprint=96,
                  with_mutants=False, cache=cache)
        cold = run_explore(**kw)
        assert cold.cells_executed > 0
        # warm rerun in parallel mode: nothing re-simulated, and the
        # report body (which excludes provenance) compares equal
        warm = run_explore(jobs=2, **kw)
        assert warm.cells_executed == 0
        assert warm.cells_cached == cold.cells_executed
        assert warm.to_json() == cold.to_json()
        assert json.dumps(warm.to_json(), sort_keys=True) == \
            json.dumps(cold.to_json(), sort_keys=True)

    def test_budget_mode_reports_skipped_loudly(self):
        summary = run_explore(schemes=["asit"], accesses=30,
                              footprint=96, with_mutants=False,
                              class_budget=10, recovery_cap=2)
        v = summary.variants[0]
        assert v.frontier == 10
        assert v.skipped_budget == v.classes - 10
        assert v.skipped_budget > 0
        assert summary.ok

    def test_metrics_are_mirrored(self):
        from repro.obs import MetricRegistry

        registry = MetricRegistry()
        summary = run_explore(schemes=["asit"], accesses=30,
                              footprint=96, with_mutants=False,
                              class_budget=5, recovery_cap=1,
                              metrics=registry)
        explored = registry.get("explore.candidates_explored")
        assert explored is not None
        assert explored.value == summary.explored_total
        assert registry.get("explore.candidates_pruned").value == \
            summary.pruned_total

    @pytest.mark.slow
    def test_budgeted_explore_covers_the_campaign(self):
        """The retired sampling campaign (``--crashes 200 --seed 1`` on
        Steins and WB) crashed at six injection points with outcomes
        ``match``/``detected`` on Steins and ``unsupported`` on WB; the
        budget-20 exploration ``make explore-smoke`` runs reaches all of
        them (its report has no crash-point tally, so the sweep's
        progress callback counts them)."""
        points: dict[str, int] = {}
        outcomes: dict[str, set[str]] = {"steins": set(), "wb": set()}

        def progress(_done, _total, cell):
            if isinstance(cell.value, ExploreCaseResult):
                outcomes[cell.spec.variant].add(cell.value.outcome)
                if cell.value.crash_point:
                    points[cell.value.crash_point] = \
                        points.get(cell.value.crash_point, 0) + 1

        summary = run_explore(schemes=["steins", "wb"], accesses=400,
                              footprint=2048, seed=1, class_budget=20,
                              recovery_cap=4, with_mutants=False,
                              progress=progress)
        assert summary.ok
        assert set(points) >= {"controller.evict", "controller.flush",
                               "controller.read", "controller.write",
                               "metacache.evict", "steins.drain"}
        assert {"match", "detected"} <= outcomes["steins"]
        assert "unsupported" in outcomes["wb"]


class TestMinimizeCase:
    """Regression: the crash trigger is a global fire *count*, so the
    injection point it lands on shifts with the prefix length.  An
    unpinned minimization can converge on a prefix that diverges through
    a *different* crash than the original case hit — a minimized repro
    for the wrong bug.  ``require_point`` pins the search to the
    original failure.
    """

    PLAN = {"mode": "case", "crash_after": 20}

    @staticmethod
    def _fake_run_case(scheme, cfg, prefix, plan):
        # short prefixes shift the same fire count onto an eviction
        # fire (a different, also-divergent crash); only prefixes long
        # enough to reach the original write fire reproduce the bug
        if len(prefix) >= 40:
            return ExploreCaseResult("diverged",
                                     crash_point="controller.write")
        if len(prefix) >= 10:
            return ExploreCaseResult("diverged",
                                     crash_point="metacache.evict")
        return ExploreCaseResult("match")

    def test_unpinned_search_lands_on_the_wrong_fire(self, monkeypatch):
        from repro.explore import runner

        monkeypatch.setattr(runner, "run_case", self._fake_run_case)
        cfg = small_config()
        trace = get_profile("pers_hash").generate(seed=3, n=100,
                                                  footprint=2048)
        # the unpinned minimum accepts the shifted crash: rerunning it
        # would crash at metacache.evict, not the original fire
        assert runner.minimize_case("steins", self.PLAN, cfg, trace) == 10
        wrong = self._fake_run_case("steins", cfg, trace[:10],
                                    self.PLAN)
        assert wrong.crash_point != "controller.write"

    def test_pinned_search_reproduces_the_original_crash(self,
                                                         monkeypatch):
        from repro.explore import runner

        monkeypatch.setattr(runner, "run_case", self._fake_run_case)
        cfg = small_config()
        trace = get_profile("pers_hash").generate(seed=3, n=100,
                                                  footprint=2048)
        n = runner.minimize_case("steins", self.PLAN, cfg, trace,
                                 require_point="controller.write")
        assert n == 40
        repro_result = self._fake_run_case("steins", cfg, trace[:n],
                                           self.PLAN)
        assert repro_result.outcome == "diverged"
        assert repro_result.crash_point == "controller.write"


@pytest.mark.xfail(strict=True, raises=KnownDivergence,
                   reason="unfixed: Steins recovery reports a replay "
                          "after a healthy crash at a steins.drain fire")
@pytest.mark.parametrize("crash_after", [914, 915, 916])
def test_steins_single_crash_reproducer(crash_after):
    """Found by ``repro explore --scheme steins --scheme wb --accesses
    400 --footprint 2048 --seed 1 --budget 60 --recovery-cap 4``: a
    healthy crash at fire 914, 915 or 916 lands on ``steins.drain`` at
    access 399, and recovery raises ``ReplayDetectedError`` ("steins
    L_1Inc mismatch: recomputed 13 < stored 14").  Every other fire of
    the run matches, and the prefix cannot shrink below the crash's 400
    accesses.  Each case must come back ``match``; until it is fixed it
    raises :class:`KnownDivergence`, and only for its pinned outcome and
    message."""
    trace = get_profile("pers_hash").generate(seed=1, n=400,
                                              footprint=2048)[:400]
    result = run_case("steins", small_config(metadata_cache_bytes=512),
                      trace, {"mode": "case", "crash_after": crash_after})
    assert result.crash_point == "steins.drain"
    if result.outcome == "diverged" \
            and "ReplayDetectedError: steins L_1Inc mismatch" \
            in result.detail:
        raise KnownDivergence(result.detail)
    assert result.outcome == "match", result.detail
