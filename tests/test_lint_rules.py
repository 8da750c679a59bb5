"""Per-rule simlint checks against the fixtures under fixtures/lint/.

Each rule family gets a positive fixture (violations at known lines)
and a negative fixture (idiomatic code that must stay silent).
"""
from pathlib import Path

from repro.analysis.lint import run_lint

FIXTURES = Path(__file__).resolve().parent / "fixtures" / "lint"


def lint(*names: str):
    return run_lint([str(FIXTURES / n) for n in names])


def hits(result):
    """(rule_id, line) pairs, sorted."""
    return sorted((d.rule_id, d.line) for d in result.diagnostics)


class TestPersistRules:
    def test_flags_every_mutation_kind_and_reads(self):
        result = lint("persist_bad.py")
        assert hits(result) == [
            ("SL001", 5),   # subscript assignment
            ("SL001", 6),   # mutator method call
            ("SL001", 7),   # delete
            ("SL001", 8),   # augmented assignment
            ("SL002", 9),   # private read
        ]
        assert result.exit_code() == 1

    def test_own_state_and_accessors_are_silent(self):
        assert lint("persist_ok.py").diagnostics == []


class TestDeterminismRules:
    def test_flags_random_wallclock_and_set_iteration(self):
        result = lint("determinism_bad.py")
        assert hits(result) == [
            ("SL101", 2),   # import random
            ("SL101", 7),   # random.random()
            ("SL102", 8),   # time.time()
            ("SL103", 9),   # for over a set literal
        ]

    def test_seeded_rng_and_sorted_sets_are_silent(self):
        assert lint("determinism_ok.py").diagnostics == []


class TestExactnessRule:
    def test_flags_floats_in_counter_scope(self):
        result = lint("counters/exactness_bad.py")
        assert hits(result) == [
            ("SL201", 9),   # float literal
            ("SL201", 10),  # true division
            ("SL201", 11),  # float() conversion
        ]

    def test_integer_math_and_declared_float_helpers_are_silent(self):
        assert lint("counters/exactness_ok.py").diagnostics == []

    def test_rule_is_scoped_to_counter_directories(self, tmp_path):
        # the same float-laden code outside counters/core/integrity is
        # not counter math and must not be flagged
        copy = tmp_path / "reporting.py"
        copy.write_text(
            (FIXTURES / "counters" / "exactness_bad.py").read_text())
        assert run_lint([str(copy)]).diagnostics == []


class TestSimulatedTimeRule:
    def test_flags_float_time_annotations_and_arithmetic(self):
        result = lint("sim/simtime_bad.py")
        assert hits(result) == [
            ("SL202", 8),   # float parameter annotation
            ("SL202", 12),  # float return annotation on *_ps function
            ("SL202", 17),  # float class field
            ("SL202", 20),  # true division on now_ps
            ("SL202", 21),  # float() conversion
            ("SL202", 22),  # float literal in time arithmetic
        ]
        assert result.exit_code() == 1

    def test_reporting_boundaries_are_silent(self):
        assert lint("sim/simtime_ok.py").diagnostics == []

    def test_rule_is_scoped_to_simulation_directories(self, tmp_path):
        # identical code outside sim/nvm/mem/core is not hot-path
        # simulated time and must not be flagged
        copy = tmp_path / "analysis_helper.py"
        copy.write_text(
            (FIXTURES / "sim" / "simtime_bad.py").read_text())
        assert run_lint([str(copy)]).diagnostics == []


class TestStatsRule:
    def test_flags_typoed_attr_and_bump_key(self):
        result = lint("stats_bad.py")
        assert hits(result) == [
            ("SL301", 16),  # stats.hist
            ("SL301", 18),  # bump("replasy")
        ]

    def test_declared_counters_are_silent(self):
        assert lint("stats_ok.py").diagnostics == []

    def test_silent_without_collected_declarations(self, tmp_path):
        # no *Stats class in the analyzed set -> nothing to check against
        copy = tmp_path / "orphan.py"
        copy.write_text("def f(c):\n    c.stats.whatever += 1\n")
        assert run_lint([str(copy)]).diagnostics == []


class TestErrorRules:
    def test_flags_broad_and_swallowed_handlers(self):
        result = lint("errors_bad.py")
        assert hits(result) == [
            ("SL401", 8),   # except Exception: pass
            ("SL401", 12),  # bare except
            ("SL402", 16),  # RecoveryError swallowed
        ]

    def test_specific_or_reraising_handlers_are_silent(self):
        assert lint("errors_ok.py").diagnostics == []


class TestFaultHookRule:
    def test_flags_adhoc_triggers_and_unregistered_fire(self):
        result = lint("faults_bad.py")
        assert hits(result) == [
            ("SL403", 9),   # if crash_now:
            ("SL403", 11),  # while state.should_crash:
            ("SL403", 13),  # fire() not imported from the registry
        ]
        assert result.exit_code() == 1

    def test_registry_hooks_and_plan_fields_are_silent(self):
        assert lint("faults_ok.py").diagnostics == []


class TestOrchestrationRule:
    def test_flags_every_pool_import_form(self):
        result = lint("orchestration_bad.py")
        assert hits(result) == [
            ("SL501", 2),   # import multiprocessing
            ("SL501", 3),   # import multiprocessing.pool
            ("SL501", 4),   # import concurrent.futures
            ("SL501", 5),   # from multiprocessing import Pool
            ("SL501", 6),   # from concurrent.futures import ...
        ]
        assert result.exit_code() == 1

    def test_executor_package_and_run_sweep_callers_are_silent(self):
        assert lint("exec/pool_ok.py").diagnostics == []
        assert lint("orchestration_ok.py").diagnostics == []

    def test_reasoned_suppression_path(self, tmp_path):
        copy = tmp_path / "special.py"
        copy.write_text(
            "# simlint: disable-next=SL501 -- test: sanctioned fan-out\n"
            "import multiprocessing\n")
        assert run_lint([str(copy)]).diagnostics == []


class TestObservabilityRule:
    def test_flags_adhoc_stat_containers(self):
        result = lint("obs_bad.py")
        assert hits(result) == [
            ("SL601", 6),   # class DrainStats
            ("SL601", 11),  # class FlushSummaryReport
        ]
        assert result.exit_code() == 1

    def test_registry_use_and_test_classes_are_silent(self):
        assert lint("obs_ok.py").diagnostics == []

    def test_obs_package_and_grandfathered_files_are_sanctioned(
            self, tmp_path):
        src = (FIXTURES / "obs_bad.py").read_text()
        in_obs = tmp_path / "obs" / "metrics.py"
        in_obs.parent.mkdir()
        in_obs.write_text(src)
        grandfathered = tmp_path / "nvm" / "device.py"
        grandfathered.parent.mkdir()
        grandfathered.write_text(src)
        assert run_lint([str(in_obs)]).diagnostics == []
        assert run_lint([str(grandfathered)]).diagnostics == []


class TestOracleRule:
    def test_flags_controllers_missing_the_snapshot_hook(self):
        result = lint("oracle_bad.py")
        assert hits(result) == [
            ("SL701", 4),   # plain-name base, no hook
            ("SL701", 9),   # attribute base, no hook
        ]
        assert result.exit_code() == 1

    def test_hooked_controllers_and_bystanders_are_silent(self):
        assert lint("oracle_ok.py").diagnostics == []


class TestSchemeRegistryRule:
    def test_flags_named_controllers_never_registered(self):
        result = lint("schemes_bad.py")
        assert hits(result) == [
            ("SL1001", 4),   # plain-name base, name never registered
            ("SL1001", 11),  # shared-base subclass, name never registered
        ]
        assert result.exit_code() == 1

    def test_registered_bases_and_test_doubles_are_silent(self):
        assert lint("schemes_ok.py").diagnostics == []

    def test_registration_in_another_file_counts(self, tmp_path):
        """The collect pass is project-wide: the class and its
        register_scheme call may live in different files."""
        scheme = tmp_path / "ghost.py"
        scheme.write_text(
            "class GhostController(SecureMemoryController):\n"
            '    name = "ghost"\n'
            "    def _oracle_extra_state(self):\n"
            "        return {}\n")
        assert run_lint([str(scheme)]).exit_code() == 1
        wiring = tmp_path / "builtin.py"
        wiring.write_text('register_scheme("ghost", GhostController, c)\n')
        assert run_lint([str(scheme), str(wiring)]).diagnostics == []


class TestExploreRule:
    def test_flags_every_crash_loop_shape(self):
        result = lint("explore_bad.py")
        assert hits(result) == [
            ("SL801", 6),   # for over INJECTION_POINTS
            ("SL801", 12),  # FaultPlan inside a for body
            ("SL801", 20),  # FaultPlan inside a while body
            ("SL801", 26),  # for over probe.fires
        ]
        assert result.exit_code() == 1

    def test_single_plans_run_explore_and_plain_loops_are_silent(self):
        assert lint("explore_ok.py").diagnostics == []

    def test_sanctioned_crash_tooling_dirs_may_enumerate(self, tmp_path):
        src = (FIXTURES / "explore_bad.py").read_text()
        for pkg in ("explore", "oracle"):
            copy = tmp_path / pkg / "sweep.py"
            copy.parent.mkdir()
            copy.write_text(src)
            assert run_lint([str(copy)]).diagnostics == []
        # the FaultPlan registry's package hosts no crash policy
        copy = tmp_path / "faults" / "sweep.py"
        copy.parent.mkdir()
        copy.write_text(src)
        assert hits(run_lint([str(copy)])) == hits(lint("explore_bad.py"))

    def test_reasoned_suppression_path(self, tmp_path):
        copy = tmp_path / "one_off.py"
        copy.write_text(
            "for k in range(9):\n"
            "    # simlint: disable-next=SL801 -- test: bisecting one fire\n"
            "    plan = FaultPlan(crash_after=k)\n")
        assert run_lint([str(copy)]).diagnostics == []


class TestServeRule:
    def test_flags_every_network_import_form(self):
        result = lint("serve_bad.py")
        assert hits(result) == [
            ("SL901", 2),   # import socket
            ("SL901", 3),   # import asyncio
            ("SL901", 4),   # import selectors
            ("SL901", 5),   # from socket import ...
            ("SL901", 6),   # from asyncio import ...
        ]
        assert result.exit_code() == 1

    def test_service_package_and_service_callers_are_silent(self):
        assert lint("serve/service_ok.py").diagnostics == []
        assert lint("serve_ok.py").diagnostics == []

    def test_reasoned_suppression_path(self, tmp_path):
        copy = tmp_path / "special.py"
        copy.write_text(
            "# simlint: disable-next=SL901 -- test: sanctioned I/O\n"
            "import socket\n")
        assert run_lint([str(copy)]).diagnostics == []


class TestSuppressions:
    def test_reasoned_directives_silence_by_id_and_name(self):
        assert lint("suppress_reasoned.py").diagnostics == []

    def test_unreasoned_and_unknown_directives_report_sl000(self):
        result = lint("suppress_unreasoned.py")
        assert hits(result) == [
            ("SL000", 6),   # directive with no reason
            ("SL000", 7),   # directive naming unknown rule SL777
            ("SL102", 7),   # the unknown-rule directive suppresses nothing
        ]
        # the reason-less directive still suppresses its target rule, so
        # line 6's time.time() reports only the hygiene problem
        assert ("SL102", 6) not in hits(result)


class TestParseErrors:
    def test_unparseable_file_reports_sl999(self):
        result = lint("broken_syntax.py")
        assert [d.rule_id for d in result.diagnostics] == ["SL999"]
        assert result.exit_code() == 1


def test_src_tree_is_simlint_clean():
    """Meta-test: the shipped package itself passes its own linter."""
    result = run_lint(["src"])
    assert result.diagnostics == [], "\n".join(
        d.format() for d in result.diagnostics)
    assert result.files_checked > 80
