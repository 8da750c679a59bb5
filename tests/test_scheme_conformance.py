"""Registry-parametrized conformance suite (issue tentpole gate).

Every scheme that registers via :func:`repro.schemes.register_scheme`
is pulled through the same oracle gauntlet — no per-scheme test lists
to forget to extend.  A plugin that registers and passes this file has
met the controller-boundary contract:

* the differential oracle agrees on clean runs, targeted crashes at
  every injection point the scheme fires, and crash-during-recovery;
* every applicable tamper/replay is loud (detected or provably
  neutralized);
* recovery is idempotent, and survives a second crash (hypothesis
  property; the deeper search lives in ``test_double_crash.py``,
  which iterates the same registry);
* a simulation cell is deterministic — two independent runs of the
  scheme's first registered variant are byte-identical;
* every recoverable variant's recovery is pinned: the report of a
  crash+recover on the golden-stats grid, and the exception a tampered
  data block raises, equal ``fixtures/golden_recovery.json``;
* the registry itself enforces the registration contract (the
  ``TestRegistrationContract`` half below).
"""
import json
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import drive, scaled

from repro.baselines.base import SecureMemoryController
from repro.baselines.wb import WBController
from repro.common.config import CounterMode, small_config
from repro.common.errors import ConfigError, CrashInjected, ReproError
from repro.explore.planner import first_middle_last_plans
from repro.explore.runner import (
    TAMPER_KINDS,
    ExploreCaseResult,
    run_case,
    run_explore_cell,
    run_probe,
)
from repro.faults.registry import (
    INJECTION_POINTS,
    POINT_RECOVERY,
    FaultPlan,
    armed,
)
from repro.nvm.layout import Region
from repro.oracle.mutants import MUTANTS
from repro.oracle.sweep import tamper_plans_for
from repro.schemes import (
    BASE_FAULT_POINTS,
    RECOVERY_STYLES,
    SchemeCapabilities,
    get_scheme,
    recoverable_scheme_names,
    register_scheme,
    resolve_schemes,
    scheme_names,
    variant_table,
)
from repro.schemes import registry as registry_module
from repro.sim.crash import capture_golden, check_recovered
from repro.sim.runner import VARIANTS, RunSpec, make_system, run_cell
from repro.sim.system import SCHEMES, SecureNVMSystem
from repro.workloads import get_profile

ALL_SCHEMES = scheme_names()
RECOVERABLE = recoverable_scheme_names()

#: the outcomes an untampered case is allowed to have
_HONEST = ("match", "unsupported", "no_crash")


@pytest.fixture(scope="module")
def cfg():
    return small_config(metadata_cache_bytes=2048)


@pytest.fixture(scope="module")
def trace():
    return get_profile("pers_hash").generate(seed=2024, n=250,
                                             footprint=2048)


# --------------------------------------------------- registry coherence
def test_registry_backs_the_simulator_views():
    assert set(SCHEMES) == set(ALL_SCHEMES)
    assert VARIANTS == variant_table()
    assert set(RECOVERABLE) <= set(ALL_SCHEMES)


def test_ci_conformance_matrix_mirrors_the_registry():
    """The per-scheme CI matrix is a static YAML list; a plugin that
    registers without extending it would silently skip its dedicated
    gate, so the list is pinned to the registry here."""
    import re
    from pathlib import Path

    ci = Path(__file__).resolve().parent.parent / ".github" / \
        "workflows" / "ci.yml"
    match = re.search(r"^\s*scheme:\s*\[([^\]]+)\]", ci.read_text(),
                      flags=re.MULTILINE)
    assert match, "ci.yml lost its conformance scheme matrix"
    listed = sorted(s.strip() for s in match.group(1).split(","))
    assert listed == sorted(ALL_SCHEMES)


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_capability_declaration_is_coherent(scheme):
    entry = get_scheme(scheme)
    caps = entry.capabilities
    assert entry.factory.name == scheme
    assert caps.recovery in RECOVERY_STYLES
    assert (caps.recovery == "none") != entry.supports_recovery
    assert set(caps.fault_points) <= set(INJECTION_POINTS)
    assert not set(caps.fault_points) & set(BASE_FAULT_POINTS)
    if entry.supports_recovery:
        assert POINT_RECOVERY in caps.fault_points
    for variant, mode in caps.variants:
        assert VARIANTS[variant] == (scheme, mode)
        assert mode in caps.counter_modes


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_oracle_snapshot_declares_extra_state(scheme, cfg):
    """The durable trust base is a stated, JSON-serializable answer."""
    system = SecureNVMSystem(scheme, cfg)
    system.store(3, flush=True)
    snap = system.controller.oracle_snapshot()
    assert set(snap) == {"root", "tree", "dirty"}
    extra = system.controller.oracle_extra_state()
    assert isinstance(extra, dict)
    assert all(isinstance(k, str) for k in extra)
    json.dumps(extra)  # comparable across processes => serializable


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_every_scheme_has_mutant_coverage(scheme):
    """The oracle's self-test asserts at least one seeded bug per
    scheme — a scheme nothing can be planted into is untestable."""
    assert any(scheme in m.schemes for m in MUTANTS.values())


# ----------------------------------------------------- oracle: clean run
@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_clean_case_matches(scheme, cfg, trace):
    result = run_case(scheme, cfg, trace, {"mode": "clean"})
    assert result.outcome == "match", result.detail


#: (metadata cache bytes, accesses, footprint, seed) of the clean runs
#: ``repro explore --small``, the explore benchmark (two seeds),
#: ``repro explore`` and ``repro oracle`` (seed 1, and its default) make
_CLEAN_SETTINGS = [(512, 60, 256, 2025), (512, 40, 256, 2024),
                   (512, 40, 256, 7), (512, 120, 512, 2025),
                   (2048, 400, 2048, 1), (2048, 400, 2048, 2024)]


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_clean_plan_is_the_untouched_baseline(scheme):
    """A clean plan is a case with no crash trigger: at every setting
    the explorer and the oracle run it, the result carries no crash,
    recovery or resume fields — exactly the bare ``match``."""
    for cache_bytes, accesses, footprint, seed in _CLEAN_SETTINGS:
        trace = get_profile("pers_hash").generate(
            seed=seed, n=accesses, footprint=footprint)
        result = run_case(scheme,
                          small_config(metadata_cache_bytes=cache_bytes),
                          trace, {"mode": "clean"})
        assert result == ExploreCaseResult(outcome="match"), (
            cache_bytes, accesses, footprint, seed)


# ----------------------------------------------- oracle: targeted crashes
@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_targeted_crashes_conform(scheme, cfg, trace):
    """Crash at the first/middle/last occurrence of every injection
    point the scheme fires, plus crash-during-recovery doses: zero
    silent divergences allowed."""
    probe = run_probe(scheme, cfg, trace)
    assert probe.fires, "a write-heavy trace must fire injection points"
    for plan in first_middle_last_plans(probe, recovery_doses=(1, 2)):
        result = run_explore_cell(scheme, plan, cfg, trace)["case"]
        assert result["outcome"] in _HONEST, (
            f"{scheme} {plan}: {result['outcome']} {result['detail']}")


# ---------------------------------------------------- oracle: tampering
@pytest.mark.parametrize("scheme", ALL_SCHEMES)
@pytest.mark.parametrize("kind", TAMPER_KINDS)
def test_tampers_are_loud(scheme, kind, cfg, trace):
    plans = {p["attack"]: p for p in tamper_plans_for(scheme)}
    if kind not in plans:
        assert not SCHEMES[scheme].supports_recovery
        pytest.skip("tree tampers need the crash/recover cycle")
    result = run_case(scheme, cfg, trace, plans[kind])
    assert result.outcome in ("detected", "neutralized"), (
        f"{scheme} under {kind}: {result.outcome} {result.detail}")


#: the oracle's tamper verdicts at ``repro oracle --seed 1``: every
#: applicable attack is detected, except where recovery rebuilds the
#: attacked tree lines from verified data
_NEUTRALIZED = {("asit", "tree-replay"), ("scue", "tree-counter"),
                ("scue", "tree-replay")}


def test_oracle_tamper_verdicts_are_pinned():
    """The 33 (scheme, attack) rows of the oracle suite, run as clean
    (data attacks) and shutdown-crash (tree attacks) plans."""
    cfg = small_config(metadata_cache_bytes=2048)
    trace = get_profile("pers_hash").generate(seed=1, n=400,
                                              footprint=2048)
    verdicts = {(scheme, plan["attack"]):
                run_case(scheme, cfg, trace, plan).outcome
                for scheme in ALL_SCHEMES
                for plan in tamper_plans_for(scheme)}
    assert len(verdicts) == 33
    assert {k for k, v in verdicts.items() if v != "detected"} == \
        _NEUTRALIZED
    assert set(verdicts.values()) == {"detected", "neutralized"}


# ------------------------------------------------- recovery properties
def _crashed_system(scheme, crash_after):
    system = SecureNVMSystem(scheme,
                             small_config(metadata_cache_bytes=512))
    run = get_profile("pers_hash").generate(seed=13, n=120, footprint=512)
    plan = FaultPlan(crash_after=crash_after)
    with armed(plan):
        try:
            drive(system, run)
        except CrashInjected:
            pass
    golden = capture_golden(system)
    system.crash()
    return system, golden


@pytest.mark.parametrize("scheme", RECOVERABLE)
@settings(max_examples=scaled(8), deadline=None)
@given(crash_after=st.integers(min_value=1, max_value=160))
def test_recovery_is_idempotent(scheme, crash_after):
    """Recover, then crash-and-recover again with no new writes: the
    second pass must land on exactly the state the first one reached."""
    system, golden = _crashed_system(scheme, crash_after)
    system.recover()
    check_recovered(system, golden)
    system.crash()
    system.recover()
    check_recovered(system, golden)
    system.verify_all_persisted()


@pytest.mark.parametrize("scheme", RECOVERABLE)
@settings(max_examples=scaled(8), deadline=None)
@given(crash_after=st.integers(min_value=1, max_value=160),
       dose=st.integers(min_value=1, max_value=10))
def test_recovery_survives_double_crash(scheme, crash_after, dose):
    system, golden = _crashed_system(scheme, crash_after)
    plan = FaultPlan(recovery_crash_after=dose)
    with armed(plan):
        try:
            system.recover()
        except CrashInjected:
            system.crash()
            system.recover()
    check_recovered(system, golden)
    system.verify_all_persisted()


# ------------------------------------------------ golden determinism
@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_cell_is_deterministic(scheme, cfg):
    """Two independent simulations of the scheme's first registered
    variant produce byte-identical stats documents."""
    variant = get_scheme(scheme).capabilities.variants[0][0]
    spec = RunSpec(variant=variant, workload="pers_hash", accesses=600,
                   footprint_blocks=1024, seed=7)
    one = json.dumps(run_cell(spec, cfg).to_json(), sort_keys=True)
    two = json.dumps(run_cell(spec, cfg).to_json(), sort_keys=True)
    assert one == two


# ------------------------------------------------- golden recovery pin
GOLDEN_RECOVERY_PATH = Path(__file__).resolve().parent / "fixtures" / \
    "golden_recovery.json"

#: the golden-stats grid (``tests/test_golden_stats.py``)
_RECOVERY_GRID = dict(seed=99, n=3000, footprint=2048)
_RECOVERY_WORKLOADS = ("mcf_r", "pers_hash")
#: every recoverable variant on the grid, plus Steins' Osiris leaves
RECOVERY_CELLS = [
    (variant, workload, "echo")
    for variant in sorted(v for v, (scheme, _) in VARIANTS.items()
                          if scheme in RECOVERABLE)
    for workload in _RECOVERY_WORKLOADS
] + [("steins-gc", "mcf_r", "osiris")]


def recovery_cell_key(variant: str, workload: str,
                      leaf_recovery: str) -> str:
    key = f"{variant}/{workload}"
    return key if leaf_recovery == "echo" else f"{key}/{leaf_recovery}"


def _crashed_grid_system(variant, workload, leaf_recovery):
    """Run one grid cell, crash it; also return the offsets that were
    dirty in the metadata cache at the crash."""
    cfg = small_config()
    cfg = replace(cfg, security=replace(cfg.security,
                                        leaf_recovery=leaf_recovery))
    system = make_system(variant, cfg)
    profile = get_profile(workload)
    system.run_stream(profile.generate(**_RECOVERY_GRID),
                      flush_writes=profile.persistent)
    dirty = {off for off, _ in system.controller.metacache.dirty_entries()}
    system.crash()
    return system, dirty


def golden_recovery_entry(variant: str, workload: str,
                          leaf_recovery: str) -> dict:
    """The pinned outcome of one cell: the report of a clean recovery,
    and the exception class (``None``: recovery succeeded) when one
    persisted data block is tampered before recovering.

    The tampered block is the lowest-addressed persisted one under a
    leaf that was dirty at the crash (echo-rebuilding schemes read it),
    else the lowest-addressed persisted block.
    """
    system, _ = _crashed_grid_system(variant, workload, leaf_recovery)
    report = system.recover()

    system, dirty = _crashed_grid_system(variant, workload, leaf_recovery)
    g = system.controller.geometry
    blocks = sorted(addr for addr, _ in system.device.populated(Region.DATA))
    target = next((addr for addr in blocks
                   if g.node_offset(0, g.leaf_for_block(addr)) in dirty),
                  blocks[0])
    tag, cipher, hmac, echo = system.device.peek(Region.DATA, target)
    system.device.poke(Region.DATA, target, (tag, cipher ^ 1, hmac, echo))
    try:
        system.recover()
        raised = None
    except ReproError as exc:
        raised = type(exc).__name__
    return {"report": report.to_json(), "tamper": raised}


def test_golden_recovery_covers_every_recoverable_variant():
    golden = json.loads(GOLDEN_RECOVERY_PATH.read_text())
    assert set(golden) == {recovery_cell_key(*cell)
                           for cell in RECOVERY_CELLS}


@pytest.mark.parametrize("variant,workload,leaf_recovery", [
    pytest.param(*cell, id=recovery_cell_key(*cell))
    for cell in RECOVERY_CELLS])
def test_recovery_matches_golden(variant, workload, leaf_recovery):
    """Recovery reads, hashes, writes and nodes, and the tamper
    verdict, are byte-identical to the pinned fixture."""
    golden = json.loads(GOLDEN_RECOVERY_PATH.read_text())
    got = golden_recovery_entry(variant, workload, leaf_recovery)
    key = recovery_cell_key(variant, workload, leaf_recovery)
    assert json.dumps(got, sort_keys=True) == \
        json.dumps(golden[key], sort_keys=True)


# ------------------------------------------- the registration contract
class TestRegistrationContract:
    """register_scheme must reject every malformed plugin loudly.

    Each case builds a throwaway controller class; all of them fail
    validation *before* the registry is touched, so the global registry
    stays pristine for the rest of the suite.
    """

    def _caps(self, **kw):
        base = dict(counter_modes=(CounterMode.GENERAL,),
                    recovery="none",
                    variants=(("ghost-gc", CounterMode.GENERAL),))
        base.update(kw)
        return SchemeCapabilities(**base)

    def test_duplicate_name_rejected(self):
        with pytest.raises(ConfigError, match="already registered"):
            register_scheme("wb", WBController, self._caps())

    def test_name_mismatch_rejected(self):
        class Ghost(WBController):
            name = "ghost"

        with pytest.raises(ConfigError, match="must match"):
            register_scheme("spectre", Ghost, self._caps())

    def test_missing_oracle_extra_state_rejected(self):
        class Bare(SecureMemoryController):
            name = "bare"

        with pytest.raises(ConfigError, match="SL701"):
            register_scheme("bare", Bare, self._caps())

    def test_unknown_recovery_style_rejected(self):
        class Ghost(WBController):
            name = "ghost"

        with pytest.raises(ConfigError, match="recovery style"):
            register_scheme("ghost", Ghost,
                            self._caps(recovery="wishful-thinking"))

    def test_recovery_contradiction_rejected(self):
        class Ghost(WBController):
            name = "ghost"  # supports_recovery stays False

        with pytest.raises(ConfigError, match="contradicts"):
            register_scheme("ghost", Ghost,
                            self._caps(recovery="shadow-table"))

    def test_recovery_capable_must_declare_recovery_point(self):
        class Ghost(WBController):
            name = "ghost"
            supports_recovery = True

            def recover(self):  # pragma: no cover - never runs
                raise NotImplementedError

        with pytest.raises(ConfigError, match="recovery.step"):
            register_scheme("ghost", Ghost,
                            self._caps(recovery="shadow-table"))

    def test_unknown_fault_point_rejected(self):
        class Ghost(WBController):
            name = "ghost"

        with pytest.raises(ConfigError, match="injection points"):
            register_scheme("ghost", Ghost,
                            self._caps(fault_points=("warp.core",)))

    def test_base_fault_point_redeclaration_rejected(self):
        class Ghost(WBController):
            name = "ghost"

        with pytest.raises(ConfigError, match="base fault points"):
            register_scheme("ghost", Ghost,
                            self._caps(fault_points=("controller.write",)))

    def test_unknown_stats_key_rejected(self):
        class Ghost(WBController):
            name = "ghost"

        with pytest.raises(ConfigError, match="stats keys"):
            register_scheme("ghost", Ghost,
                            self._caps(stats_keys=("warp_factor",)))

    def test_variant_name_collision_rejected(self):
        class Ghost(WBController):
            name = "ghost"

        with pytest.raises(ConfigError, match="already used"):
            register_scheme("ghost", Ghost, self._caps(
                variants=(("wb-gc", CounterMode.GENERAL),)))

    def test_variant_mode_outside_declared_rejected(self):
        class Ghost(WBController):
            name = "ghost"

        with pytest.raises(ConfigError, match="counter mode"):
            register_scheme("ghost", Ghost, self._caps(
                variants=(("ghost-sc", CounterMode.SPLIT),)))

    def test_variants_required(self):
        class Ghost(WBController):
            name = "ghost"

        with pytest.raises(ConfigError, match="figure variant"):
            register_scheme("ghost", Ghost, self._caps(variants=()))

    def test_valid_plugin_registers_and_resolves(self, monkeypatch):
        """A well-formed plugin lands in every registry query (the
        registry is restored afterwards, so no other test sees it)."""
        monkeypatch.setattr(registry_module, "_REGISTRY",
                            dict(registry_module._REGISTRY))

        class Ghost(WBController):
            name = "ghost"

            def _oracle_extra_state(self):
                return {"ghost": 0}

        entry = register_scheme("ghost", Ghost, self._caps())
        assert not entry.supports_recovery
        assert "ghost" in scheme_names()
        assert variant_table()["ghost-gc"] == ("ghost",
                                               CounterMode.GENERAL)
        assert resolve_schemes(["ghost"]) == ["ghost"]
        with pytest.raises(ConfigError, match="does not support"):
            resolve_schemes(["ghost"], recoverable_only=True)


class TestResolveSchemes:
    def test_default_is_every_scheme_sorted(self):
        assert resolve_schemes() == sorted(ALL_SCHEMES)

    def test_recoverable_only_default(self):
        assert resolve_schemes(recoverable_only=True) == \
            sorted(RECOVERABLE)

    def test_explicit_names_keep_order_and_dedupe(self):
        assert resolve_schemes(["secpm", "wb", "secpm"]) == \
            ["secpm", "wb"]

    def test_unknown_name_lists_registered(self):
        with pytest.raises(ConfigError, match="registered schemes"):
            resolve_schemes(["nosuch"])

    def test_recoverable_only_rejects_wb(self):
        with pytest.raises(ConfigError, match="does not support"):
            resolve_schemes(["wb"], recoverable_only=True)
