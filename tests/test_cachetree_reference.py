"""The settle-on-read cache-tree against the eager one it replaced.

``tests/cachetree_reference.EagerCacheTree`` hashes a leaf's path to the
root on every ``update_leaf``; ``CacheTree`` hashes the union of dirty
paths when the root is observed.  Random interleavings of updates, root
reads, crashes and recovery checks (with the true leaves and with one
leaf altered) must give equal roots, serial counts and exceptions, up to
the first detection: past it the eager tree has overwritten its root
register with the rebuilt one, the defect the lazy tree fixes.  ASIT
and STAR must observe the same durable state on either tree, at every
fault fire of a probe and after every step of a differential run.
"""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.baselines.asit as asit_mod
import repro.baselines.star as star_mod
from repro.baselines.cachetree import CacheTree
from repro.common.config import small_config
from repro.common.errors import TamperDetectedError
from repro.crypto.engine import make_engine
from repro.explore import run_probe
from repro.oracle.harness import DifferentialRun
from repro.workloads import get_profile
from tests.cachetree_reference import EagerLeafTree
from tests.conftest import scaled

ENGINE = make_engine(0xC0FFEE)

#: a leaf index is taken modulo the tree's leaf count
INDEX = st.integers(0, (1 << 16) - 1)
OPS = st.one_of(
    st.tuples(st.just("update"), INDEX, st.integers(0, (1 << 64) - 1)),
    st.tuples(st.just("root")),
    st.tuples(st.just("crash")),
    st.tuples(st.just("rebuild"), st.booleans(), INDEX),
)
SHAPES = [(n, arity) for n in (1, 7, 8, 9, 64, 4096) for arity in (2, 8)]


def _staged_hash(index: int, value: int) -> int:
    return ENGINE.digest64(7, index, value)


def _call(fn, *args):
    """The call's result, or the type of the error it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # compared across the two trees
        return type(exc)


@pytest.mark.parametrize("staged", [False, True],
                         ids=["leaf-hashes", "staged-values"])
@pytest.mark.parametrize("n,arity", SHAPES,
                         ids=[f"{n}x{a}" for n, a in SHAPES])
@settings(max_examples=scaled(30), deadline=None)
@given(ops=st.lists(OPS, min_size=1, max_size=40))
def test_lazy_tree_matches_eager(n, arity, staged, ops):
    leaf_hash = _staged_hash if staged else None
    lazy = CacheTree("lazy", n, ENGINE, arity, leaf_hash=leaf_hash)
    eager = EagerLeafTree("eager", n, ENGINE, arity, leaf_hash=leaf_hash)
    assert lazy.root == eager.root
    truth = [0] * n  #: the leaf hashes the updates have set
    for op in ops:
        if op[0] == "update":
            index = op[1] % n
            assert lazy.update_leaf(index, op[2]) == \
                eager.update_leaf(index, op[2])
            truth[index] = op[2] if leaf_hash is None \
                else leaf_hash(index, op[2])
        elif op[0] == "root":
            assert lazy.root == eager.root
        elif op[0] == "crash":
            lazy.crash()
            eager.crash()
        else:
            leaves = list(truth)
            if op[1]:
                leaves[op[2] % n] ^= 1
            got = _call(lazy.rebuild_and_verify, list(leaves))
            assert got == _call(eager.rebuild_and_verify, list(leaves)), op
            if got is TamperDetectedError:
                return  # the eager tree's root is the rebuilt one now
    assert lazy.root == eager.root


# ------------------------------------------------------------ schemes
SCHEMES = ["asit", "star"]


@pytest.fixture(scope="module")
def cfg():
    return small_config(metadata_cache_bytes=512)


@pytest.fixture(scope="module")
def trace():
    return get_profile("pers_hash").generate(seed=2025, n=60, footprint=128)


def _on_reference_tree(monkeypatch):
    monkeypatch.setattr(asit_mod, "CacheTree", EagerLeafTree)
    monkeypatch.setattr(star_mod, "CacheTree", EagerLeafTree)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_probe_digests_match_reference_tree(scheme, cfg, trace,
                                            monkeypatch):
    """Every fault fire digests the cache-tree root (the durable-state
    digest reads ``oracle_extra_state``): a settled root must equal the
    eager one even mid-operation."""
    lazy = run_probe(scheme, cfg, trace)
    with monkeypatch.context() as m:
        _on_reference_tree(m)
        eager = run_probe(scheme, cfg, trace)
    assert len(lazy.fires) > len(trace)
    assert lazy.fires == eager.fires


@pytest.mark.parametrize("scheme", SCHEMES)
def test_differential_run_roots_match_reference_tree(scheme, cfg, trace,
                                                     monkeypatch):
    lazy = DifferentialRun(scheme, cfg)
    with monkeypatch.context() as m:
        _on_reference_tree(m)
        eager = DifferentialRun(scheme, cfg)
    assert isinstance(eager.controller.cache_tree, EagerLeafTree)
    assert type(lazy.controller.cache_tree) is CacheTree

    def roots():
        return tuple(dr.controller.oracle_extra_state()["cache_tree_root"]
                     for dr in (lazy, eager))

    seen = set()
    half = len(trace) // 2
    for i in range(len(trace)):
        if i == half:  # a crash and recovery mid-trace
            for dr in (lazy, eager):
                pre = dr.crash()
                dr.system.recover()
                dr.check_recovery(pre)
        lazy.step(trace, i)
        eager.step(trace, i)
        root, ref = roots()
        assert root == ref, i
        seen.add(root)
    # the root moves along the trace: live values were compared
    assert len(seen) > 2
    assert lazy.divergences == eager.divergences == []
