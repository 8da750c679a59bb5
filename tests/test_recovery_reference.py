"""The batched recovery rebuilds against the per-line ones they replaced.

Every recoverable variant is built twice on the same configuration:
once as shipped, once with ``tests/recovery_reference.PerLineRebuild``
in front of it (and, for Steins' Osiris leaves, the per-line
``osiris_rebuild_leaf`` in place of ``repro.core.osiris.rebuild_leaf``).
Both get the same seeded writes on a metadata cache of 16 lines, so
dirty leaves and dirty inner nodes are live at the crash, then crash
and recover twice.  The two must rebuild the same nodes in the same
order, return equal ``RecoveryReport.to_json()``s and end in the same
controller state.
"""
import dataclasses

import pytest

from repro.common.config import small_config
from repro.common.rng import make_rng
from repro.core import osiris
from repro.nvm.device import NVMDevice
from repro.nvm.energy import EnergyMeter
from repro.sim.clock import MemClock
from repro.sim.runner import VARIANTS
from repro.sim.system import SCHEMES, make_layout
from tests.recovery_reference import osiris_rebuild_leaf, with_per_line_rebuild

RECOVERABLE = ("asit", "star", "scue", "steins-gc", "steins-sc",
               "phoenix", "secpm")
CASES = [(variant, "echo") for variant in RECOVERABLE] + [
    ("steins-gc", "osiris")]
SEEDS = (3, 17, 2024)
#: the shipped Osiris leaf rebuild, before any test wraps it
BATCHED_OSIRIS_LEAF = osiris.rebuild_leaf


class Recording:
    """Logs the snapshot of every node the controller rebuilds."""

    rebuilt: list

    def rebuild_leaf(self, leaf_index, report):
        node = super().rebuild_leaf(leaf_index, report)
        self.rebuilt.append(node.snapshot())
        return node

    def rebuild_inner(self, level, index, report):
        node = super().rebuild_inner(level, index, report)
        self.rebuilt.append(node.snapshot())
        return node


def build(variant: str, leaf_recovery: str, per_line: bool):
    scheme, mode = VARIANTS[variant]
    cfg = small_config(mode).with_metadata_cache(16 * 64, ways=4)
    cfg = dataclasses.replace(cfg, security=dataclasses.replace(
        cfg.security, leaf_recovery=leaf_recovery))
    cls = SCHEMES[scheme]
    if per_line:
        cls = with_per_line_rebuild(cls)
    cls = type(f"Recording{cls.__name__}", (Recording, cls), {})
    device = NVMDevice(make_layout(cfg))
    clock = MemClock(cfg, device, EnergyMeter(cfg.energy))
    controller = cls(cfg, device, clock)
    controller.rebuilt = []
    return controller


def state(controller) -> tuple:
    return (controller.tree_state_fingerprint(),
            sorted((offset, node.snapshot(), dirty) for offset, node, dirty
                   in controller.metacache.entries()),
            controller.root.snapshot(),
            controller.oracle_extra_state())


def crash_and_recover(controller, monkeypatch, leaf_rebuild) -> dict:
    """Recover with ``leaf_rebuild`` as Osiris' leaf rebuild, logging
    the leaves it rebuilds like :class:`Recording` does."""
    def recording_leaf(*args):
        node = leaf_rebuild(*args)
        controller.rebuilt.append(node.snapshot())
        return node

    monkeypatch.setattr(osiris, "rebuild_leaf", recording_leaf)
    controller.crash()
    return controller.recover().to_json()


@pytest.mark.parametrize("variant,leaf_recovery", CASES,
                         ids=[f"{v}-{r}" for v, r in CASES])
@pytest.mark.parametrize("seed", SEEDS)
def test_batched_rebuilds_match_per_line(variant, leaf_recovery, seed,
                                         monkeypatch):
    batched = build(variant, leaf_recovery, per_line=False)
    ref = build(variant, leaf_recovery, per_line=True)
    rng = make_rng(seed, "recovery-reference", variant)
    for epoch in range(2):
        near = rng.integers(0, 1024, 150)
        far = rng.integers(0, 1 << 20, 150)
        for i, addr in enumerate([*near, *far]):
            for controller in (batched, ref):
                controller.write_data(int(addr), i + epoch)
        report = crash_and_recover(batched, monkeypatch,
                                   BATCHED_OSIRIS_LEAF)
        assert report == crash_and_recover(ref, monkeypatch,
                                           osiris_rebuild_leaf)
        assert batched.rebuilt == ref.rebuilt
        assert state(batched) == state(ref)
    # the comparison covers the rebuilds it exists for: leaves from
    # their data blocks, and inner nodes from their children
    levels = {snap[1] for snap in batched.rebuilt}
    if variant.startswith("steins") or variant == "star":
        assert {0, 1} <= levels
    elif variant in ("scue", "phoenix"):
        assert levels == {0}
