"""A comparable snapshot of the state a recovery touches.

The idempotence property tests (``tests/test_recovery_baselines.py``,
``tests/test_prop_steins.py``) crash and recover a system repeatedly
and require the recovered state to reach a bit-identical fixed point.
:func:`controller_fingerprint` is the state they compare.
"""
from __future__ import annotations

from repro.sim.system import SecureNVMSystem


def controller_fingerprint(system: SecureNVMSystem) -> tuple:
    """NVM contents, cache residency (with ways) and registers; stats
    and timing excluded."""
    c = system.controller
    device = tuple(sorted(
        ((region.value, idx), value)
        for (region, idx), value in system.device.lines().items()))
    cache = tuple(sorted(
        (offset, c.metacache.way_of(offset), node.snapshot(), dirty)
        for offset, node, dirty in c.metacache.entries()))
    extras: list[tuple] = []
    lincs = getattr(c, "lincs", None)
    if lincs is not None:
        extras.append(("lincs", tuple(lincs.values())))
    nv_buffer = getattr(c, "nv_buffer", None)
    if nv_buffer is not None:
        extras.append(("nv_buffer", tuple(
            (u.child_level, u.child_index, u.generated_counter)
            for u in nv_buffer.entries)))
    recovery_root = getattr(c, "recovery_root", None)
    if recovery_root is not None:
        extras.append(("recovery_root", recovery_root.value))
    cache_tree = getattr(c, "cache_tree", None)
    if cache_tree is not None:
        extras.append(("cache_tree_root", cache_tree.root))
    return (device, cache, c.root.snapshot(), tuple(extras))
