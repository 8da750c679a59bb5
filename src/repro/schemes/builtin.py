"""Registration of the built-in schemes.

Importing this module (which ``repro.schemes`` does on package import)
populates the registry with the paper's scheme (Steins), the three
baselines it compares against (WB, ASIT, STAR), the excluded comparator
(SCUE), and the two PAPERS.md designs landed behind the plugin API
(Phoenix, SecPM).

Registration order is load-bearing for presentation only: it fixes the
ordering of ``repro.sim.runner.VARIANTS`` (and therefore of the
``examples/scheme_comparison.py`` and ``repro figure zoo`` columns),
matching the paper's WB/ASIT/STAR/SCUE/Steins sequence with the plugin
schemes appended.
"""
from __future__ import annotations

from repro.baselines.asit import ASITController
from repro.baselines.scue import SCUEController
from repro.baselines.star import STARController
from repro.baselines.wb import WBController
from repro.common.config import CounterMode
from repro.core.controller import SteinsController
from repro.faults.registry import POINT_RECOVERY
from repro.schemes.phoenix import PhoenixController
from repro.schemes.registry import SchemeCapabilities, register_scheme
from repro.schemes.secpm import SecPMController

_GC = CounterMode.GENERAL
_SC = CounterMode.SPLIT

register_scheme("wb", WBController, SchemeCapabilities(
    counter_modes=(_GC, _SC),
    recovery="none",
    variants=(("wb-gc", _GC), ("wb-sc", _SC)),
))

register_scheme("asit", ASITController, SchemeCapabilities(
    counter_modes=(_GC,),
    recovery="shadow-table",
    fault_points=(POINT_RECOVERY,),
    stats_keys=("shadow_writes", "cache_tree_updates"),
    variants=(("asit", _GC),),
))

register_scheme("star", STARController, SchemeCapabilities(
    counter_modes=(_GC,),
    recovery="bitmap-echo",
    fault_points=(POINT_RECOVERY,),
    stats_keys=("bitmap_writes", "set_mac_updates"),
    variants=(("star", _GC),),
))

register_scheme("scue", SCUEController, SchemeCapabilities(
    counter_modes=(_GC,),
    recovery="whole-tree-rebuild",
    fault_points=(POINT_RECOVERY,),
    variants=(("scue", _GC),),
))

register_scheme("steins", SteinsController, SchemeCapabilities(
    counter_modes=(_GC, _SC),
    recovery="nv-buffer-replay",
    fault_points=("steins.drain", POINT_RECOVERY),
    stats_keys=("buffer_drains", "buffered_parent_updates",
                "osiris_stop_loss_writes"),
    variants=(("steins-gc", _GC), ("steins-sc", _SC)),
))

register_scheme("phoenix", PhoenixController, SchemeCapabilities(
    counter_modes=(_GC,),
    recovery="subtree-rebuild",
    fault_points=(POINT_RECOVERY,),
    variants=(("phoenix", _GC),),
))

register_scheme("secpm", SecPMController, SchemeCapabilities(
    counter_modes=(_GC,),
    recovery="leaf-writethrough",
    fault_points=(POINT_RECOVERY,),
    stats_keys=("counter_writethroughs", "merged_counter_writes"),
    variants=(("secpm", _GC),),
))
