"""The scheme-plugin registry: the one place a scheme is wired in.

A *scheme* is a :class:`~repro.baselines.base.SecureMemoryController`
subclass plus a :class:`SchemeCapabilities` declaration.  Registering it
via :func:`register_scheme` makes it appear everywhere at once — the
simulator (``repro.sim``), the CLI, the figure harness, the
differential oracle sweep, and the crash-space explorer all enumerate
schemes from here instead of keeping hardcoded lists.

Registration is also where the controller-boundary contract is checked
*dynamically* (simlint SL403/SL701/SL1001 are the static half):

* the factory subclasses ``SecureMemoryController`` and its ``name``
  matches the registered name;
* ``_oracle_extra_state`` is defined by the scheme's own code (not
  inherited from the shared base), so its durable trust base is a
  *stated* answer the oracle can compare across crashes;
* a recovery-capable scheme overrides ``recover()`` and declares the
  ``recovery.step`` fault point; a non-recovering scheme does neither;
* every declared fault point exists in
  :data:`repro.faults.registry.INJECTION_POINTS`, and every declared
  stats key in ``ControllerStats.KNOWN_KEYS``;
* every figure variant uses a declared counter mode, and variant names
  are globally unique.

See ``docs/schemes.md`` for the full plugin contract and the
adding-a-scheme checklist.
"""
from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.base import ControllerStats, SecureMemoryController
from repro.common.config import CounterMode
from repro.common.errors import ConfigError
from repro.faults.registry import INJECTION_POINTS, POINT_RECOVERY

#: the recovery-style vocabulary (capability flag, not dispatch): how a
#: scheme turns durable state back into a verifiable tree
RECOVERY_STYLES = frozenset({
    "none",                 # no recovery path (WB)
    "shadow-table",         # restore dirty nodes from a shadow region
    "bitmap-echo",          # bitmap-guided restore from counter echoes
    "nv-buffer-replay",     # replay an NV parent-update buffer (Steins)
    "whole-tree-rebuild",   # re-sum everything from data echoes (SCUE)
    "subtree-rebuild",      # re-sum only stale subtrees (Phoenix)
    "leaf-writethrough",    # leaves always durable; re-sum uppers (SecPM)
})

#: injection points every controller exercises through the shared base
#: and the metadata cache; schemes declare only their *additional* ones
BASE_FAULT_POINTS: tuple[str, ...] = (
    "controller.write", "controller.read", "controller.evict",
    "controller.flush", "metacache.evict",
)


@dataclass(frozen=True)
class SchemeCapabilities:
    """What a scheme supports and exposes, declared at registration."""

    #: leaf counter layouts the scheme is conformance-tested under
    counter_modes: tuple[CounterMode, ...]
    #: one of :data:`RECOVERY_STYLES`
    recovery: str
    #: injection points beyond :data:`BASE_FAULT_POINTS` the scheme fires
    fault_points: tuple[str, ...] = ()
    #: ``ControllerStats.extra`` keys the scheme bumps
    stats_keys: tuple[str, ...] = ()
    #: figure-harness variants: (variant name, counter mode) pairs
    variants: tuple[tuple[str, CounterMode], ...] = ()


@dataclass(frozen=True)
class RegisteredScheme:
    """One registry entry."""

    name: str
    factory: type[SecureMemoryController]
    capabilities: SchemeCapabilities

    @property
    def supports_recovery(self) -> bool:
        return self.factory.supports_recovery


_REGISTRY: dict[str, RegisteredScheme] = {}


def _defined_by_scheme(factory: type, attr: str) -> bool:
    """True when ``attr`` is defined somewhere below the shared bases."""
    from repro.baselines.generated import GeneratedCounterController

    shared = (SecureMemoryController, GeneratedCounterController)
    return any(attr in vars(cls) for cls in factory.__mro__
               if cls not in shared)


def register_scheme(name: str, factory: type[SecureMemoryController],
                    capabilities: SchemeCapabilities) -> RegisteredScheme:
    """Validate the plugin contract and add the scheme to the registry."""
    if not name or not isinstance(name, str):
        raise ConfigError("scheme name must be a non-empty string")
    if name in _REGISTRY:
        raise ConfigError(f"scheme {name!r} is already registered")
    if not (isinstance(factory, type)
            and issubclass(factory, SecureMemoryController)
            and factory is not SecureMemoryController):
        raise ConfigError(
            f"scheme {name!r}: factory must subclass SecureMemoryController")
    if factory.name != name:
        raise ConfigError(
            f"scheme {name!r}: factory {factory.__name__} calls itself "
            f"{factory.name!r}; the two must match")
    if not _defined_by_scheme(factory, "_oracle_extra_state"):
        raise ConfigError(
            f"scheme {name!r}: {factory.__name__} must define "
            "_oracle_extra_state itself (SL701) so its durable trust "
            "base is visible to the differential oracle")
    caps = capabilities
    if caps.recovery not in RECOVERY_STYLES:
        raise ConfigError(
            f"scheme {name!r}: unknown recovery style {caps.recovery!r}; "
            f"pick one of {sorted(RECOVERY_STYLES)}")
    if (caps.recovery == "none") == bool(factory.supports_recovery):
        raise ConfigError(
            f"scheme {name!r}: recovery style {caps.recovery!r} "
            f"contradicts supports_recovery={factory.supports_recovery}")
    if factory.supports_recovery:
        if not _defined_by_scheme(factory, "recover"):
            raise ConfigError(
                f"scheme {name!r}: supports_recovery=True but recover() "
                "is not overridden")
        if POINT_RECOVERY not in caps.fault_points:
            raise ConfigError(
                f"scheme {name!r}: recovery-capable schemes must declare "
                f"the {POINT_RECOVERY!r} fault point (crash-during-"
                "recovery coverage is part of the contract)")
    unknown_points = [p for p in caps.fault_points
                      if p not in INJECTION_POINTS]
    if unknown_points:
        raise ConfigError(
            f"scheme {name!r}: undeclared injection points "
            f"{unknown_points}; see repro.faults.registry.INJECTION_POINTS")
    redundant = [p for p in caps.fault_points if p in BASE_FAULT_POINTS]
    if redundant:
        raise ConfigError(
            f"scheme {name!r}: {redundant} are base fault points; declare "
            "only scheme-specific ones")
    unknown_stats = [k for k in caps.stats_keys
                     if k not in ControllerStats.KNOWN_KEYS]
    if unknown_stats:
        raise ConfigError(
            f"scheme {name!r}: undeclared stats keys {unknown_stats}; "
            "declare them in ControllerStats.KNOWN_KEYS first")
    if not caps.counter_modes:
        raise ConfigError(f"scheme {name!r}: declare at least one "
                          "counter mode")
    if not caps.variants:
        raise ConfigError(
            f"scheme {name!r}: declare at least one figure variant")
    taken = {v for entry in _REGISTRY.values()
             for v, _ in entry.capabilities.variants}
    for variant, mode in caps.variants:
        if mode not in caps.counter_modes:
            raise ConfigError(
                f"scheme {name!r}: variant {variant!r} uses counter mode "
                f"{mode} outside the declared {caps.counter_modes}")
        if variant in taken:
            raise ConfigError(
                f"scheme {name!r}: variant name {variant!r} is already "
                "used by another scheme")
        taken.add(variant)
    entry = RegisteredScheme(name=name, factory=factory,
                             capabilities=caps)
    _REGISTRY[name] = entry
    return entry


# -------------------------------------------------------------- queries
def get_scheme(name: str) -> RegisteredScheme:
    entry = _REGISTRY.get(name)
    if entry is None:
        raise ConfigError(
            f"unknown scheme {name!r}; registered schemes: "
            f"{', '.join(sorted(_REGISTRY))}")
    return entry


def registered_schemes() -> tuple[RegisteredScheme, ...]:
    """All entries, in registration order."""
    return tuple(_REGISTRY.values())


def scheme_names() -> tuple[str, ...]:
    """All registered names, in registration order."""
    return tuple(_REGISTRY)


def recoverable_scheme_names() -> tuple[str, ...]:
    return tuple(name for name, entry in _REGISTRY.items()
                 if entry.supports_recovery)


def resolve_schemes(names: "list[str] | tuple[str, ...] | None" = None,
                    recoverable_only: bool = False) -> list[str]:
    """Validate a user-supplied scheme selection against the registry.

    ``None`` selects every registered scheme (recovery-capable ones only
    when ``recoverable_only``), sorted — the historical default of the
    oracle sweep and the explorer.  Explicit names keep their order
    (first occurrence wins) and raise :class:`ConfigError` with the
    registered names on a miss.
    """
    if names is None:
        return sorted(name for name, entry in _REGISTRY.items()
                      if entry.supports_recovery or not recoverable_only)
    out: list[str] = []
    for name in names:
        entry = get_scheme(name)
        if recoverable_only and not entry.supports_recovery:
            raise ConfigError(
                f"scheme {name!r} does not support recovery; recoverable "
                f"schemes: {', '.join(sorted(recoverable_scheme_names()))}")
        if name not in out:
            out.append(name)
    return out


def controller_types() -> dict[str, type[SecureMemoryController]]:
    """{name: controller class} in registration order (``sim.SCHEMES``)."""
    return {name: entry.factory for name, entry in _REGISTRY.items()}


def variant_table() -> dict[str, tuple[str, CounterMode]]:
    """{variant: (scheme, counter mode)} in registration/declaration
    order (``repro.sim.runner.VARIANTS``)."""
    table: dict[str, tuple[str, CounterMode]] = {}
    for name, entry in _REGISTRY.items():
        for variant, mode in entry.capabilities.variants:
            table[variant] = (name, mode)
    return table
