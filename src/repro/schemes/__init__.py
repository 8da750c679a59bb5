"""repro.schemes — the scheme-plugin API.

``register_scheme(name, factory, capabilities)`` is the single wiring
point for a secure-memory scheme: the simulator, CLI, figure harness,
differential oracle, and crash-space explorer all enumerate schemes
from this registry.  Importing the package registers
the built-ins (see :mod:`repro.schemes.builtin`); the contract a plugin
must meet is documented in :mod:`repro.schemes.registry` and
``docs/schemes.md``.
"""
from repro.schemes.registry import (
    BASE_FAULT_POINTS,
    RECOVERY_STYLES,
    RegisteredScheme,
    SchemeCapabilities,
    controller_types,
    get_scheme,
    recoverable_scheme_names,
    register_scheme,
    registered_schemes,
    resolve_schemes,
    scheme_names,
    variant_table,
)

from repro.schemes import builtin as _builtin  # noqa: E402,F401  (registers built-ins)

__all__ = [
    "BASE_FAULT_POINTS",
    "RECOVERY_STYLES",
    "RegisteredScheme",
    "SchemeCapabilities",
    "controller_types",
    "get_scheme",
    "recoverable_scheme_names",
    "register_scheme",
    "registered_schemes",
    "resolve_schemes",
    "scheme_names",
    "variant_table",
]
