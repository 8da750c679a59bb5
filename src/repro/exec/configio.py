"""Lossless JSON encoding of :class:`~repro.common.config.SystemConfig`.

The cache key must cover *every* parameter that can change a result, so
a cell spec carries the full configuration — not a diff against an
implicit default that silently shifts between versions.  The encoding is
a plain nested dict (enums by value), decodable back through each
dataclass constructor so ``__post_init__`` validation re-runs on load.
Decoding is strict: every field is required and exactly typed, and any
mismatch raises :class:`~repro.common.errors.ConfigError`.
"""
from __future__ import annotations

import dataclasses
import enum
import typing
from typing import Any

from repro.common.config import SystemConfig
from repro.common.errors import ConfigError


def config_to_dict(cfg: SystemConfig) -> dict[str, Any]:
    """Encode a config as a JSON-serializable nested dict."""
    return _encode(cfg)


def config_from_dict(data: dict[str, Any]) -> SystemConfig:
    """Rebuild a :class:`SystemConfig`, re-running all validation; a
    missing, unknown or mistyped field raises :class:`ConfigError`."""
    return _decode(SystemConfig, data)


def _encode(value: Any) -> Any:
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: _encode(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    raise ConfigError(
        f"cannot encode config value of type {type(value).__name__}")


# Resolved annotations per dataclass: get_type_hints re-compiles every
# stringified annotation (PEP 563) on each call, which dominates decode
# time in sweeps that rebuild configs per cell.  Hints are import-time
# constants, so one resolution per class is lossless.
_HINTS: dict[type, dict[str, Any]] = {}


def _class_hints(cls: type) -> dict[str, Any]:
    hints = _HINTS.get(cls)
    if hints is None:
        hints = typing.get_type_hints(cls)
        _HINTS[cls] = hints
    return hints


def _decode(cls: type, data: Any) -> Any:
    if not isinstance(data, dict):
        raise ConfigError(
            f"expected a dict for {cls.__name__}, got {type(data).__name__}")
    hints = _class_hints(cls)
    names = [f.name for f in dataclasses.fields(cls)]
    unknown = sorted(set(data) - set(names))
    missing = [name for name in names if name not in data]
    if unknown or missing:
        raise ConfigError(f"{cls.__name__} fields: unknown {unknown}, "
                          f"missing {missing}")
    return cls(**{name: _decode_value(hints[name], data[name],
                                      f"{cls.__name__}.{name}")
                  for name in names})


def _decode_value(target: Any, value: Any, where: str) -> Any:
    """One field, exactly typed: ``bool`` is not an ``int``, a ``float``
    field also takes an ``int``, an enum takes one of its values."""
    if dataclasses.is_dataclass(target):
        return _decode(target, value)
    if issubclass(target, enum.Enum):
        try:
            return target(value)
        except (TypeError, ValueError):
            raise ConfigError(
                f"{where}: {value!r} is not one of "
                f"{[m.value for m in target]}") from None
    allowed = (int, float) if target is float else (target,)
    if type(value) not in allowed:
        raise ConfigError(f"{where} must be {target.__name__}, got "
                          f"{type(value).__name__} {value!r}")
    return value
