"""Strict decoding of the JSON records that cross process, cache and
socket boundaries: exactly the declared keys, each of exactly a declared
type (``bool`` is not an ``int``), or :class:`ConfigError`."""
from __future__ import annotations

from typing import Any

from repro.common.errors import ConfigError

#: {key: its type, or a tuple of the types it may hold}
Fields = dict[str, type | tuple[type, ...]]


def strict_record(data: Any, fields: Fields, what: str) -> dict[str, Any]:
    """``data`` itself, once it is a dict with exactly ``fields``' keys
    and every value of exactly a declared type."""
    if type(data) is not dict:
        raise ConfigError(
            f"{what} must be a JSON object, got {type(data).__name__}")
    if data.keys() != fields.keys():
        missing = sorted(fields.keys() - data.keys())
        unknown = sorted(data.keys() - fields.keys(), key=repr)
        raise ConfigError(
            f"{what}: missing keys {missing}, unknown keys {unknown}")
    for key, types in fields.items():
        allowed = types if isinstance(types, tuple) else (types,)
        if type(data[key]) not in allowed:
            raise ConfigError(
                f"{what} field {key!r} must be "
                f"{' or '.join(t.__name__ for t in allowed)}, "
                f"got {type(data[key]).__name__}")
    return data
