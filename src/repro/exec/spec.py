"""Cell specs and the content-addressed cache key.

One :class:`CellSpec` pins down everything a worker needs to reproduce
one simulation cell from scratch — no ambient state, no shared objects —
which is what makes cells safe to fan out over processes and safe to
cache by content.

Cache-key anatomy (see also ``docs/orchestration.md``)::

    sha256(canonical-JSON of {
        "spec": {kind, variant, workload, accesses, footprint_blocks,
                 seed, check, config, fault},
        "code": "<library version>/<cache schema>",
    })

Any change to a knob that can change the result — a config field, the
seed, the trace length, the crash plan, or the code-version tag — yields
a different key, so stale entries are simply never looked up.

Observability (``repro.obs``) is deliberately *absent* from the spec
and therefore from the key: a tracer is an observer that never changes
a result, so cached untraced results stay valid for traced reruns and
vice versa (pinned by ``tests/test_obs.py``).
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any

from repro.common.errors import ConfigError

#: bump when result semantics change without a library version bump
#: (e.g. a metric definition or the trace derivation changes).
#: Schema 2: the "explore" cell kind joined and envelope kinds are
#: validated loudly on read.
#: Schema 3: one crash engine.  The "probe" and "fault" kinds are gone,
#: oracle clean/crash payloads are ``ExploreCaseResult``s under "case",
#: and the tightened post-recovery check can change a crash verdict.
#: A bump only changes keys *computed from now on* — older entries sit
#: at their old addresses, never looked up and never invalidated
#: retroactively.
CACHE_SCHEMA = 3

#: the cell kinds the executor knows how to run
KINDS = ("sim", "oracle", "explore")

#: kinds whose cells are parameterized by a case plan dict
_PLAN_KINDS = ("oracle", "explore")


@dataclass(frozen=True)
class CellSpec:
    """One self-contained unit of sweep work.

    ``kind`` selects the worker routine:

    * ``"sim"``    — one (variant, workload) figure cell -> ``RunResult``
    * ``"oracle"`` — one differential-oracle case: clean and crash
      cells -> ``ExploreCaseResult`` (run on the crash engine), tamper
      and mutant cells -> ``OracleCaseResult``
    * ``"explore"`` — one unit of the crash engine (digest probe or
      crash candidate, including every fault-campaign probe and case)
      -> ``ExploreProbe`` / ``ExploreCaseResult``

    ``variant`` is a paper variant name for ``"sim"`` cells and a bare
    scheme name for every other kind.
    ``config`` is the full system configuration as produced by
    :func:`repro.exec.configio.config_to_dict` (``None`` means the
    default Table I configuration).  ``fault`` holds the case plan
    (mode, crash fire, torn budget, attack/mutant name) of an oracle
    or explore cell.
    """

    kind: str
    variant: str
    workload: str
    accesses: int
    footprint_blocks: int
    seed: int
    check: bool = True
    config: dict[str, Any] | None = None
    fault: dict[str, Any] | None = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ConfigError(
                f"unknown cell kind {self.kind!r}; pick one of {KINDS}")
        if self.kind in _PLAN_KINDS and self.fault is None:
            raise ConfigError(f"{self.kind} cells need a case plan")
        if self.kind not in _PLAN_KINDS and self.fault is not None:
            raise ConfigError(f"{self.kind} cells cannot carry a crash plan")
        if self.accesses <= 0 or self.footprint_blocks <= 0:
            raise ConfigError("accesses and footprint must be positive")

    def to_json(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "variant": self.variant,
            "workload": self.workload,
            "accesses": self.accesses,
            "footprint_blocks": self.footprint_blocks,
            "seed": self.seed,
            "check": self.check,
            "config": self.config,
            "fault": self.fault,
        }

    @classmethod
    def from_json(cls, data: dict[str, Any]) -> "CellSpec":
        return cls(**data)


def code_version_tag() -> str:
    """The default ``code`` component of the cache key."""
    from repro import __version__

    return f"{__version__}/{CACHE_SCHEMA}"


def cell_key(spec: CellSpec, code_version: str | None = None) -> str:
    """Stable content hash of one cell: the cache address."""
    if code_version is None:
        code_version = code_version_tag()
    blob = json.dumps({"spec": spec.to_json(), "code": code_version},
                      sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
