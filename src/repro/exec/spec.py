"""Cell specs and the content-addressed cache key.

One :class:`CellSpec` pins down everything a worker needs to reproduce
one simulation cell from scratch — no ambient state, no shared objects —
which is what makes cells safe to fan out over processes and safe to
cache by content.

Cache-key anatomy (see also ``docs/orchestration.md``)::

    sha256(canonical-JSON of {
        "spec": {kind, variant, workload, accesses, footprint_blocks,
                 seed, config, fault},
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
from dataclasses import dataclass, fields
from typing import Any

from repro.common.errors import ConfigError
from repro.common.records import Fields, strict_record

#: bump when result semantics change without a library version bump
#: (e.g. a metric definition or the trace derivation changes).
#: Schema 2: the "explore" cell kind joined and envelope kinds are
#: validated loudly on read.
#: Schema 3: one crash engine.  The "probe" and "fault" kinds are gone,
#: oracle clean/crash payloads are ``ExploreCaseResult``s under "case",
#: and the tightened post-recovery check can change a crash verdict.
#: Schema 4: one case result.  Oracle tamper and mutant payloads are
#: ``ExploreCaseResult``s under "case" too (their old "result" envelope
#: no longer decodes), and the one post-recovery check now flags a root
#: arity mismatch, which can change a crash verdict.
#: Schema 5: the ``check`` field left the spec (the system's fill check
#: is always on), so every spec encodes differently.  The "oracle" kind
#: left later without a bump: oracle cases are "explore" cells now, and
#: the kind is part of the key, so old oracle entries are never looked up.
#: Schema 6: a probe payload records its trace's length (``accesses``),
#: so a schema-5 probe no longer decodes.
#: Schema 7: one case runner.  A clean run that detects something with
#: no mutant planted is ``diverged`` (it was ``detected``), its detail
#: names the phase, and tamper cells are clean/case plans with an
#: ``attack`` (the "tamper" mode is gone).
#: A bump only changes keys *computed from now on* — older entries sit
#: at their old addresses, never looked up and never invalidated
#: retroactively.
CACHE_SCHEMA = 7

#: the cell kinds the executor knows how to run
KINDS = ("sim", "explore")

#: the exact encoding :meth:`CellSpec.from_json` accepts
_SPEC_FIELDS: Fields = {
    "kind": str, "variant": str, "workload": str, "accesses": int,
    "footprint_blocks": int, "seed": int, "config": (dict, type(None)),
    "fault": (dict, type(None)),
}


@dataclass(frozen=True)
class CellSpec:
    """One self-contained unit of sweep work.

    ``kind`` selects the worker routine:

    * ``"sim"``    — one (variant, workload) figure cell -> ``RunResult``
    * ``"explore"`` — one unit of the crash engine (a digest probe, or a
      clean run or crash candidate, either optionally under an attack
      or a mutant: every fault-campaign and oracle case) ->
      ``ExploreProbe`` / ``ExploreCaseResult``

    ``variant`` is a paper variant name for ``"sim"`` cells and a bare
    scheme name for ``"explore"`` cells.
    ``config`` is the full system configuration as produced by
    :func:`repro.exec.configio.config_to_dict` (``None`` means the
    default Table I configuration).  ``fault`` holds the plan of an
    explore cell (mode, crash fire, torn budget, attack/mutant name),
    which :func:`repro.explore.runner.decode_plan` checks strictly.
    """

    kind: str
    variant: str
    workload: str
    accesses: int
    footprint_blocks: int
    seed: int
    config: dict[str, Any] | None = None
    fault: dict[str, Any] | None = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ConfigError(
                f"unknown cell kind {self.kind!r}; pick one of {KINDS}")
        if self.kind == "explore" and self.fault is None:
            raise ConfigError("explore cells need a case plan")
        if self.kind == "sim" and self.fault is not None:
            raise ConfigError("sim cells cannot carry a crash plan")
        if self.accesses <= 0 or self.footprint_blocks <= 0:
            raise ConfigError("accesses and footprint must be positive")

    def to_json(self) -> dict[str, Any]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_json(cls, data: dict[str, Any]) -> "CellSpec":
        """Decode :meth:`to_json`'s encoding; anything else (a missing,
        extra or mistyped key) raises :class:`ConfigError`."""
        return cls(**strict_record(data, _SPEC_FIELDS, "cell spec"))


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
