"""Recovery reports shared by every recoverable scheme.

Recovery cost is dominated by fetching metadata from NVM; following the
paper's methodology (Sec. IV-D) each metadata read-and-verify is charged
100 ns, and the report derives the recovery time from the access counts
the functional recovery actually performed — so the measured recovery
and the analytic model of ``repro.analysis.recovery_model`` can be
cross-checked against each other.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import ReplayDetectedError, TamperDetectedError

#: paper Sec. IV-D: "reading and verifying metadata from NVM consume 100ns"
READ_VERIFY_NS: float = 100.0


@dataclass
class RecoveryReport:
    """What one recovery run did and how long it took."""

    #: Every ``detail`` counter a recovery path may bump, declared up
    #: front so the stats-hygiene lint (SL301) and :meth:`bump` reject
    #: typo'd keys instead of silently forking an unread counter.
    KNOWN_KEYS = frozenset({
        "buffer_replays",
        "osiris_trials",
        "record_lines",
        "reinstalled",
        "shadow_entries",
    })

    scheme: str
    nvm_reads: int = 0
    nvm_writes: int = 0
    hashes: int = 0
    nodes_recovered: int = 0
    detail: dict[str, int] = field(default_factory=dict)

    def read(self, n: int = 1) -> None:
        self.nvm_reads += n

    def write(self, n: int = 1) -> None:
        self.nvm_writes += n

    def hash(self, n: int = 1) -> None:
        self.hashes += n

    def bump(self, key: str, n: int = 1) -> None:
        if key not in self.KNOWN_KEYS:
            raise ValueError(
                f"undeclared recovery detail key {key!r}; declare it in "
                "RecoveryReport.KNOWN_KEYS so reports stay exhaustive")
        self.detail[key] = self.detail.get(key, 0) + n

    @property
    def time_ns(self) -> float:
        """Recovery time under the paper's 100 ns read-and-verify cost."""
        return self.nvm_reads * READ_VERIFY_NS

    @property
    def time_s(self) -> float:
        return self.time_ns / 1e9

    def as_dict(self) -> dict[str, object]:
        return {
            "scheme": self.scheme,
            "nvm_reads": self.nvm_reads,
            "nvm_writes": self.nvm_writes,
            "hashes": self.hashes,
            "nodes_recovered": self.nodes_recovered,
            "time_s": self.time_s,
            **self.detail,
        }

    # --------------------------------------------------- serialization
    def to_json(self) -> dict[str, object]:
        """Lossless JSON form (``as_dict`` flattens ``detail`` and adds
        derived fields; this one round-trips through :meth:`from_json`).
        """
        return {
            "scheme": self.scheme,
            "nvm_reads": self.nvm_reads,
            "nvm_writes": self.nvm_writes,
            "hashes": self.hashes,
            "nodes_recovered": self.nodes_recovered,
            "detail": dict(self.detail),
        }

    @classmethod
    def from_json(cls, data: dict[str, object]) -> "RecoveryReport":
        report = cls(**data)  # type: ignore[arg-type]
        unknown = set(report.detail) - cls.KNOWN_KEYS
        if unknown:
            raise ValueError(
                f"undeclared recovery detail keys {sorted(unknown)} in "
                "serialized report; declare them in KNOWN_KEYS")
        return report


def check_sum(what: str, total: int, stored: int) -> None:
    """Compare a counter sum recomputed during recovery with the durable
    register ``what`` (named with its scheme) that accumulated it at
    runtime.  Counters only grow, so replaying old data or nodes can
    only lower the recomputed sum: a low sum is a replay, a high one
    forged state."""
    if total < stored:
        raise ReplayDetectedError(
            f"{what} mismatch: recomputed {total} < stored {stored} — "
            "replayed state detected")
    if total > stored:
        raise TamperDetectedError(
            f"{what} mismatch: recomputed {total} > stored {stored}")
