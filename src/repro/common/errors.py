"""Exception hierarchy for the secure-NVM reproduction.

Integrity violations are deliberately *raised*, never silently logged: the
paper's security analysis (Sec. III-H) is validated by tests asserting that
each attack class triggers the corresponding detection error.
"""
from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


class ConfigError(ReproError):
    """Invalid or inconsistent configuration values."""


class LayoutError(ReproError):
    """An address fell outside the region it was claimed to belong to."""


class CrashedError(ReproError):
    """An operation was attempted on a component that has crashed and has
    not been recovered yet."""


class IntegrityError(ReproError):
    """Base class for all integrity-verification failures."""


class TamperDetectedError(IntegrityError):
    """An HMAC mismatch: the covered content was modified without the key
    (tampering attack, detected per Sec. III-D)."""


class ReplayDetectedError(IntegrityError):
    """A replay attack: stale-but-authentic content was substituted and the
    monotonic trust base (root counter or L_k Inc) exposed it."""


class RecoveryError(ReproError):
    """Recovery could not complete (inconsistent records, missing nodes)."""


class CounterOverflowError(ReproError):
    """A counter exceeded its bit budget where the model treats overflow as
    an error (major counters; see the paper's overflow analysis)."""


class CrashInjected(ReproError):
    """A planned power failure fired at a ``repro.faults`` injection point.

    This is harness control flow, not a detection outcome, so it is
    deliberately *outside* the lint-guarded detection set
    (``IntegrityError``/``RecoveryError``): the crash engine catches it
    to simulate the crash without tripping the swallowed-detection rule.
    """

    def __init__(self, message: str, point: str = "") -> None:
        super().__init__(message)
        #: the injection-point name the crash fired at
        self.point = point
