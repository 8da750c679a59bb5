"""The executable reference model of secure-NVM semantics.

Every scheme in this repo — whatever it does with trees, caches,
buffers, and trackers — must present the same *semantics* at the secure
controller boundary:

* **Data integrity** — ``read_data(a)`` returns exactly the value of the
  last accepted ``write_data(a, v)`` (zero if never written).
* **Counter monotonicity** — every accepted write advances the
  encryption counter stored with the block, so no one-time pad is ever
  reused (Sec. II-B: the confidentiality argument).
* **Durability / freshness** — a crash loses nothing accepted at this
  boundary under a healthy ADR, so the model has no crash step: recovery
  must reproduce the exact logical contents, and any tampering or replay
  between crash and recovery must surface as a detection error, never as
  silently wrong data.

This is the one record of what the controller accepted, shared by the
simulated machine (``SecureNVMSystem.model``: write-backs land here,
fills are checked against it) and the differential harness
(:mod:`repro.oracle.harness`, which numbers versions by its
``write_counts``).  It deliberately knows nothing about timing, caching,
integrity trees, or recovery protocols — it is a dict of logical block
contents plus per-block write counts, and that is the point: a shared
misconception baked into the simulator stack cannot also live here.
It imports nothing from the simulator (stdlib only), so its correctness
is auditable by reading this one file.
"""
from __future__ import annotations

from dataclasses import dataclass, field


class OracleViolation(Exception):
    """The observed behaviour contradicts the reference semantics."""


@dataclass
class ReferenceModel:
    """Logical secure-memory contents at the controller boundary.

    ``blocks`` maps block address -> last accepted plaintext;
    ``write_counts`` maps block address -> number of accepted writes;
    ``counters`` maps block address -> the last encryption counter the
    harness *observed* in the persisted data line (fed in via
    :meth:`observe_counter`, enforcing strict growth).
    """

    blocks: dict[int, int] = field(default_factory=dict)
    write_counts: dict[int, int] = field(default_factory=dict)
    counters: dict[int, int] = field(default_factory=dict)

    # ------------------------------------------------------- operations
    def write(self, addr: int, value: int) -> None:
        """A write was accepted by the controller: it is now the truth."""
        self.blocks[addr] = value
        self.write_counts[addr] = self.write_counts.get(addr, 0) + 1

    def read(self, addr: int) -> int:
        """The value a correct controller must return for ``addr``."""
        return self.blocks.get(addr, 0)

    def observe_counter(self, addr: int, counter: int) -> None:
        """An encryption counter was seen in the persisted line of
        ``addr``; it must strictly exceed every earlier observation
        (counter reuse = one-time-pad reuse)."""
        last = self.counters.get(addr)
        if last is not None and counter <= last:
            raise OracleViolation(
                f"encryption counter for block {addr} did not advance "
                f"({last} -> {counter}): one-time-pad reuse")
        self.counters[addr] = counter
