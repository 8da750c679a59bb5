"""Crash-point state digests: the explorer's DPOR-style pruning key.

Two crash candidates are *equivalent* — guaranteed to produce
byte-identical case results under every plan variant — when they agree
on everything that can influence the world after the power fails:

* the durable machine state a crash preserves (NVM line contents, the
  write-pending queue, the on-chip root register, each scheme's declared
  non-volatile extras, and the ADR-resident record-line cache that the
  residual-power flush persists),
* the dirty-cached-node snapshot, which is volatile but feeds the
  post-recovery check (:func:`repro.sim.crash.recovery_divergences`
  compares the recovered state against it), and
* the resume position in the trace (compared by the planner, not hashed
  here: two fires in different accesses replay different suffixes).

Deliberately *excluded*: clean cache residency, LRU/way state, and the
in-flight register state suppressed by atomic windows — all of it is
destroyed by the crash before it can influence recovery, the golden
check, or the resumed run (which restarts from the recovered state with
an empty hierarchy).  Excluding it is what lets multiple fires inside
one access collapse into one explored representative; the full
soundness argument lives in ``docs/crash_exploration.md``.
"""
from __future__ import annotations

import hashlib
from array import array
from itertools import compress
from operator import is_not
from typing import TYPE_CHECKING, Any

from repro.nvm.layout import Region

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.sim.system import SecureNVMSystem

#: queued writes are encoded as ``index * 8 + region code``
_REGION_CODE = {region: code for code, region in enumerate(Region)}


def _item_hash(item: object) -> int:
    return int.from_bytes(hashlib.sha256(repr(item).encode()).digest()[:16],
                          "big")


class DurableDigest:
    """Hash of the crash-relevant state of one live machine, taken at
    every fire of a probe run.

    Built from public accessors only; every component is a tuple of
    ints/strings, so ``repr`` is a canonical, process-independent
    encoding.  Between two fires only a few NVM lines and dirty nodes
    change, so those two sets enter as sums of per-item hashes (order
    does not matter) and only changed items are hashed again: a line
    whose value is a new object (values are immutable), a node whose
    snapshot differs from the last call's.
    """

    def __init__(self, system: "SecureNVMSystem") -> None:
        self.system = system
        self._keys: list[Any] = []
        self._values: list[Any] = []
        self._line_hash: dict[Any, int] = {}
        self._line_sum = 0
        self._nodes: dict[int, tuple[Any, int]] = {}  #: offset -> (snap, hash)

    def _lines(self) -> int:
        lines = self.system.device.lines()
        keys, values = list(lines), list(lines.values())
        known = len(self._keys)
        if keys[:known] != self._keys:  # a line vanished: start over
            known, self._values, self._line_hash, self._line_sum = 0, [], {}, 0
        # lines keep their insertion order: the known ones line up with
        # the last call's values, new ones follow
        changed = [] if values[:known] == self._values else list(
            compress(keys, map(is_not, values, self._values)))
        for key in changed + keys[known:]:
            h = _item_hash(((key[0].value, key[1]), lines[key]))
            self._line_sum += h - self._line_hash.get(key, 0)
            self._line_hash[key] = h
        self._keys, self._values = keys, values
        return self._line_sum

    def __call__(self) -> str:
        c = self.system.controller
        known = self._nodes
        nodes: dict[int, tuple[Any, int]] = {}
        for offset, node, dirty in c.metacache.entries():
            if dirty:
                snap = node.snapshot()
                last = known.get(offset)
                nodes[offset] = last if last is not None and last[0] == snap \
                    else (snap, _item_hash((offset, snap)))
        self._nodes = nodes
        tracker = getattr(c, "tracker", None)
        wpq = array("q", [index * 8 + _REGION_CODE[region] for region, index
                          in self.system.device.wpq_snapshot()])
        parts = (
            # the TREE region, which the oracle snapshots apart, is a
            # subset of the lines
            self._lines(),
            wpq.tobytes(),
            tuple(c.root.snapshot()),
            sum(h for _, h in nodes.values()),
            tuple(sorted(c.oracle_extra_state().items())),
            tracker.snapshot() if tracker is not None else (),
        )
        return hashlib.sha256(repr(parts).encode()).hexdigest()
