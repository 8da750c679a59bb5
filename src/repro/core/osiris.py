"""Osiris-style leaf counter recovery (paper Sec. V).

The paper notes: "Steins can also leverage Osiris to recover the stale
leaf nodes and then verify them using L0Inc."  Osiris (MICRO'18) bounds
the drift between a cached counter and its persisted copy with a
*stop-loss* write-back: after at most N increments the counter block is
persisted, so recovery only needs to try candidate counters in
``[stale, stale + N]`` and pick the one whose decrypted data verifies
against the stored HMAC — no counter echo is needed in the data line.

Trade-off versus the default echo scheme:

* runtime  — extra leaf write-backs, one per N data writes to a leaf
  (the stop-loss cost),
* recovery — up to N+1 decrypt+HMAC trials per covered block instead of
  one (compute, not extra NVM reads).

Both sides are modelled and exposed by the
``bench_ablation_leaf_recovery`` benchmark.  Osiris operates on
per-block counters, so this mode supports the general counter layout
(Steins-GC); split leaves embed their major in the data HMAC instead
(Sec. II-D), which the default echo scheme models.
"""
from __future__ import annotations

from repro.baselines.report import RecoveryReport
from repro.common.errors import TamperDetectedError
from repro.counters import GeneralCounterBlock
from repro.crypto import cme
from repro.crypto.engine import HashEngine
from repro.integrity.geometry import TreeGeometry
from repro.integrity.node import SITNode
from repro.nvm.device import NVMDevice
from repro.nvm.layout import Region


def recover_counter(engine: HashEngine, block_addr: int, value: tuple,
                    stale_counter: int, stop_loss: int,
                    report: RecoveryReport) -> int:
    """Find the write counter of one data block by trial decryption.

    Tries ``stale_counter .. stale_counter + stop_loss`` (the Osiris
    window) and returns the first candidate whose decrypted plaintext
    matches the stored HMAC.  Raises if none verifies — either the data
    was tampered with or the stop-loss invariant was violated.
    """
    _, cipher, hmac, _echo = value
    for candidate in range(stale_counter, stale_counter + stop_loss + 1):
        plaintext = cme.decrypt_block(engine, block_addr, candidate, cipher)
        report.hash()
        report.bump("osiris_trials")
        if hmac == cme.data_hmac(engine, block_addr, candidate, plaintext):
            return candidate
    raise TamperDetectedError(
        f"no counter in [{stale_counter}, {stale_counter + stop_loss}] "
        f"verifies data block {block_addr}: tampered data or stop-loss "
        "violation")


def rebuild_leaf(engine: HashEngine, geometry: TreeGeometry,
                 device: NVMDevice, leaf_index: int,
                 stale_leaf: SITNode, stop_loss: int,
                 report: RecoveryReport) -> SITNode:
    """Regenerate a general-counter leaf via Osiris trial decryption.

    The stale persisted leaf provides the search base per slot; each
    covered data block is read once (same NVM cost as the echo scheme)
    and its counter found within the stop-loss window.
    """
    block = GeneralCounterBlock()
    blocks = geometry.leaf_data_blocks(leaf_index)
    values = device.peek_lines(Region.DATA, blocks.start, blocks.stop)
    report.read(len(values))
    for slot, value in enumerate(values):
        if value is None:
            continue  # never written: counter stays 0
        block.set_counter(slot, recover_counter(
            engine, blocks.start + slot, value, stale_leaf.counter(slot),
            stop_loss, report))
    return SITNode(0, leaf_index, block)
