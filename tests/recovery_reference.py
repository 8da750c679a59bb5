"""Per-line reference for the recovery rebuilds.

``SecureMemoryController.rebuild_leaf``/``rebuild_inner`` and
``repro.core.osiris.rebuild_leaf`` read a rebuilt node's contiguous run
of lines (a leaf's data blocks, an inner node's children) with one
``NVMDevice.peek_lines`` call and charge the run's reads at once.  They
replaced versions that peeked and charged one line at a time, walking
the geometry per line.  This module keeps those versions verbatim.
``PerLineRebuild`` is a mixin: put it in front of any controller class
(:func:`with_per_line_rebuild`) to get the same scheme on the per-line
rebuilds.  ``tests/test_recovery_reference.py`` requires the two to
rebuild the same nodes and report the same recovery.
"""
from __future__ import annotations

from repro.baselines.base import SecureMemoryController
from repro.baselines.report import RecoveryReport
from repro.common.errors import TamperDetectedError
from repro.core.osiris import recover_counter
from repro.counters import GeneralCounterBlock, SplitCounterBlock
from repro.crypto import cme
from repro.crypto.engine import HashEngine
from repro.integrity.geometry import TreeGeometry
from repro.integrity.node import SITNode
from repro.nvm.device import NVMDevice
from repro.nvm.layout import Region


class PerLineRebuild:
    """The per-line ``rebuild_leaf`` and ``rebuild_inner``."""

    def rebuild_leaf(self, leaf_index: int,
                     report: RecoveryReport) -> SITNode:
        engine, peek = self.engine, self.device.peek
        split = self._leaf_split
        counters = [0] * self.geometry.leaf_coverage
        major = 0
        for slot, addr in enumerate(self.geometry.leaf_data_blocks(
                leaf_index)):
            value = peek(Region.DATA, addr)
            report.read()
            if value is None:
                continue
            _, cipher, hmac, echo = value
            plaintext = cme.decrypt_block(engine, addr, echo, cipher)
            report.hash()
            if hmac != cme.data_hmac(engine, addr, echo, plaintext):
                raise TamperDetectedError(
                    f"data block {addr} failed HMAC verification during "
                    f"the {self.name} leaf rebuild")
            if split:
                counters[slot] = echo & 63
                major = max(major, echo >> 6)
            else:
                counters[slot] = echo
        block: GeneralCounterBlock | SplitCounterBlock = (
            SplitCounterBlock(major, counters, self._overflow_policy)
            if split else GeneralCounterBlock(counters))
        return SITNode(0, leaf_index, block)

    def rebuild_inner(self, level: int, index: int,
                      report: RecoveryReport) -> SITNode:
        g = self.geometry
        block = GeneralCounterBlock()
        for child_level, child_index in g.children(level, index):
            snap = self.device.peek(
                Region.TREE, g.node_offset(child_level, child_index))
            report.read()
            if snap is None:
                continue
            child = SITNode.from_snapshot(snap)
            counter = self._child_seal_counter(child, snap)
            report.hash()
            if not child.hmac_matches(self.engine, counter):
                raise TamperDetectedError(
                    f"child ({child_level},{child_index}) failed HMAC "
                    f"verification during the {self.name} rebuild")
            block.set_counter(g.parent_slot(child_level, child_index),
                              counter)
        return SITNode(level, index, block)


def osiris_rebuild_leaf(engine: HashEngine, geometry: TreeGeometry,
                        device: NVMDevice, leaf_index: int,
                        stale_leaf: SITNode, stop_loss: int,
                        report: RecoveryReport) -> SITNode:
    """The per-line ``repro.core.osiris.rebuild_leaf``."""
    block = GeneralCounterBlock()
    for addr in geometry.leaf_data_blocks(leaf_index):
        value = device.peek(Region.DATA, addr)
        report.read()
        slot = geometry.leaf_slot_for_block(addr)
        if value is None:
            continue  # never written: counter stays 0
        stale_counter = stale_leaf.counter(slot)
        block.set_counter(slot, recover_counter(
            engine, addr, value, stale_counter, stop_loss, report))
    return SITNode(0, leaf_index, block)


def with_per_line_rebuild(cls: type[SecureMemoryController]
                          ) -> type[SecureMemoryController]:
    """``cls`` on the per-line rebuilds."""
    return type(f"PerLine{cls.__name__}", (PerLineRebuild, cls), {})
