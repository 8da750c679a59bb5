"""STAR — SIT trace-and-recovery scheme (Huang & Hua, HPCA'21), as
modelled by the paper (Sec. II-D, IV).

Three mechanisms, each with its modelled cost:

* **Parent-counter echo in children.**  When a node is sealed and
  persisted, the parent counter it was sealed under is embedded in the
  persisted line (physically: the counter's LSBs packed into spare
  bits — modelled as the full value, which is equivalent as long as the
  parent advanced by less than the LSB range between persists).  Zero
  runtime cost; recovery rebuilds a lost parent from its children's
  echoes.
* **Multi-layer dirty bitmap.**  One bit per metadata-region node, with
  upper layers summarizing lower lines.  Updated (write-through to NVM,
  so it survives crashes) on every clean<->dirty transition — the extra
  memory traffic that puts STAR at ~1.3x WB (Fig. 13).
* **Cache-tree over dirty nodes.**  Per metadata-cache set, a set-MAC
  over the set's dirty nodes *sorted by address* (the sort the paper
  calls out), feeding a 4-level cache-tree whose root is non-volatile.
  Recomputed on every dirty-set change — serial hashes on the critical
  path.  The simulation hashes the set-MAC at once and charges the
  branch on every change; the tree computes the branch's values when
  its root is observed (``repro.baselines.cachetree``).
"""
from __future__ import annotations

from repro.baselines.base import SecureMemoryController
from repro.baselines.cachetree import CacheTree
from repro.baselines.report import RecoveryReport
from repro.common.config import SystemConfig
from repro.common.errors import RecoveryError, TamperDetectedError
from repro.faults.registry import POINT_RECOVERY, fire
from repro.integrity.node import SITNode
from repro.nvm.device import NVMDevice
from repro.nvm.layout import Region


from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.sim.clock import MemClock

_BITS_PER_LINE = 512  #: dirty bits per 64 B bitmap line


class MultiLayerBitmap:
    """STAR's persistent dirty bitmap.

    STAR predates the ADR-resident tracking trick that Steins introduces
    (Sec. III-C), so a bitmap update must be *written through* to NVM at
    once to survive a crash — the "extra memory access overhead" the
    paper charges STAR with.  A small volatile line cache only avoids
    re-reading lines for the read-modify-write.  Updates happen on both
    clean->dirty and dirty->clean transitions, and upper-layer summary
    bits occasionally ripple additional line updates.
    """

    def __init__(self, total_nodes: int, device: NVMDevice,
                 cache_lines: int = 16) -> None:
        self.device = device
        self.capacity = cache_lines
        self.layer_sizes: list[int] = []
        n = total_nodes
        while True:
            lines = -(-n // _BITS_PER_LINE)
            self.layer_sizes.append(lines)
            if lines == 1:
                break
            n = lines
        self.layer_bases = [0]
        for lines in self.layer_sizes[:-1]:
            self.layer_bases.append(self.layer_bases[-1] + lines)
        self.total_lines = sum(self.layer_sizes)
        self._cache: dict[int, int] = {}  # flat line index -> bitmask
        self.nvm_accesses = 0

    def _load(self, flat: int, clock: "MemClock") -> int:
        if flat in self._cache:
            self._cache[flat] = self._cache.pop(flat)
            return self._cache[flat]
        if len(self._cache) >= self.capacity:
            # write-through keeps NVM current: victims drop silently
            del self._cache[next(iter(self._cache))]
        stored, _done = clock.nvm_read_overlapped(Region.BITMAP, flat)
        self.nvm_accesses += 1
        mask = stored if stored is not None else 0
        self._cache[flat] = mask
        return mask

    def set_state(self, offset: int, dirty: bool, clock: "MemClock") -> int:
        """Flip one node's bit, writing every changed line through to
        NVM; returns the number of lines written (lower layer + any
        upper-layer summary ripples)."""
        written = 0
        bit_index = offset
        for layer, base in enumerate(self.layer_bases):
            line_in_layer, bit = divmod(bit_index, _BITS_PER_LINE)
            flat = base + line_in_layer
            mask = self._load(flat, clock)
            was_nonzero = mask != 0
            if dirty:
                new_mask = mask | (1 << bit)
            else:
                new_mask = mask & ~(1 << bit)
            if new_mask == mask:
                break  # no change; upper layers unaffected
            self._cache[flat] = new_mask
            clock.nvm_write(Region.BITMAP, flat, new_mask)
            self.nvm_accesses += 1
            written += 1
            now_nonzero = new_mask != 0
            if was_nonzero == now_nonzero or layer == len(self.layer_bases) - 1:
                break  # upper-layer summary bit unchanged
            dirty = now_nonzero
            bit_index = line_in_layer
        return written

    def crash(self) -> None:
        """Write-through means NVM is already current; only the volatile
        read cache is lost."""
        self._cache.clear()

    def scan_dirty(self, report: RecoveryReport) -> set[int]:
        """Recovery: walk the layers top-down to find set bits."""
        # Top-down walk: only descend into lower lines whose summary bit
        # is set; charge one read per line visited.
        lines_to_visit = [0]  # top layer has a single line
        for layer in range(len(self.layer_sizes) - 1, 0, -1):
            base = self.layer_bases[layer]
            next_lines: list[int] = []
            for line in lines_to_visit:
                mask = self.device.peek(Region.BITMAP, base + line) or 0
                report.read()
                bit = 0
                while mask:
                    if mask & 1:
                        next_lines.append(line * _BITS_PER_LINE + bit)
                    mask >>= 1
                    bit += 1
            lines_to_visit = next_lines
        offsets: set[int] = set()
        for line in lines_to_visit:
            mask = self.device.peek(Region.BITMAP, line) or 0
            report.read()
            bit = 0
            while mask:
                if mask & 1:
                    offsets.add(line * _BITS_PER_LINE + bit)
                mask >>= 1
                bit += 1
        return offsets


class STARController(SecureMemoryController):
    """Bitmap + echo + dirty-set cache-tree scheme."""

    name = "star"
    supports_recovery = True
    #: the child echoes only equal the parent slots under lazy updates
    supports_eager_updates = False

    def __init__(self, cfg: SystemConfig, device: NVMDevice,
                 clock: "MemClock") -> None:
        super().__init__(cfg, device, clock)
        self.bitmap = MultiLayerBitmap(self.geometry.total_nodes, device)
        self.num_sets = self.metacache.num_sets
        self.cache_tree = CacheTree("star", self.num_sets, self.engine)

    # ------------------------------------------------------- set-MAC
    def _set_mac(self, entries: list[tuple[int, SITNode]]) -> int:
        """MAC over a set's dirty nodes, sorted by address (offset)."""
        if not entries:
            return 0
        entries = sorted(entries, key=lambda e: e[0])
        fields: list[int] = []
        for offset, node in entries:
            fields.extend((offset, node.block.to_packed()))
        return self.engine.digest64(*fields)

    def _update_set_mac(self, set_idx: int) -> None:
        entries = [(off, node) for off, node, dirty
                   in self.metacache.set_entries(set_idx) if dirty]
        # the sort the paper calls out: cheap ALU work per update
        self.clock.alu_op(n=max(1, len(entries)), cycles_each=2)
        # the set-MAC is hashed now, not at settle: a nested eviction
        # fire mid-flush must see the leaf that still covers the
        # victim whose bitmap bit is set, which the live set no longer
        # holds
        mac = self._set_mac(entries)
        # like ASIT's cache-tree, the combine chain pipelines behind the
        # accompanying NVM write; the set-MAC hash itself serializes
        self.clock.hash_op()
        serial = self.cache_tree.update_leaf(set_idx, mac)
        self.clock.hash_op(serial, on_critical_path=False)
        self.stats.bump("set_mac_updates")

    # ------------------------------------------------------------ hooks
    def _on_metadata_modified(self, offset: int, node: SITNode) -> None:
        self._update_set_mac(self.metacache.set_index(offset))

    def _on_clean_to_dirty(self, offset: int, node: SITNode) -> None:
        writes = self.bitmap.set_state(offset, True, self.clock)
        self.stats.bump("bitmap_writes", writes)

    def _on_dirty_to_clean(self, offset: int, node: SITNode,
                           evicted: bool) -> None:
        writes = self.bitmap.set_state(offset, False, self.clock)
        self.stats.bump("bitmap_writes", writes)
        self._update_set_mac(self.metacache.set_index(offset))

    # ---------------------------------------------------- flush protocol
    def _flush_dirty_node(self, node: SITNode) -> None:
        """WB flush, but the persisted line embeds the parent-counter
        echo the recovery path reads back."""
        parent_counter = self._bump_parent(node)
        self.clock.hash_op()
        node.seal(self.engine, parent_counter)
        self.clock.nvm_write(
            Region.TREE,
            self.geometry.node_offset(node.level, node.index),
            node.snapshot() + (parent_counter,))
        self.stats.metadata_writebacks += 1

    def _oracle_extra_state(self) -> dict[str, object]:
        # the dirty-set cache-tree root survives on-chip; the bitmap
        # lives in NVM and is already covered by the device fingerprint
        return {"cache_tree_root": self.cache_tree.root}

    # ------------------------------------------------------------ crash
    def _crash_volatile_state(self) -> None:
        self.bitmap.crash()
        self.cache_tree.crash()

    def recover(self) -> RecoveryReport:
        """Scan the bitmap, rebuild dirty nodes from child echoes, verify
        via the dirty-set cache-tree."""
        if not self._crashed:
            raise RecoveryError("recover() called without a crash")
        fire(POINT_RECOVERY)
        report = RecoveryReport(self.name)
        offsets = self.bitmap.scan_dirty(report)
        fire(POINT_RECOVERY)
        recovered: dict[int, SITNode] = {}
        for offset in sorted(offsets):
            level, index = self.geometry.offset_to_node(offset)
            node = (self.rebuild_leaf(index, report) if level == 0
                    else self.rebuild_inner(level, index, report))
            recovered[offset] = node
            report.nodes_recovered += 1

        # Verify: recompute every set-MAC from the recovered nodes and
        # rebuild the cache-tree against the NV root.
        by_set: dict[int, list[tuple[int, SITNode]]] = {}
        for offset, node in recovered.items():
            by_set.setdefault(self.metacache.set_index(offset),
                              []).append((offset, node))
        leaf_hashes = [self._set_mac(by_set.get(s, []))
                       for s in range(self.num_sets)]
        report.hash(self.num_sets)
        self.cache_tree.rebuild_and_verify(leaf_hashes)
        report.hash(self.num_sets // 4)
        fire(POINT_RECOVERY)

        # Every step above only read NVM and the reinstall below only
        # repopulates volatile state (the bitmap bits are already set,
        # the rebuilt set-MACs equal the crashed cache-tree's leaves), so
        # a crash at any point simply restarts an identical recovery.
        self.mark_recovered()
        for offset, node in sorted(recovered.items(),
                                   key=lambda e: (-e[1].level, e[0])):
            fire(POINT_RECOVERY)
            self.force_install(offset, node)
        return report

    def _child_seal_counter(self, child: SITNode, snap: tuple) -> int:
        """A STAR child was sealed under the parent counter it echoes."""
        echo = SITNode.snapshot_echo(snap)
        if echo is None:
            raise TamperDetectedError(
                f"star child ({child.level},{child.index}) lacks a "
                "parent-counter echo")
        return echo
