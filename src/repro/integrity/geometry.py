"""SIT/BMT tree geometry: levels, indexing, parent/child math, offsets.

Level 0 holds the leaf counter blocks; each upper level is 8-ary; the
root is an on-chip register with up to ``root_arity`` counter slots
(64 by default, reproducing the paper's stated heights: 9 levels
including the root for 16 GB general-counter trees, 8 for split-counter
trees — see DESIGN.md).

Node identity is ``(level, index)``.  The *offset* of a node is its
global position in the metadata region (level 0 first), which is what
Steins' 4-byte offset records store (Sec. III-C).  The root lives
on-chip and has no offset.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

from repro.common.config import CounterMode, SecurityConfig
from repro.common.errors import ConfigError

NodeId = tuple[int, int]  #: (level, index)


@dataclass(frozen=True)
class TreeGeometry:
    """Shape of one integrity tree."""

    num_data_blocks: int
    leaf_coverage: int
    arity: int = 8
    root_arity: int = 64

    def __post_init__(self) -> None:
        if self.num_data_blocks <= 0:
            raise ConfigError("tree must cover at least one data block")
        if self.leaf_coverage <= 0 or self.arity <= 1:
            raise ConfigError("invalid coverage/arity")
        if self.root_arity < self.arity:
            raise ConfigError("root arity must be >= tree arity")

    # ---------------------------------------------------------- levels
    @cached_property
    def level_sizes(self) -> tuple[int, ...]:
        """Node count per level, leaves first; excludes the root."""
        sizes = [max(1, -(-self.num_data_blocks // self.leaf_coverage))]
        while sizes[-1] > self.root_arity:
            sizes.append(-(-sizes[-1] // self.arity))
        return tuple(sizes)

    @cached_property
    def num_levels(self) -> int:
        """In-NVM levels (excluding the on-chip root)."""
        return len(self.level_sizes)

    @cached_property
    def height(self) -> int:
        """Paper-style height: levels *including* the root."""
        return self.num_levels + 1

    @cached_property
    def top_level(self) -> int:
        """The level whose nodes are the root's direct children."""
        return self.num_levels - 1

    @cached_property
    def total_nodes(self) -> int:
        return sum(self.level_sizes)

    @cached_property
    def _level_offsets(self) -> tuple[int, ...]:
        offs = [0]
        for size in self.level_sizes[:-1]:
            offs.append(offs[-1] + size)
        return tuple(offs)

    # -------------------------------------------------------- node math
    def check_node(self, level: int, index: int) -> None:
        sizes = self.level_sizes
        if 0 <= level < len(sizes) and 0 <= index < sizes[level]:
            return
        if not 0 <= level < len(sizes):
            raise ConfigError(f"level {level} out of range")
        raise ConfigError(
            f"index {index} out of range at level {level} "
            f"(size {sizes[level]})")

    def parent(self, level: int, index: int) -> NodeId | None:
        """Parent node id, or ``None`` when the parent is the root."""
        self.check_node(level, index)
        if level == self.top_level:
            return None
        return (level + 1, index // self.arity)

    def parent_slot(self, level: int, index: int) -> int:
        """The counter slot this node occupies in its parent."""
        self.check_node(level, index)
        if level == self.top_level:
            return index  # root register slot
        return index % self.arity

    def children(self, level: int, index: int) -> list[NodeId]:
        """Tree-node children of an intermediate node (level >= 1)."""
        return [(level - 1, i) for i in self.child_range(level, index)]

    def child_range(self, level: int, index: int) -> range:
        """Indices (at ``level - 1``) of an intermediate node's
        children; a child's position in the range is its parent slot."""
        self.check_node(level, index)
        if level == 0:
            raise ConfigError("leaves have data blocks, not node children")
        lo = index * self.arity
        return range(lo, min(lo + self.arity, self.level_sizes[level - 1]))

    def leaf_data_blocks(self, leaf_index: int) -> range:
        """Data-block addresses covered by leaf ``leaf_index``."""
        self.check_node(0, leaf_index)
        lo = leaf_index * self.leaf_coverage
        hi = min(lo + self.leaf_coverage, self.num_data_blocks)
        return range(lo, hi)

    def leaf_for_block(self, block_addr: int) -> int:
        """Leaf index covering data block ``block_addr``."""
        if not 0 <= block_addr < self.num_data_blocks:
            raise ConfigError(f"data block {block_addr} out of range")
        return block_addr // self.leaf_coverage

    def leaf_slot_for_block(self, block_addr: int) -> int:
        """Counter slot of ``block_addr`` within its leaf."""
        return block_addr % self.leaf_coverage

    # ---------------------------------------------------------- offsets
    def node_offset(self, level: int, index: int) -> int:
        """Global metadata-region offset of a node (Steins' record unit)."""
        self.check_node(level, index)
        return self._level_offsets[level] + index

    def offset_to_node(self, offset: int) -> NodeId:
        """Inverse of :meth:`node_offset`."""
        if not 0 <= offset < self.total_nodes:
            raise ConfigError(f"offset {offset} out of range")
        for level in range(self.num_levels - 1, -1, -1):
            base = self._level_offsets[level]
            if offset >= base:
                return (level, offset - base)
        raise AssertionError("unreachable")

    def branch(self, block_addr: int) -> list[NodeId]:
        """All tree nodes on the path from a data block to the root
        (leaf first, top level last)."""
        nodes: list[NodeId] = []
        node: NodeId | None = (0, self.leaf_for_block(block_addr))
        while node is not None:
            nodes.append(node)
            node = self.parent(*node)
        return nodes


@lru_cache(maxsize=32)
def geometry_for(num_data_blocks: int, security: SecurityConfig) -> TreeGeometry:
    """The tree geometry implied by a security configuration, memoized:
    both inputs and the geometry are frozen, so every controller built
    for one configuration shares one geometry and its derived shape."""
    coverage = (64 if security.counter_mode is CounterMode.SPLIT else 8)
    return TreeGeometry(
        num_data_blocks=num_data_blocks,
        leaf_coverage=coverage,
        root_arity=security.root_arity,
    )
