"""Architectural constants shared across the whole reproduction.

Everything here mirrors the fixed quantities of the paper (Section II/IV,
Table I): 64-byte cache lines, the SIT node layout (one 64-bit HMAC plus
eight 56-bit counters), and the split-counter layout used in Steins-SC
leaf nodes (one 64-bit major counter plus sixty-four 6-bit minors).
"""
from __future__ import annotations

# ---------------------------------------------------------------- lines ---
#: Cache-line / metadata-block granularity in bytes (paper: "each security
#: metadata ... is 64 bytes, matching the cache line granularity").
CACHE_LINE_BYTES: int = 64
#: Cache-line size in bits; data blocks are modeled as ints of this width.
CACHE_LINE_BITS: int = CACHE_LINE_BYTES * 8

# ----------------------------------------------------------- SIT layout ---
#: Fan-out of every SIT / BMT tree level below the root.
TREE_ARITY: int = 8
#: Number of counters in a general SIT node (one per child).
GENERAL_COUNTERS_PER_NODE: int = 8
#: Width of each counter in a general SIT node.
GENERAL_COUNTER_BITS: int = 56
#: Width of the per-node HMAC stored inside the 64 B line.
NODE_HMAC_BITS: int = 64
#: Maximum value of a general 56-bit counter.
GENERAL_COUNTER_MAX: int = (1 << GENERAL_COUNTER_BITS) - 1

# 8 * 56 + 64 == 512 bits == 64 bytes: the general node exactly fills a line.
assert GENERAL_COUNTERS_PER_NODE * GENERAL_COUNTER_BITS + NODE_HMAC_BITS \
    == CACHE_LINE_BITS

# -------------------------------------------------- split-counter layout ---
#: Width of the major counter in a split counter block.
MAJOR_COUNTER_BITS: int = 64
#: Width of each minor counter in a *SIT* split leaf (paper Sec. II-D: the
#: minor counter is 6-bit so that the block still fits 64 B with the HMAC).
MINOR_COUNTER_BITS: int = 6
#: Number of minor counters (data blocks covered) per split counter block.
MINORS_PER_SPLIT_BLOCK: int = 64
#: Maximum value of a 6-bit minor counter.
MINOR_COUNTER_MAX: int = (1 << MINOR_COUNTER_BITS) - 1
#: Weight of the major counter in Steins' Eq. (2): the maximum minor
#: counter *count range* (2^6), so a skip-updated major keeps the generated
#: parent counter strictly monotone.
SPLIT_MAJOR_WEIGHT: int = 1 << MINOR_COUNTER_BITS

# 64 + 64*6 + 64 == 512 bits == 64 bytes: split leaf exactly fills a line.
assert MAJOR_COUNTER_BITS + MINORS_PER_SPLIT_BLOCK * MINOR_COUNTER_BITS \
    + NODE_HMAC_BITS == CACHE_LINE_BITS

# --------------------------------------------------------------- offsets ---
#: Size of one offset record entry (paper Sec. III-C: 4-byte offsets cover a
#: metadata region of up to 256 GB).
OFFSET_RECORD_BYTES: int = 4
#: Offsets per 64 B record line.
OFFSETS_PER_RECORD_LINE: int = CACHE_LINE_BYTES // OFFSET_RECORD_BYTES
#: Sentinel meaning "record slot empty".
OFFSET_EMPTY: int = 0xFFFF_FFFF

# ------------------------------------------------------------- trust base ---
#: Size of each L_k Inc entry; a single 64 B NV register holds 8 of them.
LINC_BYTES: int = 8
LINC_REGISTER_BYTES: int = 64
MAX_LINC_LEVELS: int = LINC_REGISTER_BYTES // LINC_BYTES

#: Steins' non-volatile parent-counter buffer size (Table I).
NV_BUFFER_BYTES: int = 128
#: One buffered entry = 8 B node id + 8 B generated counter.
NV_BUFFER_ENTRY_BYTES: int = 16
NV_BUFFER_ENTRIES: int = NV_BUFFER_BYTES // NV_BUFFER_ENTRY_BYTES
