"""Counter-mode encryption (CME) of 64-byte data blocks (paper Sec. II-B).

A data block is modelled as a 512-bit int.  Encryption XORs it with a
one-time pad derived from (secret key, block address, counter); decryption
is the same XOR.  The OTP never repeats because the write counter for an
address strictly increases and addresses are distinct — the property the
whole scheme's confidentiality argument rests on.
"""
from __future__ import annotations

from repro.common.constants import CACHE_LINE_BITS
from repro.crypto.engine import HashEngine

#: the largest 512-bit block value
BLOCK_MASK = (1 << CACHE_LINE_BITS) - 1


def encrypt_block(engine: HashEngine, address: int, counter: int,
                  plaintext: int) -> int:
    """Encrypt a 512-bit plaintext block under (address, counter)."""
    if not 0 <= plaintext <= BLOCK_MASK:
        raise ValueError("plaintext must fit in 512 bits")
    pad = engine.otp(address, counter, CACHE_LINE_BITS)
    return plaintext ^ pad


def decrypt_block(engine: HashEngine, address: int, counter: int,
                  ciphertext: int) -> int:
    """Decrypt a block; XOR with the same OTP (CME symmetry)."""
    if not 0 <= ciphertext <= BLOCK_MASK:
        raise ValueError("ciphertext must fit in 512 bits")
    pad = engine.otp(address, counter, CACHE_LINE_BITS)
    return ciphertext ^ pad


def data_hmac(engine: HashEngine, address: int, counter: int,
              plaintext: int) -> int:
    """64-bit HMAC binding a data block to its address and counter.

    Stored alongside the data (Sec. II-C); verified on every fetch.
    Computed over the plaintext so decryption with a wrong counter is
    also caught.
    """
    return engine.digest64(address, counter, plaintext)
