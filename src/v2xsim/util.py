"""Small numeric helpers: dB/linear conversion and seeded stream derivation."""

from __future__ import annotations

import functools
import zlib

import numpy as np


def db_to_linear(db):
    """Convert dB (or dBm) values to linear ratios (or mW)."""
    return 10.0 ** (np.asarray(db, dtype=float) / 10.0)


def linear_to_db(linear):
    """Convert linear ratios to dB. Zero maps to -inf."""
    lin = np.asarray(linear, dtype=float)
    with np.errstate(divide="ignore"):
        return 10.0 * np.log10(lin)


# numpy's SeedSequence: a pool of four uint32 words and its hash constants
_POOL = 4
_MASK = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _pcg64_words(key: list) -> np.ndarray:
    """numpy's `SeedSequence(key).generate_state(4, np.uint64)`, of one key or of many.

    Each entropy word of `key` is a Python int in [0, 2**32), shared by
    every key, or a (V,) uint32 array, one word per key; with an array the
    result is (V, 4), one row per key, else (4,). The hash constants depend
    only on the word position, so the keys hash at once. Each product and
    difference is masked to 32 bits. On Python ints that is the wrap-around
    of the reference's C integers; on uint32 arrays, which numpy already
    wrapped, it keeps every Python int operand inside uint32, where numpy
    1.x and 2.x agree (a larger one is promoted by 1.x, refused by 2.x).
    """
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * _MULT_A & _MASK
        value = value * const & _MASK
        return value ^ (value >> 16)

    def mix(x, y):
        value = ((x * _MIX_L & _MASK) - (y * _MIX_R & _MASK)) & _MASK
        return value ^ (value >> 16)

    pool = [hashmix(key[i] if i < len(key) else 0) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL, len(key)):
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(key[src]))
    const = _INIT_B
    state = []
    for i in range(8):  # the uint32 halves of four uint64 words
        value = pool[i % _POOL] ^ const
        const = const * _MULT_B & _MASK
        value = value * const & _MASK
        state.append(value ^ (value >> 16))
    # as numpy does: little-endian pairs of uint32 words make each uint64 word
    return np.array(state, dtype="<u4").T.copy().view("<u8").astype(np.uint64)


@functools.cache
def _words_type():
    """A seed sequence type that hands `PCG64` four precomputed uint64 words.

    Made on first use, so that importing this module does not import
    `numpy.random`: the first stream does.
    """
    from numpy.random.bit_generator import ISeedSequence

    class Words(ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words  # PCG64 asks for generate_state(4, np.uint64)

    return Words


def _generator(words: np.ndarray) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(_words_type()(words)))


def streams(master_seed: int, purpose: str, ids) -> list[np.random.Generator]:
    """`stream(master_seed, purpose, i)` for every id i of `ids`, derived in one hash.

    This reproduces numpy's documented and stable `SeedSequence` algorithm
    (pool, mixing and `generate_state`) for all ids at once, and builds each
    `PCG64` from its words; the differential test in `tests/test_util.py`
    guards that every stream's state equals numpy's.
    """
    ids = (np.asarray(ids, dtype=np.int64).reshape(-1) & _MASK).astype(np.uint32)
    key = [int(master_seed) & _MASK, zlib.crc32(purpose.encode("utf-8")), ids]
    return [_generator(words) for words in _pcg64_words(key)]


def stream(master_seed: int, purpose: str, *ids: int) -> np.random.Generator:
    """Derive an independent random stream from the master seed.

    Streams are keyed by a purpose label plus optional entity ids, so the
    draws of one subsystem never depend on how often another subsystem
    consumed randomness. The key is the uint32 words (seed, crc32 of the
    purpose, ids...), each masked to 32 bits, hashed as numpy's
    `SeedSequence` of that key would be (see `streams`).
    """
    key = [int(master_seed) & _MASK, zlib.crc32(purpose.encode("utf-8"))]
    key.extend(int(i) & _MASK for i in ids)
    return _generator(_pcg64_words(key))
