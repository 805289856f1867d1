"""Seeded uniform permutation sampling.

Randomness comes from the counter-based Philox generator, keyed by the
pair (seed, stream word).  The stream word packs a small domain tag and a
sample index, so every sample lives in its own substream determined
entirely by (seed, tag, index): results never depend on how work is
sharded across workers, and any single sample can be regenerated in
isolation.

Two independent constructions of the uniform distribution are provided:
an in-place shuffle, and reduction of i.i.d. uniforms (rank the draws).
They share no code past the bit generator and are used to cross-validate
each other.
"""

from __future__ import annotations

import numpy as np

from .errors import ZeroSize
from .patterns import Permutation

__all__ = [
    "substream",
    "sample_uniform",
    "sample_by_reduction",
    "sample_uniform_batch",
    "sample_by_reduction_batch",
    "SHUFFLE_STREAM",
    "REDUCTION_STREAM",
    "NORMAL_STREAM",
    "PINNED_STREAM",
]

_MASK64 = (1 << 64) - 1
_INDEX_BITS = 56

SHUFFLE_STREAM = 0
REDUCTION_STREAM = 1
NORMAL_STREAM = 2
PINNED_STREAM = 4


def substream(seed: int, index: int, stream: int = 0) -> np.random.Generator:
    """Generator for the given (seed, index) substream.

    The Philox key is (seed, stream << 56 | index); seeds must fit in 64
    bits, indices in 56 bits (room for ~7*10^16 samples per stream) and
    stream tags in the remaining 8.
    """
    if not 0 <= seed <= _MASK64:
        raise ValueError(f"seed {seed} outside 0..2^64-1")
    if not 0 <= index < (1 << _INDEX_BITS):
        raise ValueError(f"sample index {index} outside 0..2^{_INDEX_BITS}-1")
    if not 0 <= stream < (1 << (64 - _INDEX_BITS)):
        raise ValueError(f"stream tag {stream} outside 0..2^{64 - _INDEX_BITS}-1")
    word = (stream << _INDEX_BITS) | index
    key = np.array([seed, word], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def sample_uniform(n: int, seed: int, index: int = 0) -> Permutation:
    """Uniform permutation of {1..n} via a seeded shuffle: the row of
    sample_uniform_batch for this index."""
    row = sample_uniform_batch(n, seed, 1, index)[0]
    return Permutation(tuple(int(v) for v in row))


def _reduction_draw(gen: np.random.Generator, n: int) -> np.ndarray:
    u = gen.random(n)
    # Ties between float64 uniforms are a probability-zero event, but the
    # reduction is only defined for distinct entries, so redraw if one
    # ever materializes.
    while np.unique(u).size != n:
        u = gen.random(n)
    return u


def sample_by_reduction(n: int, seed: int, index: int = 0) -> Permutation:
    """Uniform permutation of {1..n} as the rank sequence of n i.i.d.
    uniform draws: the row of sample_by_reduction_batch for this index."""
    row = sample_by_reduction_batch(n, seed, 1, index)[0]
    return Permutation(tuple(int(v) for v in row))


def sample_uniform_batch(n: int, seed: int, count: int, start: int = 0) -> np.ndarray:
    """(count, n) array of shuffled permutations for sample indices
    start..start+count-1.  Row i equals sample_uniform(n, seed, start+i)."""
    if n < 1:
        raise ZeroSize(f"cannot sample a permutation of size {n}")
    dtype = np.int16 if n < 2**15 else np.int32
    out = np.empty((count, n), dtype=dtype)
    base = np.arange(1, n + 1)
    for i in range(count):
        gen = substream(seed, start + i, SHUFFLE_STREAM)
        out[i] = gen.permutation(base)
    return out


def sample_by_reduction_batch(n: int, seed: int, count: int, start: int = 0) -> np.ndarray:
    """(count, n) array of rank-of-uniforms permutations; row i equals
    sample_by_reduction(n, seed, start+i)."""
    if n < 1:
        raise ZeroSize(f"cannot sample a permutation of size {n}")
    dtype = np.int16 if n < 2**15 else np.int32
    out = np.empty((count, n), dtype=dtype)
    for i in range(count):
        gen = substream(seed, start + i, REDUCTION_STREAM)
        u = _reduction_draw(gen, n)
        out[i] = np.argsort(np.argsort(u)) + 1
    return out
