"""Deterministic counter-based random streams.

Every draw is a pure function of (seed, stream tag, counter), so arbitrary
slices of a stream can be materialized in any order, on any worker, and
still agree bit for bit.  The generator is the SplitMix64 sequence: output
at counter r is the SplitMix64 finalizer applied to key + (r+1)*GOLDEN;
`ranks_below`, `bits_range` and `uniform_range` draw 0..count-1 in blocks.
"""
from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_INV_2_53 = 1.0 / (1 << 53)

# Stream tags: presence bit, weight, and their independent primed copies.
TAG_B = 0
TAG_W = 1
TAG_BP = 2
TAG_WP = 3

BLOCK = 1 << 15     # counters per block of the contiguous-stream kernel
_STEPS = np.arange(BLOCK, dtype=np.uint64)     # i * GOLDEN, multiplied in
_STEPS *= np.uint64(_GOLDEN)                   # place: no freed temporary
_STEPS.flags.writeable = False


def mix64(z: int) -> int:
    """SplitMix64 finalizer of a 64-bit integer."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


def stream_key(seed: int, tag: int) -> int:
    """Key for one of the four per-sample streams."""
    return mix64((seed & _MASK) ^ mix64(0xA5A5A5A5A5A5A5A5 + tag))


def child_seed(seed: int, index: int) -> int:
    """Derive an independent child seed (e.g. per-replica from a master)."""
    return mix64(((seed & _MASK) + _GOLDEN * (index + 1)) & _MASK)


def uniform_at(key: int, counter: int) -> float:
    """Scalar 53-bit uniform in [0, 1) at one counter position."""
    z = (key + _GOLDEN * ((counter + 1) & _MASK)) & _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    z ^= z >> 31
    return (z >> 11) * _INV_2_53


def _mix(z: np.ndarray, t: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer of the uint64 array z, in place; t is scratch."""
    for shift, mult in ((30, _MIX1), (27, _MIX2)):
        np.bitwise_xor(z, np.right_shift(z, np.uint64(shift), out=t), out=z)
        np.multiply(z, np.uint64(mult), out=z)
    return np.bitwise_xor(z, np.right_shift(z, np.uint64(31), out=t), out=z)


def uniforms(key: int, counters) -> np.ndarray:
    """Vectorized 53-bit uniforms in [0, 1) at the given counter positions.

    Bit-compatible with ``uniform_at``; `counters` may be any integer array
    (scattered, unsorted, repeated).
    """
    z = np.asarray(counters).astype(np.uint64)
    np.add(np.multiply(z, np.uint64(_GOLDEN), out=z),     # key + (r+1)*GOLDEN
           np.uint64((key + _GOLDEN) & _MASK), out=z)
    return to_uniform(_mix(z, np.empty_like(z)))


def to_uniform(z: np.ndarray) -> np.ndarray:
    """The uniforms (z >> 11) * 2^-53 of outputs z, exact and monotone."""
    return (z >> np.uint64(11)) * _INV_2_53


def _blocks(key: int, count: int, out=None):
    """(lo, outputs at lo, lo+1, ...) per block: in out, else in one buffer."""
    z, t = np.empty((2, min(count, BLOCK)), dtype=np.uint64)
    for lo in range(0, count, BLOCK):
        zb = z[:count - lo] if out is None else out[lo:lo + BLOCK]
        base = np.uint64((key + _GOLDEN * (lo + 1)) & _MASK)
        yield lo, _mix(np.add(_STEPS[:zb.size], base, out=zb), t[:zb.size])


def ranks_below(key: int, count: int, p: float) -> np.ndarray:
    """Ascending counters r < count with uniform_at(key, r) < p, exactly:
    u = (z >> 11) * 2^-53 < p iff z < ceil(p * 2^53) * 2^11."""
    if p >= 1.0:
        return np.arange(count, dtype=np.int64)
    limit = np.uint64(int(np.ceil(p * 2.0 ** 53)) << 11)
    return np.concatenate([np.empty(0, dtype=np.int64)] + [
        lo + np.flatnonzero(z < limit) for lo, z in _blocks(key, count)])


def bits_range(key: int, count: int) -> np.ndarray:
    """The raw uint64 outputs at counters 0..count-1, mixed in place."""
    out = np.empty(count, dtype=np.uint64)
    for _ in _blocks(key, count, out):
        pass
    return out


def uniform_range(key: int, count: int) -> np.ndarray:
    """uniforms(key, np.arange(count)), drawn block by block."""
    out = np.empty(count)
    for lo, z in _blocks(key, count):
        out[lo:lo + z.size] = np.right_shift(z, np.uint64(11), out=z)
    return np.multiply(out, _INV_2_53, out=out)
