"""Deterministic counter-based random streams.

Every draw is a pure function of (seed, stream tag, counter), so arbitrary
slices of a stream can be materialized in any order, on any worker, and
still agree bit for bit.  The generator is the SplitMix64 sequence: output
at counter r is the SplitMix64 finalizer applied to key + (r+1)*GOLDEN;
`ranks_below` and `uniform_range` draw 0..count-1 in blocks, and `_bits` the
raw outputs at any window lo..hi-1 of counters.
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
    return (mix64(key + _GOLDEN * (counter + 1)) >> 11) * _INV_2_53


def _mix(z: np.ndarray, t: np.ndarray, last: bool = True) -> np.ndarray:
    """SplitMix64 finalizer of the uint64 array z, in place; t is scratch.
    With last=False the final step z ^= z >> 31 is left to the caller."""
    for shift, mult in ((30, _MIX1), (27, _MIX2)):
        np.bitwise_xor(z, np.right_shift(z, np.uint64(shift), out=t), out=z)
        np.multiply(z, np.uint64(mult), out=z)
    return np.bitwise_xor(z, np.right_shift(z, np.uint64(31), out=t), out=z) \
        if last else z


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


def _blocks(key: int, lo: int, hi: int, out=None, last: bool = True):
    """(a, outputs at a, a+1, ...) per block of the counters lo..hi-1: in
    out, aligned with lo, else in one buffer."""
    t = np.empty(min(hi - lo, BLOCK), dtype=np.uint64)
    z = np.empty_like(t) if out is None else None
    for a in range(lo, hi, BLOCK):
        zb = z[:hi - a] if out is None else out[a - lo:a - lo + BLOCK]
        base = np.uint64((key + _GOLDEN * (a + 1)) & _MASK)
        yield a, _mix(np.add(_STEPS[:zb.size], base, out=zb), t[:zb.size],
                      last)


def ranks_below(key: int, count: int, p: float) -> np.ndarray:
    """Ascending counters r < count with uniform_at(key, r) < p, exactly:
    u = (z >> 11) * 2^-53 < p iff z < L = ceil(p * 2^53) * 2^11.  The last
    mix step z ^= z >> 31 keeps the top 31 bits, so only the unfinished
    z <= L | (2^33 - 1) are candidates; they alone are finished and tested."""
    if p >= 1.0:
        return np.arange(count, dtype=np.int64)
    limit = int(np.ceil(p * 2.0 ** 53)) << 11
    bound, limit = np.uint64(limit | (1 << 33) - 1), np.uint64(limit)
    parts = [np.empty(0, dtype=np.int64)]
    for lo, z in _blocks(key, 0, count, last=False):
        cand = np.flatnonzero(z <= bound)
        y = z[cand]
        parts.append(lo + cand[(y ^ (y >> np.uint64(31))) < limit])
    return np.concatenate(parts)


def _bits(key: int, lo: int, out: np.ndarray) -> np.ndarray:
    """The raw uint64 outputs at counters lo, lo+1, ..., mixed in place in
    the uint64 array out, which is returned."""
    for _ in _blocks(key, lo, lo + out.size, out):
        pass
    return out


def uniform_range(key: int, count: int) -> np.ndarray:
    """uniforms(key, np.arange(count)), drawn block by block."""
    out = np.empty(count)
    for lo, z in _blocks(key, 0, count):
        out[lo:lo + z.size] = np.right_shift(z, np.uint64(11), out=z)
    return np.multiply(out, _INV_2_53, out=out)
