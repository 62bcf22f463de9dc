"""The contiguous-stream block kernel (`ranks_below`, `uniform_range` and
the window draw `_bits`) against the scattered `uniforms` and the scalar
`uniform_at`."""
import numpy as np
from hypothesis import given, settings, strategies as st

from rwcomplex import rng

B = rng.BLOCK
KEYS = st.one_of(st.sampled_from([0, (1 << 64) - 1]),
                 st.integers(0, (1 << 64) - 1))
COUNTS = st.sampled_from([0, 1, 2, B - 1, B, B + 1, 3 * B, 4 * B])
EDGES = [2.0 ** -53, 1.0 - 2.0 ** -53, 1.0]


def bits(u):
    return np.asarray(u, dtype=np.float64).view(np.uint64)


def around(p):
    """p and its two float neighbours, clipped to (0, 1]."""
    return [q for q in (np.nextafter(p, 0.0), p, np.nextafter(p, 2.0))
            if 0.0 < q <= 1.0]


@settings(derandomize=True, deadline=None, max_examples=40)
@given(KEYS, COUNTS, st.integers(1, 1 << 53), st.data())
def test_block_kernel_matches_scattered_draws(key, count, k, data):
    ref = rng.uniforms(key, np.arange(count))
    probe = sorted({0, count - 1, B - 1, B, count // 2}
                   & set(range(count)))
    assert [float(ref[r]) for r in probe] == \
        [rng.uniform_at(key, r) for r in probe]
    full = rng.uniform_range(key, count)
    assert full.dtype == np.float64 and np.array_equal(bits(full), bits(ref))
    raw = rng._bits(key, 0, np.empty(count, dtype=np.uint64))
    assert raw.dtype == np.uint64 and raw.shape == (count,)
    assert np.array_equal(bits(rng.to_uniform(raw)), bits(ref))
    # thresholds on the 2^-53 grid, at drawn values (u < p is strict) and
    # at the ends of (0, 1], each with its float neighbours
    ps = around(k * 2.0 ** -53) + [q for p in EDGES for q in around(p)]
    if count:
        j = data.draw(st.integers(0, count - 1))
        ps += around(float(ref[j]))
    for p in ps:
        got = rng.ranks_below(key, count, p)
        assert got.dtype == np.int64
        assert np.array_equal(got, np.flatnonzero(ref < p)), p


@settings(derandomize=True, deadline=None, max_examples=40)
@given(KEYS, st.data())
def test_window_draws_are_slices_of_the_stream(key, data):
    # windows at offsets off the block grid, inside one block and across
    # one or more block boundaries, drawn into a larger reused buffer
    lo = data.draw(st.one_of(st.sampled_from([0, 1, B - 1, B, B + 7]),
                             st.integers(0, 3 * B)))
    size = data.draw(st.one_of(st.sampled_from([0, 1, B - 1, B, B + 1]),
                               st.integers(0, 2 * B + 3)))
    buf = np.full(size + 5, 7, dtype=np.uint64)
    got = rng._bits(key, lo, buf[:size])
    assert got.base is buf or size == 0
    ref = rng.uniforms(key, np.arange(lo, lo + size))
    assert np.array_equal(bits(rng.to_uniform(got)), bits(ref))
    assert (buf[size:] == 7).all()


def test_ranks_below_at_the_ends_of_the_unit_interval():
    key = rng.stream_key(3, rng.TAG_B)
    assert np.array_equal(rng.ranks_below(key, B + 5, 1.0),
                          np.arange(B + 5))
    assert rng.ranks_below(key, B + 5, 2.0 ** -60).size == 0
    assert rng.ranks_below(key, 0, 0.5).size == 0
