import itertools
import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rwcomplex.simplices import (MAX_D_SIMPLICES, WeightedComplex,
                                 check_simplex, d_simplex_count, degree,
                                 faces, rank_colex, read_complex,
                                 simplex_table, unrank_colex,
                                 unrank_colex_array, write_complex)


def test_rank_colex_is_colex_order():
    # enumerating k-subsets in colexicographic order must give 0, 1, 2, ...
    for n, k in [(8, 1), (8, 2), (7, 3), (6, 4)]:
        subsets = sorted(itertools.combinations(range(n), k + 1),
                         key=lambda s: s[::-1])
        for i, s in enumerate(subsets):
            assert rank_colex(s) == i
            assert unrank_colex(i, k, n) == s


def test_rank_independent_of_n():
    # colex rank does not involve n, so ranks agree across ambient sizes
    assert rank_colex((0, 1, 2)) == 0
    assert unrank_colex(5, 1, 5) == unrank_colex(5, 1, 50)


def loop_unrank_colex(r, k, n):
    """The math.comb while-loop unrank that the table bisection replaced."""
    if not 0 <= r < math.comb(n, k + 1):
        raise ValueError("rank %d out of range for k=%d, n=%d" % (r, k, n))
    out = [0] * (k + 1)
    m = n
    for j in range(k + 1, 0, -1):
        m -= 1
        while math.comb(m, j) > r:
            m -= 1
        r -= math.comb(m, j)
        out[j - 1] = m
    return tuple(out)


def test_unrank_matches_the_comb_loop():
    for n in range(1, 11):
        for k in range(n):
            for r in range(-1, math.comb(n, k + 1) + 1):
                try:
                    want = loop_unrank_colex(r, k, n)
                except ValueError as exc:
                    with pytest.raises(ValueError) as err:
                        unrank_colex(r, k, n)
                    assert str(err.value) == str(exc)
                else:
                    assert unrank_colex(r, k, n) == want
    rnd = random.Random(5)
    for k in (0, 1, 2, 3, 7, 40, 150, 299):
        top = math.comb(300, k + 1)     # past int64 from k = 7 on
        for r in [0, top - 1] + [rnd.randrange(top) for _ in range(200)]:
            assert unrank_colex(r, k, 300) == loop_unrank_colex(r, k, 300)


def test_unrank_range_check():
    with pytest.raises(ValueError):
        unrank_colex(math.comb(6, 3), 2, 6)
    with pytest.raises(ValueError):
        unrank_colex(-1, 2, 6)


def test_faces_deletion_order():
    assert faces((0, 1, 2)) == [(1, 2), (0, 2), (0, 1)]
    assert faces((2, 5)) == [(5,), (2,)]


def cofacets(sigma, n):
    """All d-simplices sigma + {v} in the complete complex, v not in sigma
    (the brute-force reference for the cofacet tables)."""
    return [tuple(sorted(tuple(sigma) + (v,))) for v in range(n)
            if v not in sigma]


def test_cofacets_and_degree():
    X = WeightedComplex(6, 2, np.array([rank_colex((1, 3, 4))]),
                        np.array([0.5]))
    assert degree(X, (1, 3)) == 1
    assert degree(X, (0, 1)) == 0
    for sigma in itertools.combinations(range(6), 2):
        assert degree(X, sigma) == sum(X.has(rank_colex(t))
                                       for t in cofacets(sigma, 6))


def test_weighted_complex_add_remove():
    X = WeightedComplex(5, 1, np.array([], dtype=np.int64), np.array([]))
    r = rank_colex((1, 3))
    Y = X.with_simplex(r, 2.0)
    assert Y.has(r) and Y.weight_of(r) == 2.0
    assert not X.has(r)  # immutability
    Z = Y.without_simplex(r)
    assert Z.num_present == 0
    assert Y.without_simplex(999 % math.comb(5, 2)) is not Y or True


def test_weighted_complex_validation():
    with pytest.raises(ValueError):
        WeightedComplex(5, 1, np.array([2, 1]), np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        WeightedComplex(5, 1, np.array([0]), np.array([-1.0]))
    with pytest.raises(ValueError):
        WeightedComplex(5, 1, np.array([math.comb(5, 2)]), np.array([1.0]))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_weighted_complex_rejects_non_finite_weights(bad):
    with pytest.raises(ValueError, match="finite"):
        WeightedComplex(5, 1, np.array([0, 3]), np.array([1.0, bad]))
    X = WeightedComplex(5, 1, np.array([0]), np.array([1.0]))
    with pytest.raises(ValueError, match="finite"):
        X.with_simplex(3, bad)


def test_complex_file_round_trip(tmp_path):
    rng = random.Random(11)
    nd = math.comb(7, 3)
    ranks = sorted(rng.sample(range(nd), 9))
    X = WeightedComplex(7, 2, np.array(ranks),
                        np.array([rng.expovariate(1.0) for _ in ranks]))
    path = tmp_path / "c.txt"
    write_complex(path, X)
    Y = read_complex(path)
    assert Y.n == X.n and Y.d == X.d
    assert np.array_equal(Y.present, X.present)
    assert np.array_equal(Y.weights, X.weights)  # repr round trip is exact


def test_complex_file_rejects_duplicates(tmp_path):
    path = tmp_path / "dup.txt"
    path.write_text("n=5 d=1\n0,1,1.0\n0,1,2.0\n")
    with pytest.raises(ValueError):
        read_complex(path)


def test_complex_file_rejects_bad_vertices(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("n=5 d=1\n1,0,1.0\n")
    with pytest.raises(ValueError):
        read_complex(path)


# ---------------------------------------------------------------------------
# the complex file against the per-line writer and reader it replaced

def ref_write_complex(path, X):
    verts = unrank_colex_array(X.present, X.d, X.n).tolist()
    with open(path, "w") as fh:
        fh.write("n=%d d=%d\n" % (X.n, X.d))
        for vs, w in zip(verts, X.weights.tolist()):
            fh.write(",".join(map(str, vs)) + "," + repr(w) + "\n")


def ref_read_complex(path):
    with open(path) as fh:
        header = fh.readline().split()
        try:
            n = int(header[0].split("=")[1])
            d = int(header[1].split("=")[1])
        except (IndexError, ValueError):
            raise ValueError("malformed header: %r" % (header,))
        ranks = []
        weights = []
        for line in fh:
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            verts = tuple(int(p) for p in parts[:-1])
            if len(verts) != d + 1:
                raise ValueError("expected %d vertices: %r" % (d + 1, line))
            check_simplex(verts, n)
            ranks.append(rank_colex(verts))
            weights.append(float(parts[-1]))
    order = np.argsort(np.asarray(ranks, dtype=np.int64), kind="stable")
    ranks = np.asarray(ranks, dtype=np.int64)[order]
    if ranks.size and np.any(np.diff(ranks) == 0):
        raise ValueError("duplicate simplex in complex file")
    return WeightedComplex(n, d, ranks, np.asarray(weights)[order])


def _read_outcome(read, path, message=True):
    """The complex as exact bytes, or the error read raised (with its
    message if asked); a warning fails."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            X = read(path)
        except ValueError as exc:
            return "ValueError: %s" % exc if message else "ValueError"
    return (X.n, X.d, X.present.dtype.str, X.present.tobytes(),
            X.weights.dtype.str, X.weights.tobytes())


WEIGHTS = st.one_of(
    st.floats(0.0, allow_nan=False, allow_infinity=False),
    st.floats(0.0, 1e-300, allow_subnormal=True),
    st.floats(1e299, 1e301),
    st.sampled_from((0.0, 5e-324, 2.2250738585072014e-308, 1.0, 0.1,
                     1e300, 1.7976931348623157e308)))
EDITS = st.lists(st.tuples(st.integers(0, 1 << 16), st.sampled_from(
    ("", " ", "\t", "\n", "\r", ",", ".", "-", "+", "_", "e", "0", "1",
     "9", "#", "nan", "inf", "=", "\u0663", "\xa0", "\x0c"))), max_size=3)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(data=st.data())
def test_complex_file_matches_the_per_line_reference(data, tmp_path_factory):
    d = data.draw(st.integers(1, 4))
    n = data.draw(st.integers(d + 1, d + 6))
    ranks = sorted(data.draw(st.sets(
        st.integers(0, math.comb(n, d + 1) - 1), max_size=12)))
    # tie-heavy: repeat a few drawn weights
    pool = data.draw(st.lists(WEIGHTS, min_size=1, max_size=4))
    w = [data.draw(st.sampled_from(pool)) for _ in ranks]
    X = WeightedComplex(n, d, np.array(ranks, dtype=np.int64), np.array(w))
    tmp = tmp_path_factory.mktemp("cf")
    a, b = tmp / "a.txt", tmp / "b.txt"
    write_complex(a, X)
    ref_write_complex(b, X)
    text = b.read_text()
    assert a.read_bytes() == b.read_bytes()
    assert _read_outcome(read_complex, a) == _read_outcome(ref_read_complex, a)
    # shuffled lines and text edits: both readers accept the same files
    # and refuse the same ones, not always with the same message
    lines = text.split("\n")
    body = data.draw(st.permutations(lines[1:]))
    text = "\n".join([lines[0]] + list(body))
    for pos, piece in data.draw(EDITS):
        pos %= len(text) + 1
        cut = data.draw(st.integers(0, 1))
        text = text[:pos] + piece + text[pos + cut:]
    a.write_text(text)
    assert _read_outcome(read_complex, a, False) == \
        _read_outcome(ref_read_complex, a, False)


MALFORMED = {
    "vertex count": "n=5 d=1\n0,1,1.0\n0,1,2,1.0\n",
    "single field": "n=5 d=1\n0,1,1.0\n3\n",
    "unsorted": "n=5 d=1\n0,1,1.0\n2,1,1.0\n1,1,1.0\n",
    "out of range": "n=5 d=1\n0,1,1.0\n1,5,1.0\n-1,2,1.0\n",
    "duplicate": "n=5 d=1\n0,1,1.0\n2,3,1.0\n0,1,2.0\n",
    "non-numeric vertex": "n=5 d=1\n0,x,1.0\n",
    "non-numeric weight": "n=5 d=1\n0,1,heavy\n",
    "float vertex": "n=5 d=1\n0,1.0,1.0\n",
    "comment": "n=5 d=1\n# a comment\n0,1,1.0\n",
    "trailing comment": "n=5 d=1\n0,1,1.0 # weight\n",
    "header": "n=5\n0,1,1.0\n",
    "header value": "n=5 d=one\n0,1,1.0\n",
    "empty file": "",
    "d out of range": "n=5 d=5\n",
    "nan weight": "n=5 d=1\n0,1,nan\n",
    "infinite weight": "n=5 d=1\n0,1,inf\n",
    "negative weight": "n=5 d=1\n0,1,-1.0\n",
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_complex_file_refuses_malformed_bodies(case, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text(MALFORMED[case])
    want = _read_outcome(ref_read_complex, path)
    assert want.startswith("ValueError: ")
    assert _read_outcome(read_complex, path) == want


@pytest.mark.parametrize("text", ["n=5 d=1\n", "n=5 d=1", "n=5 d=1\n\n  \n",
                                  "n=5 d=1\n\n 3 , 4 ,2.5 \r\n\n0,1,1e0\n"])
def test_complex_file_accepts_blank_lines_and_empty_bodies(text, tmp_path):
    path = tmp_path / "ok.txt"
    path.write_text(text)
    got = _read_outcome(read_complex, path)
    assert not isinstance(got, str) and got == \
        _read_outcome(ref_read_complex, path)


def test_complex_file_ranks_at_the_int64_limit(tmp_path):
    # at d = 8, C(v, 9) passes 2^63 - 1 near v = 500: the reference fails
    # with OverflowError there, the reader with ValueError
    top = next(v for v in range(9, 1000) if math.comb(v, 9) >= 1 << 63)
    path = tmp_path / "big.txt"
    fits = tuple(range(8)) + (top - 1,)
    path.write_text("n=%d d=8\n%s,1.0\n" % (top + 1, ",".join(map(str, fits))))
    assert read_complex(path).present.tolist() == [rank_colex(fits)]
    for verts in (tuple(range(8)) + (top,), tuple(range(top - 9, top))):
        assert rank_colex(verts) >= 1 << 63
        path.write_text("n=%d d=8\n%s,1.0\n"
                        % (top + 1, ",".join(map(str, verts))))
        with pytest.raises(OverflowError):
            ref_read_complex(path)
        with pytest.raises(ValueError, match="int64"):
            read_complex(path)


def test_simplex_table_matches_brute_force():
    for n, d in [(6, 1), (6, 2), (7, 3)]:
        tbl = simplex_table(n, d)
        assert tbl.num_d == math.comb(n, d + 1)
        assert tbl.num_faces == math.comb(n, d)
        for r in range(tbl.num_d):
            tau = unrank_colex(r, d, n)
            assert tuple(tbl.verts[r]) == tau
            expect = [rank_colex(f) for f in faces(tau)]
            assert tbl.face_ranks[r].tolist() == expect
        for fr in range(tbl.num_faces):
            sigma = unrank_colex(fr, d - 1, n)
            expect = sorted(rank_colex(t) for t in cofacets(sigma, n))
            assert sorted(tbl.cofacet_ranks[fr].tolist()) == expect


def test_size_guard_names_the_count_and_the_limit():
    n = next(n for n in range(3, 10 ** 4)
             if math.comb(n, 3) > MAX_D_SIMPLICES)
    assert d_simplex_count(n - 1, 2) == math.comb(n - 1, 3)
    with pytest.raises(ValueError, match="C\\(%d, 3\\) = %d .* limit of %d"
                       % (n, math.comb(n, 3), MAX_D_SIMPLICES)):
        simplex_table(n, 2)
