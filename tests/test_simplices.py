import itertools
import math
import random

import numpy as np
import pytest

from rwcomplex.simplices import (MAX_D_SIMPLICES, SubComplexView,
                                 WeightedComplex, cofacet_ranks, cofacets,
                                 d_simplex_count, degree, faces, rank_colex,
                                 read_complex, simplex_table, unrank_colex,
                                 write_complex)


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


def test_unrank_range_check():
    with pytest.raises(ValueError):
        unrank_colex(math.comb(6, 3), 2, 6)
    with pytest.raises(ValueError):
        unrank_colex(-1, 2, 6)


def test_faces_deletion_order():
    assert faces((0, 1, 2)) == [(1, 2), (0, 2), (0, 1)]
    assert faces((2, 5)) == [(5,), (2,)]


def test_cofacets_and_degree():
    n = 6
    cof = cofacets((1, 3), n)
    assert len(cof) == n - 2
    assert all(set((1, 3)) < set(t) for t in cof)
    ranks = cofacet_ranks((1, 3), n)
    assert sorted(ranks.tolist()) == ranks.tolist()

    X = WeightedComplex(6, 2, np.array([rank_colex((1, 3, 4))]),
                        np.array([0.5]))
    assert degree(X, (1, 3)) == 1
    assert degree(X, (0, 1)) == 0


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


def test_subcomplex_view_face_validation():
    r = rank_colex((0, 1, 2))
    with pytest.raises(ValueError):
        SubComplexView(5, 2, (r,), (1.0,), lower_faces=frozenset())
    view = SubComplexView(5, 2, (r,), (1.0,),
                          lower_faces=frozenset(rank_colex(f)
                                                for f in faces((0, 1, 2))))
    assert view.face_count() == 3
    assert view.as_complex().num_present == 1
