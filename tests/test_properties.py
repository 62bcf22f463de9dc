"""Property tests: the vectorized colex routines, the per-complex face
index and the sample-level statistic evaluators against the scalar,
table-based and complex-based references they replaced."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rwcomplex.cohomology import cocycle_dim
from rwcomplex.sampling import ModelParams, PairedSample, WeightDistribution
from rwcomplex.simplices import (WeightedComplex, _cofacet_plan,
                                 cofacet_minima, degree, face_rank_array,
                                 faces, rank_colex, simplex_table,
                                 unrank_colex, unrank_colex_array)
from rwcomplex.statistics import (cocycle_count_bounded, f_alpha_faces,
                                  isolated_count, make_statistic, nn_terms)
from rwcomplex.topology import (ball_k, bfs_distances, component_view,
                                components, m_ball)

from test_topology import (bfs_components, dict_ball, dict_bfs,
                           distinct_path_distance, face_adjacency)

SETTINGS = settings(derandomize=True, deadline=None, max_examples=60)


@st.composite
def ranks_of(draw, max_n=40, max_k=5):
    """(ranks, k, n): a list of valid k-simplex ranks over n vertices."""
    n = draw(st.integers(1, max_n))
    k = draw(st.integers(0, min(n - 1, max_k)))
    top = math.comb(n, k + 1) - 1
    ranks = draw(st.lists(st.integers(0, top), max_size=20))
    return ranks, k, n


@st.composite
def complexes(draw, max_n=9, min_d=1, max_d=3, min_present=0,
              max_present=14):
    n = draw(st.integers(min_d + 2, max_n))
    d = draw(st.integers(min_d, min(n - 1, max_d)))
    nd = math.comb(n, d + 1)
    ranks = sorted(draw(st.sets(st.integers(0, nd - 1),
                                min_size=min(nd, min_present),
                                max_size=min(nd, max_present))))
    weights = draw(st.lists(st.floats(0.0, 5.0), min_size=len(ranks),
                            max_size=len(ranks)))
    return WeightedComplex(n, d, np.array(ranks, dtype=np.int64),
                           np.array(weights, dtype=np.float64))


@SETTINGS
@given(ranks_of())
def test_array_unrank_and_face_ranks_match_scalar(case):
    ranks, k, n = case
    verts = unrank_colex_array(ranks, k, n)
    assert verts.shape == (len(ranks), k + 1)
    assert [tuple(v) for v in verts.tolist()] == \
        [unrank_colex(r, k, n) for r in ranks]
    if k >= 1:
        franks = face_rank_array(verts, n).tolist()
        assert franks == [[rank_colex(f) for f in faces(unrank_colex(r, k, n))]
                          for r in ranks]


def test_array_routines_where_binomials_pass_int64():
    # C(70, 35) exceeds int64, yet every rank of a 60-simplex over 70
    # vertices, and of its faces, fits
    ranks = [0, 12345, math.comb(70, 61) - 1]
    scalar = [unrank_colex(r, 60, 70) for r in ranks]
    verts = unrank_colex_array(ranks, 60, 70)
    assert [tuple(v) for v in verts.tolist()] == scalar
    assert face_rank_array(verts, 70).tolist() == \
        [[rank_colex(f) for f in faces(tau)] for tau in scalar]


@SETTINGS
@given(complexes(max_n=6, max_d=2, max_present=6), st.data())
def test_index_bfs_matches_distinct_path_metric(X, data):
    src = data.draw(st.integers(0, math.comb(X.n, X.d) - 1))
    dist = bfs_distances(X, src)
    for dst in range(math.comb(X.n, X.d)):
        got = dist.get(dst)
        assert (got if got is not None and got <= 6 else None) == \
            distinct_path_distance(X, src, dst, max_len=6)


@pytest.mark.parametrize("d", [1, 2, 3])
@SETTINGS
@given(st.data())
def test_balls_and_degrees_match_the_dict_reference(d, data):
    X = data.draw(complexes(min_d=d, max_d=d))
    n = X.n
    tau = data.draw(st.integers(0, math.comb(n, d + 1) - 1))
    sigma = data.draw(st.integers(0, math.comb(n, d) - 1))
    # X + tau and X - tau take their face rows from X's
    for Y in (X, X.with_simplex(tau, 0.5), X.without_simplex(tau)):
        adj = face_adjacency(Y)
        for s in range(math.comb(n, d)):
            assert degree(Y, unrank_colex(s, d - 1, n)) == \
                len(adj.get(s, ()))
        assert bfs_distances(Y, sigma) == dict_bfs(adj, sigma)
        centers = (unrank_colex(tau, d, n), unrank_colex(sigma, d - 1, n))
        for center in centers:
            for k in range(4):
                check_view(Y, ball_k(Y, center, k),
                           dict_ball(Y, center, k)[0], None)
            for M in range(1, 4):
                check_view(Y, m_ball(Y, center, M), *dict_ball(Y, center, M))


def check_view(X, view, included, lower):
    assert view.included == tuple(included)
    assert view.weights == tuple(X.weight_of(r) for r in included)
    assert view.lower_faces == (None if lower is None else frozenset(lower))
    assert view.face_rows.tolist() == \
        [[rank_colex(f) for f in faces(unrank_colex(r, X.d, X.n))]
         for r in included]


# n <= 8 and d = 2 with at least 10 present triangles: dense enough that
# peeling leaves nonempty cores (closed surfaces, tetrahedron boundaries)
dense_complexes = complexes(max_n=8, min_d=2, max_d=2, min_present=10,
                            max_present=24)


@pytest.mark.parametrize("d", [1, 2, 3])
@SETTINGS
@given(st.data())
def test_components_match_bfs_reference(d, data):
    X = data.draw(complexes(min_d=d, max_d=d))
    assert components(X) == bfs_components(X)


@SETTINGS
@given(complexes(), st.integers(1, 8))
def test_cocycle_count_matches_exact_component_sum(X, M):
    check_cocycle_count(X, M)


@SETTINGS
@given(dense_complexes, st.integers(1, 30))
def test_cocycle_count_matches_exact_component_sum_when_dense(X, M):
    check_cocycle_count(X, M)


def check_cocycle_count(X, M):
    """cocycle_count_bounded against singletons plus the exact cocycle
    dimension of each small enough component of the BFS reference."""
    lab = bfs_components(X)
    want = lab.num_singletons
    for cid, comp in enumerate(lab.comp_faces):
        view = component_view(X, lab, cid)
        assert view.face_rows.tolist() == \
            [[rank_colex(f) for f in faces(unrank_colex(r, X.d, X.n))]
             for r in view.included]
        if len(comp) <= M:
            want += cocycle_dim(view, exact=True)
    assert cocycle_count_bounded(X, M) == want


@SETTINGS
@given(complexes(), st.floats(0.01, 6.0))
def test_face_statistics_match_table_lookups(X, alpha):
    tbl = simplex_table(X.n, X.d)
    fr = tbl.face_ranks[X.present]
    assert isolated_count(X) == tbl.num_faces - np.unique(fr).size
    acc = np.full(tbl.num_faces, alpha)
    np.minimum.at(acc, fr.ravel(),
                  np.repeat(np.minimum(X.weights, alpha), X.d + 1))
    assert f_alpha_faces(X, alpha).tobytes() == acc.tobytes()
    nearest = np.full(tbl.num_faces, np.inf)
    np.minimum.at(nearest, fr.ravel(), np.repeat(X.weights, X.d + 1))
    if np.isinf(nearest).any():
        with pytest.raises(ValueError):
            nn_terms(X)
    else:
        assert nn_terms(X) == nearest.tolist()


@SETTINGS
@given(st.data(), st.integers(1, 4), st.booleans())
def test_cofacet_minima_match_the_table_gather(data, d, ties):
    # byte-identical to the gather over the table's cofacet ranks; integer
    # weights from a small set make ties the common case
    n = data.draw(st.integers(d + 1, d + 9))
    nd = math.comb(n, d + 1)
    values = st.integers(0, 3).map(float) if ties \
        else st.floats(0.0, 1e6, allow_subnormal=True)
    w = np.array(data.draw(st.lists(values, min_size=nd, max_size=nd)))
    want = w[simplex_table(n, d).cofacet_ranks].min(axis=1)
    assert cofacet_minima(w, n, d).tobytes() == want.tobytes()
    for arrays in _cofacet_plan(n, d):
        for a in arrays:
            assert a is None or not a.flags.writeable


BUILTIN_SPECS = ["nn", "nn-alpha:0.5", "nn-alpha:4", "isolated", "cocycle:1",
                 "cocycle:5", "betti:3", "local:isolated:1",
                 "local:cocycle-ratio:2"]


@pytest.mark.parametrize("spec", BUILTIN_SPECS)
@settings(SETTINGS, max_examples=15)
@given(st.integers(3, 8), st.integers(1, 3), st.sampled_from([0.15, 0.4, 1.0]),
       st.integers(0, 2 ** 63 - 1))
def test_sample_value_matches_evaluate_of_the_complex(spec, n, d, p, seed):
    params = ModelParams(n, min(d, n - 1), p,
                         WeightDistribution("exponential", float(n)))
    stat = make_statistic(spec, params)
    s = PairedSample(params, seed)
    if spec == "nn" and p == 1.0:
        # pairwise sum of the face minima against their fsum
        assert stat.sample_fn is not None
        assert math.isclose(stat.sample_value(s), stat.evaluate(s.complex()),
                            rel_tol=1e-12)
        return
    try:
        want = stat.evaluate(s.complex())
    except ValueError:     # nn with a face of degree zero
        with pytest.raises(ValueError):
            stat.sample_value(s)
        return
    assert stat.sample_value(s) == want
