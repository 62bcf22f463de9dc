"""Property tests: the vectorized colex routines, the per-complex face
index and the sample-level statistic evaluators against the scalar,
table-based and complex-based references they replaced."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rwcomplex.sampling import ModelParams, PairedSample, WeightDistribution
from rwcomplex.simplices import (WeightedComplex, _cofacet_plan,
                                 cofacet_minima, degree, face_rank_array,
                                 faces, rank_colex, simplex_table,
                                 unrank_colex, unrank_colex_array)
from rwcomplex.statistics import (LocalComplex, LocalFunctional,
                                  cocycle_count_bounded, f_alpha_faces,
                                  isolated_count, local_statistic_terms,
                                  make_statistic, nn_all_faces, nn_terms)
from rwcomplex.topology import (ball_k, bfs_distances, component_view,
                                components, m_ball)

from test_cohomology import exact_cocycle_dim
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
                check_slice(Y, ball_k(Y, center, k),
                            dict_ball(Y, center, k)[0])
            for M in range(1, 4):
                B, lower = m_ball(Y, center, M)
                included, want = dict_ball(Y, center, M)
                check_slice(Y, B, included)
                assert lower.dtype == np.int64
                assert lower.tolist() == sorted(want)


@pytest.mark.parametrize("d", [1, 2, 3])
@SETTINGS
@given(st.data())
def test_ball_of_x_plus_tau_is_ball_of_x_minus_tau_plus_tau(d, data):
    # what lets one walk of X serve both balls of a difference: tau's faces
    # are all sources, so tau shortens no path; at k = 0 both are empty
    X = data.draw(complexes(min_d=d, max_d=d))
    tau = data.draw(st.integers(0, math.comb(X.n, d + 1) - 1))
    center = unrank_colex(tau, d, X.n)
    for k in range(4):
        plus = ball_k(X.with_simplex(tau, 0.5), center, k)
        minus = ball_k(X.without_simplex(tau), center, k)
        of_x = ball_k(X, center, k)
        assert dict(zip(plus.present.tolist(), plus.weights.tolist())) == \
            {**dict(zip(minus.present.tolist(), minus.weights.tolist())),
             **({tau: 0.5} if k else {})}
        assert set(of_x.present.tolist()) - {tau} == \
            set(minus.present.tolist())
        if k == 0:
            assert plus.num_present == minus.num_present == 0


def check_slice(X, B, included):
    """B holds the present simplices `included` of X, with X's weights
    and their face rows, over X's vertex set."""
    assert (B.n, B.d) == (X.n, X.d)
    assert B.present.tolist() == list(included)
    assert B.weights.tolist() == [X.weight_of(r) for r in included]
    assert B.face_rows.tolist() == \
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


@pytest.mark.parametrize("d", [1, 2, 3])
@SETTINGS
@given(st.data())
def test_components_of_long_strips_match_bfs_reference(d, data):
    # strips of d-simplices {i, ..., i + d} under a random vertex order:
    # paths of up to ~60 steps, where hooking bounds the label rounds
    length = data.draw(st.integers(1, 60))
    n = length + d
    perm = data.draw(st.permutations(range(n)))
    gaps = data.draw(st.sets(st.integers(0, length - 1), max_size=3))
    ranks = sorted(rank_colex(tuple(sorted(perm[i:i + d + 1])))
                   for i in range(length) if i not in gaps)
    X = WeightedComplex(n, d, np.array(ranks, dtype=np.int64),
                        np.ones(len(ranks)))
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
        C, lower = component_view(X, lab, cid)
        check_slice(X, C, sorted(lab.comp_simplices[cid]))
        assert lower.tolist() == sorted(comp)
        if len(comp) <= M:
            want += exact_cocycle_dim(C, lower)
    assert cocycle_count_bounded(X, M) == want


def ref_localize(X, included, lower):
    """The subcomplex of X with the d-simplices of ranks `included` and the
    (d-1)-simplices of ranks `lower`, relabeled in pure Python: vertices
    renumbered 0, 1, ... in increasing order, the lower faces sorted, the
    d-simplices sorted together with their weights."""
    tops = [unrank_colex(r, X.d, X.n) for r in included]
    lows = [unrank_colex(r, X.d - 1, X.n) for r in lower]
    used = sorted({v for s in tops + lows for v in s})
    new = dict(zip(used, range(len(used))))

    def relabel(s):
        return tuple(new[v] for v in s)
    top = sorted((relabel(t), X.weight_of(r)) for t, r in zip(tops, included))
    return LocalComplex(X.d, tuple(sorted(map(relabel, lows))),
                        tuple(t for t, _ in top), tuple(w for _, w in top))


@pytest.mark.parametrize("d", [1, 2, 3])
@SETTINGS
@given(st.data())
def test_local_terms_hand_g_the_reference_m_balls(d, data):
    # g sees, at every covered face in rank order, the relabeled M-ball of
    # the dict reference, and then the singleton complex once
    X = data.draw(complexes(min_d=d, max_d=d))
    covered = X.face_index.faces.tolist()
    for M in (1, 2, 3):
        seen = []

        def g(local):
            seen.append(local)
            return 0.0
        local_statistic_terms(X, LocalFunctional("record", g, M))
        assert seen == [ref_localize(X, *dict_ball(
            X, unrank_colex(s, d - 1, X.n), M)) for s in covered] + \
            [LocalComplex(d, (tuple(range(d)),), (), ())]


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
@given(st.data(), st.integers(1, 4), st.booleans(), st.booleans())
def test_cofacet_minima_match_the_table_gather(data, d, ties, raw):
    # byte-identical to the gather over the table's cofacet ranks, for float
    # weights and for raw uint64 stream outputs; values from a small set
    # make ties the common case, and the uint64 ends 0 and 2^64 - 1 (the
    # start of the running minimum) are among them
    n = data.draw(st.integers(d + 1, d + 9))
    nd = math.comb(n, d + 1)
    if raw:
        top = 2 ** 64 - 1
        values = st.sampled_from([0, 1, top - 1, top]) if ties \
            else st.one_of(st.integers(0, top), st.sampled_from([0, top]))
    else:
        values = st.integers(0, 3).map(float) if ties \
            else st.floats(0.0, 1e6, allow_subnormal=True)
    w = np.array(data.draw(st.lists(values, min_size=nd, max_size=nd)),
                 dtype=np.uint64 if raw else np.float64)
    want = w[simplex_table(n, d).cofacet_ranks].min(axis=1)
    got = cofacet_minima(w, n, d)
    assert got.dtype == w.dtype and got.tobytes() == want.tobytes()
    if raw:     # faces whose cofacets all hold 2^64 - 1 keep it
        w[:] = top
        assert set(cofacet_minima(w, n, d).tolist()) == {top}
    for arrays in _cofacet_plan(n, d):
        for a in arrays:
            assert a is None or not a.flags.writeable


@settings(SETTINGS, max_examples=200)
@given(st.integers(1, 4), st.data(), st.integers(0, 2 ** 63 - 1))
def test_nn_all_faces_is_the_minimum_of_all_weights(d, data, seed):
    # the inverse CDF after the raw-bit minimum is bit-identical to the
    # minimum of the weights; few cofacets (n close to d) make large face
    # minima common, where a cap bends the exponential law most
    n = data.draw(st.integers(d + 1, d + 9))
    dist = data.draw(st.one_of(
        st.floats(0.1, 200.0).map(
            lambda t: WeightDistribution("exponential", t)),
        st.tuples(st.floats(0.1, 50.0), st.floats(0.05, 5.0)).map(
            lambda tc: WeightDistribution("exponential", tc[0],
                                          cap=tc[0] * tc[1])),
        st.floats(0.1, 10.0).map(lambda b: WeightDistribution("uniform", b)),
        st.floats(0.0, 3.0).map(lambda c: WeightDistribution("constant", c))))
    s = PairedSample(ModelParams(n, d, 1.0, dist), seed)
    assert nn_all_faces(s).tobytes() == \
        cofacet_minima(s.all_weights(), n, d).tobytes()


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
