"""Property tests: the vectorized colex routines, the per-complex face
index and the sample-level statistic evaluators against the scalar,
table-based and complex-based references they replaced."""
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rwcomplex import rng
from rwcomplex.sampling import (ForcedBits, ModelParams, PairedSample,
                                WeightDistribution, sample_complex)
from rwcomplex.simplices import (FaceIndex, WeightedComplex, _binomials,
                                 _cofacet_chunks, cofacet_minima, degree,
                                 face_rank_array,
                                 faces, rank_colex, simplex_table,
                                 unrank_colex, unrank_colex_array)
from rwcomplex.statistics import (LocalComplex, LocalFunctional,
                                  cocycle_count_bounded, f_alpha_faces,
                                  isolated_count, local_statistic_terms,
                                  make_statistic, nn_all_faces, nn_terms)
from rwcomplex.topology import (ball_k, bfs_distances, component_labels,
                                component_view, components, m_ball)

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
        franks = face_rank_array(ranks, k, n).tolist()
        assert franks == [[rank_colex(f) for f in faces(unrank_colex(r, k, n))]
                          for r in ranks]


def vertex_face_rank_array(verts, n):
    """Face ranks from a vertex matrix, as face_rank_array built them before
    it unranked its own ranks: column i deletes vertex i."""
    verts = np.asarray(verts, dtype=np.int64)
    m, k1 = verts.shape
    B = _binomials(n, k1 - 1)
    cols = np.arange(k1)
    ca = np.cumsum(B[cols + 1, verts], axis=1)   # C(v_j, j+1)
    cb = np.cumsum(B[cols, verts], axis=1)       # C(v_j, j)
    prefix = np.hstack([np.zeros((m, 1), dtype=np.int64), ca[:, :-1]])
    return prefix + (cb[:, -1:] - cb)


def assert_same_array(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@SETTINGS
@given(st.integers(1, 4), st.integers(0, 11), st.data())
def test_face_ranks_from_ranks_match_the_vertex_reference(d, extra, data):
    n = d + 1 + extra
    ranks = data.draw(st.lists(st.integers(0, math.comb(n, d + 1) - 1),
                               max_size=20))
    for r in (ranks, np.array(ranks, dtype=np.int64)):
        assert_same_array(face_rank_array(r, d, n), vertex_face_rank_array(
            unrank_colex_array(ranks, d, n), n))


def test_array_routines_where_binomials_pass_int64():
    # C(70, 35) exceeds int64, yet every rank of a 60-simplex over 70
    # vertices, and of its faces, fits
    ranks = [0, 12345, math.comb(70, 61) - 1]
    scalar = [unrank_colex(r, 60, 70) for r in ranks]
    verts = unrank_colex_array(ranks, 60, 70)
    assert [tuple(v) for v in verts.tolist()] == scalar
    assert face_rank_array(ranks, 60, 70).tolist() == \
        [[rank_colex(f) for f in faces(tau)] for tau in scalar]
    assert_same_array(face_rank_array(ranks, 60, 70),
                      vertex_face_rank_array(verts, 70))
    empty = np.empty(0, dtype=np.int64)
    assert_same_array(face_rank_array(empty, 60, 70), vertex_face_rank_array(
        unrank_colex_array(empty, 60, 70), 70))


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


@pytest.mark.parametrize("d", [1, 2, 3])
@settings(SETTINGS, max_examples=30)
@given(st.data())
def test_component_labels_match_bfs_reference_on_model_samples(d, data):
    # sparse, critical (about 1/d cofacets per face) and giant-component
    # complexes of the model, ids included, and the empty complex
    n = data.draw(st.integers(d + 2, {1: 80, 2: 36, 3: 18}[d]))
    lam = data.draw(st.sampled_from([0.2, 1.0 / d, 1.0, 3.0, 8.0]))
    X = sample_complex(ModelParams(n, d, min(1.0, lam / n),
                                   WeightDistribution("constant", 1.0)),
                       data.draw(st.integers(0, 2 ** 63 - 1)))
    for Y in (X, WeightedComplex(n, d, [], [])):
        labels = component_labels(Y)
        assert labels.dtype == np.int64
        assert dict(zip(Y.face_index.faces.tolist(), labels.tolist())) == \
            bfs_components(Y).labels


@settings(SETTINGS, max_examples=40)
@given(st.integers(0, 2 ** 64 - 1), st.sampled_from(
    [rng.BLOCK - 1, rng.BLOCK, rng.BLOCK + 1, 2 * rng.BLOCK + 3]),
    st.one_of(st.sampled_from([2.0 ** -53, 1.0 - 2.0 ** -53, 1.0 - 2.0 ** -32,
                               2.0 ** -20, 0.5]),
              st.floats(2.0 ** -40, 1.0, exclude_max=True)))
def test_ranks_below_matches_the_uniforms(key, count, p):
    # 1 - 2^-32 has L >> 33 = 2^31 - 1: every output is a candidate
    want = np.flatnonzero(rng.uniforms(key, np.arange(count)) < p)
    assert rng.ranks_below(key, count, p).tobytes() == want.tobytes()


def int64_face_index(face_rows):
    """faces, ptr, rows and simp of FaceIndex from the stable argsort of
    the int64 face ranks themselves."""
    flat = face_rows.ravel()
    order = flat.argsort(kind="stable")
    ranks = flat[order]
    new = np.ones(flat.size + 1, dtype=bool)
    np.not_equal(ranks[1:], ranks[:-1], out=new[1:-1])
    ptr = new.nonzero()[0]
    rows = np.empty(face_rows.shape, dtype=order.dtype)
    rows.ravel()[order] = new[:-1].cumsum() - 1
    return ranks[ptr[:-1]], ptr, rows, order // face_rows.shape[1]


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("n", [8, 60, 400, 3000])
@settings(SETTINGS, max_examples=20)
@given(st.data())
def test_face_index_matches_the_int64_argsort(d, n, data):
    # simplices on a few drawn vertices share faces; vertices counted down
    # from n - 1 give face ranks past 2^16 from n = 400, d = 2 on, and past
    # 2^32 at n = 3000, d = 3
    pool = sorted(n - 1 - v for v in data.draw(st.sets(
        st.integers(0, n - 1), min_size=d + 1, max_size=d + 7)))
    size = data.draw(st.integers(1, 40))
    tops = sorted(set(data.draw(st.lists(st.permutations(pool).map(
        lambda v: rank_colex(sorted(v[:d + 1]))), min_size=size,
        max_size=size))))
    X = WeightedComplex(n, d, tops, np.ones(len(tops)))
    index = FaceIndex(X.face_rows)
    for got, want in zip((index.faces, index.ptr, index.rows, index.simp),
                         int64_face_index(X.face_rows)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


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
@given(st.data(), st.integers(1, 4), st.booleans())
def test_cofacet_minima_match_the_table_gather(data, d, ties):
    # byte-identical to the gather over the table's cofacet ranks, for raw
    # uint64 stream outputs; values from a small set make ties the common
    # case, and the ends 0 and 2^64 - 1 (the start of the running minimum)
    # are among them.  A chunk target at or below the largest block
    # C(n-1, d) makes chunks of one block, of many blocks, and single
    # blocks larger than the target.
    n = data.draw(st.integers(d + 1, d + 9))
    nd = math.comb(n, d + 1)
    target = data.draw(st.one_of(st.just(rng.BLOCK),
                                 st.integers(1, math.comb(n - 1, d) + 1)))
    top = 2 ** 64 - 1
    values = st.sampled_from([0, 1, top - 1, top]) if ties \
        else st.one_of(st.integers(0, top), st.sampled_from([0, top]))
    w = np.array(data.draw(st.lists(values, min_size=nd, max_size=nd)),
                 dtype=np.uint64)
    want = w[simplex_table(n, d).cofacet_ranks].min(axis=1)
    calls, buffers = [], set()

    def fill(lo, out):      # raw values into the one buffer, as nn draws
        calls.append((lo, lo + out.size))
        buffers.add(out.base.ctypes.data)
        out[:] = w[lo:lo + out.size]
        return out

    with mock.patch.object(rng, "BLOCK", target):
        got = cofacet_minima(fill, n, d)
        first = calls[:], len(buffers)
        assert got.dtype == np.uint64 and got.tobytes() == want.tobytes()
        w[:] = top      # faces whose cofacets all hold 2^64 - 1 keep it
        assert set(cofacet_minima(fill, n, d).tolist()) == {top}
        chunks = _cofacet_chunks(n, d, target)
    # fill is called once per chunk, in one buffer; the chunks tile the
    # ranks in order, each whole top-vertex blocks of at most the target,
    # or one larger block
    windows = [(lo, hi) for lo, hi, _, _ in chunks]
    assert first == (windows, 1)
    edges = [0] + [hi for _, hi in windows]
    assert edges[-1] == nd and windows == list(zip(edges, edges[1:]))
    starts = {math.comb(c, d + 1) for c in range(n + 1)}
    for lo, hi in windows:
        assert {lo, hi} <= starts and hi > lo
        assert hi - lo <= target or not starts & set(range(lo + 1, hi))
    for _, _, tops, gaps in chunks:
        for arrays in gaps:
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
        s.all_weights()[simplex_table(n, d).cofacet_ranks].min(axis=1) \
        .tobytes()


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


# ---------------------------------------------------------------------------
# the sampler's forced bits and constant weights against the code they
# replaced

def union_resampled(s, F):
    """X^F as resampled built it when it applied each forced bit with
    union1d or setdiff1d."""
    nd = math.comb(s.params.n, s.params.d + 1)
    fset = np.unique(np.asarray(list(F), dtype=np.int64))
    present = rng.ranks_below(s._key(rng.TAG_B), nd, s.params.p)
    for r, v in (s.forced.b if s.forced else {}).items():
        if 0 <= r < nd:
            present = np.union1d(present, [r]) if v \
                else np.setdiff1d(present, [r])
    if fset.size:
        present = np.union1d(np.setdiff1d(present, fset),
                             fset[s.presence(fset, primed=True)])
    on_f = np.isin(present, fset)
    w = np.empty(present.size)
    w[~on_f] = s.weight_values(present[~on_f])
    w[on_f] = s.weight_values(present[on_f], primed=True)
    return present, w


@SETTINGS
@given(st.integers(1, 2), st.integers(0, 6),
       st.sampled_from([0.2, 0.6, 1.0]), st.integers(0, 2 ** 64 - 1),
       st.data())
def test_forced_bits_by_insertion_match_the_union_reference(d, extra, p,
                                                            seed, data):
    # bits forced on and off at present and absent ranks, and out of range
    n = d + 2 + extra
    params = ModelParams(n, d, p, WeightDistribution("exponential", 2.0))
    nd = params.num_d_simplices
    present = PairedSample(params, seed).complex().present.tolist()
    rank = st.integers(-3, nd + 3)
    if present:
        rank = st.one_of(st.sampled_from(present), rank)
    s = PairedSample(params, seed, ForcedBits(b=data.draw(
        st.dictionaries(rank, st.integers(0, 1), max_size=6))))
    for F in ([], data.draw(st.lists(st.integers(0, nd - 1), min_size=1,
                                     max_size=3))):
        X = s.resampled(F)
        want, w = union_resampled(s, F)
        assert_same_array(X.present, want)
        assert_same_array(X.weights, w)


@SETTINGS
@given(st.floats(0.0, 1e6), st.booleans(), st.integers(0, 2 ** 64 - 1),
       st.one_of(st.integers(0, 1 << 40),
                 st.integers(0, 1 << 40).map(np.int64),
                 st.lists(st.integers(0, 1 << 40), max_size=6),
                 st.lists(st.integers(0, 1 << 40), max_size=6).map(
                     lambda r: np.array(r, dtype=np.int64))))
@example(1.0, False, 0, np.empty(0, dtype=np.int64))
@example(2.5, True, 1, 7)
def test_constant_weights_draw_nothing_and_match_the_uniforms(
        value, primed, seed, ranks):
    params = ModelParams(50, 3, 0.5, WeightDistribution("constant", value))
    s = PairedSample(params, seed)
    tag = rng.TAG_WP if primed else rng.TAG_W
    want = params.dist.inverse_cdf(rng.uniforms(s._key(tag), ranks))
    with mock.patch.object(rng, "uniforms", side_effect=AssertionError):
        got = s.weight_values(ranks, primed=primed)
    assert type(got) is type(want)
    assert_same_array(np.asarray(got), np.asarray(want))


@SETTINGS
@given(st.floats(0.0, 1e6), st.integers(1, 3), st.integers(0, 12),
       st.integers(0, 2 ** 64 - 1))
def test_constant_all_weights_draw_nothing_and_match_the_uniforms(
        value, d, extra, seed):
    # at p = 1 the primary complex reads the contiguous weight stream
    params = ModelParams(d + 1 + extra, d, 1.0,
                         WeightDistribution("constant", value))
    s = PairedSample(params, seed)
    want = params.dist.inverse_cdf(rng.uniform_range(
        s._key(rng.TAG_W), params.num_d_simplices))
    with mock.patch.object(rng, "uniform_range", side_effect=AssertionError):
        assert_same_array(s.all_weights(), want)
        assert_same_array(s.complex().weights, want)
