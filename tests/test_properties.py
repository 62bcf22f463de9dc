"""Property tests: the vectorized colex routines and the per-complex face
index against the scalar and table-based references they replaced."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rwcomplex.cohomology import cocycle_dim
from rwcomplex.simplices import (WeightedComplex, face_rank_array, faces,
                                 rank_colex, simplex_table, unrank_colex,
                                 unrank_colex_array)
from rwcomplex.statistics import (cocycle_count_bounded, f_alpha_faces,
                                  isolated_count, nn_terms)
from rwcomplex.topology import bfs_distances, component_view, components

from test_topology import distinct_path_distance

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
def complexes(draw, max_n=9, max_d=3, max_present=14):
    n = draw(st.integers(3, max_n))
    d = draw(st.integers(1, min(n - 1, max_d)))
    nd = math.comb(n, d + 1)
    ranks = sorted(draw(st.sets(st.integers(0, nd - 1),
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


@SETTINGS
@given(complexes(), st.integers(1, 8))
def test_cocycle_count_matches_exact_component_sum(X, M):
    lab = components(X)
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
