import math
import random

import numpy as np

from rwcomplex.cohomology import coboundary_rows, rank_pm1
from rwcomplex.simplices import WeightedComplex
from rwcomplex.statistics import _localize, cocycle_count_bounded
from rwcomplex.topology import components, component_view


def random_complex(n, d, num, seed):
    rng = random.Random(seed)
    nd = math.comb(n, d + 1)
    ranks = sorted(rng.sample(range(nd), min(num, nd)))
    return WeightedComplex(n, d, np.array(ranks, dtype=np.int64),
                           np.ones(len(ranks)))


def rank_fraction_free(matrix):
    """Exact integer rank by fraction-free (Bareiss) elimination: the
    reference for rank_pm1, which eliminates modulo a prime."""
    rows = [list(map(int, row)) for row in matrix]
    if not rows:
        return 0
    nrows, ncols = len(rows), len(rows[0])
    rank = 0
    prev = 1
    for col in range(ncols):
        pivot = None
        for i in range(rank, nrows):
            if rows[i][col]:
                pivot = i
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        prow = rows[rank]
        for i in range(rank + 1, nrows):
            ri = rows[i]
            f = ri[col]
            for j in range(col, ncols):
                ri[j] = (prow[col] * ri[j] - f * prow[j]) // prev
        prev = prow[col]
        rank += 1
        if rank == nrows:
            break
    return rank


def exact_cocycle_dim(X, lower=None):
    """dim Z^{d-1} of X's d-simplices over the (d-1)-simplices of ranks
    `lower` (default: the full skeleton): f_{d-1} minus the Bareiss rank
    of the coboundary rows."""
    cols = range(math.comb(X.n, X.d)) if lower is None else lower.tolist()
    return len(cols) - rank_fraction_free(
        coboundary_rows(X.face_rows.tolist(), cols))


def local_cocycle_dim(C, lower):
    """dim Z^{d-1} of a component slice the way local statistics see it:
    _localize, then LocalComplex.cocycle_dimension (rank_pm1)."""
    return _localize(C, np.arange(C.num_present), lower).cocycle_dimension()


def test_rank_oracles_agree_on_random_sign_matrices():
    rng = random.Random(0)
    for _ in range(300):
        rows = rng.randrange(1, 7)
        cols = rng.randrange(1, 7)
        m = [[rng.choice([-1, 0, 0, 1]) for _ in range(cols)]
             for _ in range(rows)]
        assert rank_pm1(m) == rank_fraction_free(m)
    assert rank_pm1([]) == rank_fraction_free([]) == 0
    assert rank_pm1([[0, 0]]) == rank_fraction_free([[0, 0]]) == 0


def test_rank_known_values():
    assert rank_pm1([[1, 0], [0, 1]]) == 2
    assert rank_pm1([[1, 1], [1, 1]]) == 1
    assert rank_fraction_free([[1, 2, 3], [2, 4, 6], [1, 0, 1]]) == 2


def test_cocycle_dim_fast_equals_exact_on_random_components():
    checked = 0
    for seed in range(200):
        X = random_complex(7, 2, 6, seed=seed)
        lab = components(X)
        for cid in range(len(lab.comp_faces)):
            C, lower = component_view(X, lab, cid)
            assert local_cocycle_dim(C, lower) == exact_cocycle_dim(C, lower)
            checked += 1
    assert checked >= 200


def test_d1_component_cocycle_dim_is_one():
    # for a connected graph component, the degree-0 cocycles are the
    # constants: dimension exactly 1
    for seed in range(50):
        X = random_complex(8, 1, 7, seed=seed)
        lab = components(X)
        for cid in range(len(lab.comp_faces)):
            assert local_cocycle_dim(*component_view(X, lab, cid)) == 1


def test_d1_full_skeleton_counts_graph_components():
    # over the full vertex set, dim Z^0 = number of connected components
    # of the graph, isolated vertices included
    for seed in range(30):
        n = 7
        X = random_complex(n, 1, 6, seed=100 + seed)
        lab = components(X)
        assert exact_cocycle_dim(X) == lab.num_components
        assert cocycle_count_bounded(X, M=n) == lab.num_components


def test_additivity_over_components():
    # sum of component cocycle dimensions (singletons contributing 1)
    # equals the cocycle dimension of the whole complex
    for seed in range(40):
        n, d = (7, 2) if seed % 2 else (8, 1)
        X = random_complex(n, d, 7, seed=seed)
        lab = components(X)
        parts = sum(local_cocycle_dim(*component_view(X, lab, cid))
                    for cid in range(len(lab.comp_faces)))
        total = cocycle_count_bounded(X, M=math.comb(n, d))
        assert total == exact_cocycle_dim(X) == parts + lab.num_singletons


def test_coboundary_signs():
    # single triangle: rows follow deletion order with alternating signs
    X = random_complex(5, 2, 1, seed=5)
    m = coboundary_rows(X.face_rows.tolist(), range(math.comb(5, 2)))
    assert len(m) == 1
    assert sorted(x for x in m[0] if x) == [-1, 1, 1]
    assert sum(abs(x) for x in m[0]) == 3
    assert [m[0][f] for f in X.face_rows[0].tolist()] == [1, -1, 1]
