import math
import random

import numpy as np

from rwcomplex.cohomology import (coboundary_matrix, cocycle_dim,
                                  rank_fraction_free, rank_mod_p, rank_pm1)
from rwcomplex.simplices import SubComplexView, WeightedComplex
from rwcomplex.statistics import cocycle_count_bounded
from rwcomplex.topology import components, component_view


def random_complex(n, d, num, seed):
    rng = random.Random(seed)
    nd = math.comb(n, d + 1)
    ranks = sorted(rng.sample(range(nd), min(num, nd)))
    return WeightedComplex(n, d, np.array(ranks, dtype=np.int64),
                           np.ones(len(ranks)))


def test_rank_oracles_agree_on_random_sign_matrices():
    rng = random.Random(0)
    for _ in range(300):
        rows = rng.randrange(1, 7)
        cols = rng.randrange(1, 7)
        m = [[rng.choice([-1, 0, 0, 1]) for _ in range(cols)]
             for _ in range(rows)]
        assert rank_mod_p(m) == rank_fraction_free(m)
    assert rank_pm1([]) == 0
    assert rank_pm1([[0, 0]], exact=True) == 0


def test_rank_known_values():
    assert rank_mod_p([[1, 0], [0, 1]]) == 2
    assert rank_mod_p([[1, 1], [1, 1]]) == 1
    assert rank_fraction_free([[1, 2, 3], [2, 4, 6], [1, 0, 1]]) == 2


def test_cocycle_dim_fast_equals_exact_on_random_components():
    checked = 0
    for seed in range(200):
        X = random_complex(7, 2, 6, seed=seed)
        lab = components(X)
        for cid in range(len(lab.comp_faces)):
            view = component_view(X, lab, cid)
            assert cocycle_dim(view) == cocycle_dim(view, exact=True)
            checked += 1
    assert checked >= 200


def test_d1_component_cocycle_dim_is_one():
    # for a connected graph component, the degree-0 cocycles are the
    # constants: dimension exactly 1
    for seed in range(50):
        X = random_complex(8, 1, 7, seed=seed)
        lab = components(X)
        for cid in range(len(lab.comp_faces)):
            assert cocycle_dim(component_view(X, lab, cid)) == 1


def test_d1_full_skeleton_counts_graph_components():
    # over the full vertex set, dim Z^0 = number of connected components
    # of the graph, isolated vertices included
    for seed in range(30):
        n = 7
        X = random_complex(n, 1, 6, seed=100 + seed)
        view = SubComplexView(n, 1, tuple(int(r) for r in X.present),
                              tuple(X.weights), lower_faces=None)
        lab = components(X)
        assert cocycle_dim(view) == lab.num_components


def test_additivity_over_components():
    # sum of component cocycle dimensions (singletons contributing 1)
    # equals the cocycle dimension of the whole complex
    for seed in range(40):
        n, d = (7, 2) if seed % 2 else (8, 1)
        X = random_complex(n, d, 7, seed=seed)
        whole = SubComplexView(n, d, tuple(int(r) for r in X.present),
                               tuple(X.weights), lower_faces=None)
        total = cocycle_count_bounded(X, M=math.comb(n, d))
        assert total == cocycle_dim(whole)


def test_coboundary_signs():
    # single triangle: rows follow deletion order with alternating signs
    X = random_complex(5, 2, 1, seed=5)
    view = SubComplexView(5, 2, (int(X.present[0]),), (1.0,),
                          lower_faces=None)
    m = coboundary_matrix(view)
    assert len(m) == 1
    assert sorted(x for x in m[0] if x) == [-1, 1, 1]
    assert sum(abs(x) for x in m[0]) == 3

