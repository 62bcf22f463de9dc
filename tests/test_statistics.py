import math
import random

import numpy as np
import pytest

from rwcomplex.sampling import (ModelParams, PairedSample, WeightDistribution,
                                exp_mean_n, sample_complex)
from rwcomplex.simplices import (WeightedComplex, cofacet_ranks, cofacets,
                                 rank_colex, unrank_colex)
from rwcomplex.statistics import (LocalComplex, betti_bounded,
                                  cocycle_count_bounded, f_alpha,
                                  f_alpha_faces, isolated_count,
                                  local_statistic,
                                  LocalFunctional, g_no_top_simplex,
                                  make_cocycle_ratio, make_statistic,
                                  nn_terms, nn_total, nn_total_complex)
from rwcomplex.topology import component_view

from test_cohomology import exact_cocycle_dim
from test_topology import bfs_components


def random_complex(n, d, num, seed, weights=True):
    rng = random.Random(seed)
    nd = math.comb(n, d + 1)
    ranks = sorted(rng.sample(range(nd), min(num, nd)))
    w = [rng.expovariate(0.5) if weights else 1.0 for _ in ranks]
    return WeightedComplex(n, d, np.array(ranks, dtype=np.int64), np.array(w))


def permuted(X, perm):
    """The complex with vertices relabeled by perm (a weighted isomorphism)."""
    pairs = []
    for r, w in zip(X.present, X.weights):
        verts = tuple(sorted(perm[v] for v in unrank_colex(int(r), X.d, X.n)))
        pairs.append((rank_colex(verts), w))
    pairs.sort()
    return WeightedComplex(X.n, X.d,
                           np.array([p[0] for p in pairs], dtype=np.int64),
                           np.array([p[1] for p in pairs]))


# ---------------------------------------------------------------------------
# nearest face-weights

def nn_face(s, sigma):
    # the minimum weight over the cofacets of one (d-1)-simplex
    return float(s.weight_values(cofacet_ranks(sigma, s.params.n)).min())


def test_nn_total_matches_brute_force():
    params = exp_mean_n(9, 2)
    s = PairedSample(params, 13)
    w = s.weight_values(np.arange(params.num_d_simplices))
    brute = 0.0
    for fr in range(math.comb(9, 2)):
        sigma = unrank_colex(fr, 1, 9)
        brute += min(w[rank_colex(t)] for t in cofacets(sigma, 9))
        assert nn_face(s, sigma) == pytest.approx(
            min(w[rank_colex(t)] for t in cofacets(sigma, 9)))
    assert nn_total(s) == pytest.approx(brute)
    # the materialized-complex evaluator agrees with the stream evaluator
    X = s.complex()
    assert nn_total_complex(X) == pytest.approx(nn_total(s))


def test_nn_requires_complete_cover():
    X = random_complex(6, 1, 3, seed=2)
    with pytest.raises(ValueError):
        nn_total_complex(X)
    params = ModelParams(6, 1, 0.5, WeightDistribution("exponential", 6.0))
    with pytest.raises(ValueError):
        nn_total(PairedSample(params, 0))


def test_f_alpha_matches_brute_force():
    alpha = 1.7
    for seed in range(20):
        X = random_complex(7, 2, 8, seed=seed)
        brute = 0.0
        for fr in range(math.comb(7, 2)):
            sigma = unrank_colex(fr, 1, 7)
            vals = [min(X.weight_of(rank_colex(t)), alpha)
                    for t in cofacets(sigma, 7) if X.has(rank_colex(t))]
            brute += min(vals) if vals else alpha
        assert f_alpha(X, alpha) == pytest.approx(brute)


def test_f_alpha_cap():
    # with every weight above alpha, f^alpha is alpha per face
    X = random_complex(6, 1, 5, seed=4)
    Y = WeightedComplex(6, 1, X.present, X.weights + 100.0)
    assert f_alpha(Y, 0.5) == pytest.approx(0.5 * math.comb(6, 1))


def test_alpha_bounds():
    # the grammar takes a finite positive alpha; the per-face values also
    # take alpha = inf, the uncapped minimum that nn_terms reads
    params = ModelParams(6, 1, 0.5, WeightDistribution("constant", 1.0))
    for bad in ("nan", "inf", "-inf", "0", "-1"):
        with pytest.raises(ValueError, match="finite and positive"):
            make_statistic("nn-alpha:" + bad, params)
    X = random_complex(6, 1, 5, seed=4)
    for bad in (math.nan, 0.0, -1.0):
        with pytest.raises(ValueError, match="positive"):
            f_alpha(X, bad)
    edge = WeightedComplex(6, 1, np.array([0]), np.array([2.0]))
    assert f_alpha_faces(edge, math.inf).tolist() == \
        [2.0, 2.0] + [math.inf] * 4


def test_isolated_count_brute_force():
    for seed in range(20):
        X = random_complex(7, 2, 6, seed=seed)
        brute = sum(1 for fr in range(math.comb(7, 2))
                    if not any(X.has(rank_colex(t))
                               for t in cofacets(unrank_colex(fr, 1, 7), 7)))
        assert isolated_count(X) == brute
    empty = WeightedComplex(7, 2, np.array([], dtype=np.int64), np.array([]))
    assert isolated_count(empty) == math.comb(7, 2)


# ---------------------------------------------------------------------------
# local statistics

def test_local_isolated_equals_isolated_count():
    lf = LocalFunctional("isolated", g_no_top_simplex, M=1)
    for seed in range(15):
        X = random_complex(7, 2, 6, seed=seed)
        assert local_statistic(X, lf) == float(isolated_count(X))


def test_local_statistic_ignores_earlier_functionals_of_the_same_name():
    # the singleton term belongs to g, not to the functional's name
    params = ModelParams(8, 2, 0.1, WeightDistribution("constant", 1.0))
    X = PairedSample(params, 1).complex()
    assert isolated_count(X) > 0  # some faces see the singleton complex
    make_statistic("local:isolated:1", params).evaluate(X)
    seven = LocalFunctional("isolated", lambda loc: 7.0, 1)
    assert local_statistic(X, seven) == 7.0 * math.comb(8, 2)


def test_local_complex_weights_follow_their_simplices():
    # (1,2,3) precedes (0,1,4) in rank order but not after relabeling
    w = {(0, 1, 2): 1.0, (1, 2, 3): 2.0, (0, 1, 4): 3.0}
    pairs = sorted((rank_colex(t), x) for t, x in w.items())
    X = WeightedComplex(6, 2, np.array([r for r, _ in pairs]),
                        np.array([x for _, x in pairs]))
    seen = []

    def g(loc):
        seen.append(dict(zip(loc.top, loc.weights)))
        return 0.0
    local_statistic(X, LocalFunctional("weights", g, 3))
    assert w in seen  # the ball around (1, 2) holds all three


def test_cocycle_ratio_on_explicit_complexes():
    g = make_cocycle_ratio(M=5)
    single = LocalComplex(2, ((0, 1),), (), ())
    assert g(single) == 1.0
    tri = LocalComplex(2, ((0, 1), (0, 2), (1, 2)), ((0, 1, 2),), (1.0,))
    # one triangle: dim Z = 3 - 1 = 2 over 3 faces
    assert g(tri) == pytest.approx(2.0 / 3.0)
    big = LocalComplex(2, tuple((i, i + 1) for i in range(6)), (), ())
    assert g(big) == 0.0  # gated: f_{d-1} > M


def test_local_statistic_terms_sum():
    from rwcomplex.statistics import local_statistic_terms
    lf = LocalFunctional("cocycle-ratio", make_cocycle_ratio(3), M=3)
    X = random_complex(7, 2, 6, seed=8)
    terms = local_statistic_terms(X, lf)
    assert len(terms) == math.comb(7, 2)
    assert math.fsum(terms) == pytest.approx(local_statistic(X, lf))


def test_local_statistic_terms_walk_face_ranks_without_unranking(
        monkeypatch):
    from rwcomplex import simplices, statistics, topology
    from rwcomplex.topology import m_ball
    lf = LocalFunctional("cocycle-ratio", make_cocycle_ratio(3), M=2)
    X = random_complex(9, 2, 14, seed=3)
    single = LocalComplex(2, ((0, 1),), (), ())
    balls = [m_ball(X, unrank_colex(fr, 1, 9), lf.M)
             for fr in X.face_index.faces.tolist()]
    want = [float(lf.g(statistics._localize(B, np.arange(B.num_present),
                                            lower)))
            for B, lower in balls] + \
        [float(lf.g(single))] * isolated_count(X)
    calls = []

    def counting(*args):
        calls.append(args)
        return unrank_colex(*args)
    for mod in (simplices, statistics, topology):
        monkeypatch.setattr(mod, "unrank_colex", counting, raising=False)
    assert statistics.local_statistic_terms(X, lf) == want
    assert calls == []


# ---------------------------------------------------------------------------
# cocycle counts

def test_betti_offset():
    for seed in range(10):
        X = random_complex(7, 2, 7, seed=seed)
        for M in (1, 3, 10):
            assert betti_bounded(X, M) == \
                cocycle_count_bounded(X, M) - math.comb(6, 1)


def test_cocycle_count_without_cores_needs_no_rank_or_adjacency(monkeypatch):
    import rwcomplex.cohomology
    import rwcomplex.statistics
    import rwcomplex.topology
    params = ModelParams(120, 2, 0.5 / 120,
                         WeightDistribution("constant", 1.0))
    ref = sample_complex(params, 1)
    lab = bfs_components(ref)
    want = lab.num_singletons + sum(
        exact_cocycle_dim(*component_view(ref, lab, cid))
        for cid, comp in enumerate(lab.comp_faces) if len(comp) <= 30)

    def refuse(*args, **kwargs):
        raise AssertionError("not needed without cores")
    monkeypatch.setattr(rwcomplex.cohomology, "rank_pm1", refuse)
    monkeypatch.setattr(rwcomplex.statistics, "rank_pm1", refuse)
    # components come from labels, not from a walk over the face index
    monkeypatch.setattr(rwcomplex.topology, "_walk", refuse)
    monkeypatch.setattr(rwcomplex.topology, "bfs_distances", refuse)
    assert cocycle_count_bounded(sample_complex(params, 1), 30) == want


def test_cocycle_count_empty_complex():
    empty = WeightedComplex(6, 2, np.array([], dtype=np.int64), np.array([]))
    # every face is a singleton component contributing 1
    assert cocycle_count_bounded(empty, 1) == math.comb(6, 2)


# ---------------------------------------------------------------------------
# isomorphism invariance

def test_statistics_invariant_under_relabeling():
    params = ModelParams(7, 2, 0.3, WeightDistribution("exponential", 2.0))
    stats = [make_statistic(spec, params) for spec in
             ("nn-alpha:1.5", "isolated", "cocycle:3", "betti:2",
              "local:isolated:1", "local:cocycle-ratio:3")]
    rng = random.Random(123)
    for seed in range(12):
        X = random_complex(7, 2, 6, seed=seed)
        perm = list(range(7))
        rng.shuffle(perm)
        Y = permuted(X, perm)
        for st in stats:
            assert st.evaluate(X) == pytest.approx(st.evaluate(Y)), st.name


# ---------------------------------------------------------------------------
# selection grammar

def test_grammar_accepts_all_forms():
    params = ModelParams(10, 2, 0.2, WeightDistribution("exponential", 5.0))
    assert make_statistic("nn", params).lipschitz_H is None
    assert make_statistic("nn-alpha:2.5", params).lipschitz_H == \
        pytest.approx(7.5)
    assert make_statistic("isolated", params).lipschitz_H == 3.0
    assert make_statistic("cocycle:4", params).lipschitz_H == 12.0
    assert make_statistic("betti:4", params).lipschitz_H == 12.0
    assert make_statistic("local:cocycle-ratio:2", params).lipschitz_H == 6.0


@pytest.mark.parametrize("bad", ["nn:", "nn-alpha", "nn-alpha:0",
                                 "cocycle", "cocycle:1:2", "local:foo:2",
                                 "local:isolated", "frob", ""])
def test_grammar_rejects(bad):
    params = ModelParams(10, 2, 0.2, WeightDistribution("exponential", 5.0))
    with pytest.raises(ValueError):
        make_statistic(bad, params)
