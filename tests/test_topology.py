import itertools
import math
import random

import numpy as np
import pytest

from rwcomplex.sampling import ModelParams, WeightDistribution, sample_complex
from rwcomplex.simplices import (WeightedComplex, faces, rank_colex,
                                 unrank_colex)
from rwcomplex.topology import (ball_k, bfs_distances, canonical_disjoint_pair,
                                components, component_view, connected_within,
                                connection_counts, gamma_exact, m_ball)


def random_complex(n, d, num, seed):
    rng = random.Random(seed)
    nd = math.comb(n, d + 1)
    ranks = sorted(rng.sample(range(nd), min(num, nd)))
    w = [rng.expovariate(1.0) for _ in ranks]
    return WeightedComplex(n, d, np.array(ranks, dtype=np.int64), np.array(w))


# ---------------------------------------------------------------------------
# independent oracle: enumerate paths whose consecutive unions are DISTINCT
# present d-simplices (the definition), with no simplex reuse shortcuts

def distinct_path_distance(X, src, dst, max_len):
    """Minimal length of a path src -> dst whose consecutive unions are
    pairwise distinct present d-simplices, by exhaustive DFS."""
    if src == dst:
        return 0
    step = {}
    for r in X.present:
        tau = unrank_colex(int(r), X.d, X.n)
        franks = [rank_colex(f) for f in faces(tau)]
        for fr in franks:
            step.setdefault(fr, []).append((int(r), [o for o in franks
                                                    if o != fr]))
    best = [max_len + 1]

    def dfs(cur, used, depth):
        if depth >= best[0]:
            return
        for tau_rank, nexts in step.get(cur, ()):
            if tau_rank in used:
                continue
            for nxt in nexts:
                if nxt == dst:
                    best[0] = min(best[0], depth + 1)
                else:
                    used.add(tau_rank)
                    dfs(nxt, used, depth + 1)
                    used.discard(tau_rank)

    dfs(src, set(), 0)
    return best[0] if best[0] <= max_len else None


def test_bfs_equals_distinct_path_metric():
    # shortest witnessing paths never need to repeat a d-simplex, so BFS on
    # the face adjacency graph must reproduce the distinct-simplex metric
    for seed in range(40):
        n, d = random.Random(seed).choice([(5, 1), (6, 1), (5, 2), (6, 2)])
        X = random_complex(n, d, 5, seed=100 + seed)
        src = rank_colex(tuple(range(d)))
        dist = bfs_distances(X, src)
        for dst in range(math.comb(n, d)):
            oracle = distinct_path_distance(X, src, dst, max_len=6)
            got = dist.get(dst)
            if got is not None and got > 6:
                got = None
            assert got == oracle, (seed, dst)


def test_face_index_built_once_per_complex(monkeypatch):
    import rwcomplex.simplices as simplices
    calls = []
    unrank = simplices.unrank_colex_array

    def counted(*args):
        calls.append(args)
        return unrank(*args)
    monkeypatch.setattr(simplices, "unrank_colex_array", counted)
    X = random_complex(7, 2, 12, seed=4)
    tau = unrank_colex(int(X.present[0]), 2, 7)
    bfs_distances(X, rank_colex(tau[:2]))
    ball_k(X, tau, 2)
    m_ball(X, tau[1:], 2)
    lab = components(X)
    for cid in range(len(lab.comp_faces)):
        component_view(X, lab, cid)
    assert len(calls) == 1


def test_connected_within_basics():
    X = random_complex(6, 2, 4, seed=1)
    sigma, sigma_prime = canonical_disjoint_pair(6, 2)
    assert connected_within(X, sigma, sigma, 0)
    assert not connected_within(
        WeightedComplex(6, 2, np.array([], dtype=np.int64), np.array([])),
        sigma, sigma_prime, 5)


def test_ball_k_definition():
    # tau' in B_k(center, X) iff some face of tau' is at distance <= k-1
    # from a face of the center
    for seed in range(20):
        X = random_complex(6, 2, 6, seed=seed)
        center = unrank_colex(int(X.present[0]), 2, 6) if X.num_present \
            else (0, 1, 2)
        srcs = [rank_colex(f) for f in faces(center)]
        for k in range(0, 4):
            ball = ball_k(X, center, k)
            included = set(ball.included)
            for r in X.present:
                tau = unrank_colex(int(r), 2, 6)
                reach = min((d for s in srcs
                             for fr, d in bfs_distances(X, s).items()
                             if fr in {rank_colex(f) for f in faces(tau)}),
                            default=None)
                expect = reach is not None and reach <= k - 1
                assert (int(r) in included) == expect
            assert ball.lower_faces is None  # carries the ambient skeleton


def test_ball_zero_is_empty():
    X = random_complex(6, 2, 6, seed=3)
    assert ball_k(X, (0, 1, 2), 0).included == ()


def test_m_ball_excludes_ambient_faces():
    X = random_complex(6, 2, 5, seed=9)
    ball = m_ball(X, (0, 1), 2)
    # the lower faces are exactly the center plus faces of included simplices
    expect = {rank_colex((0, 1))}
    for r in ball.included:
        tau = unrank_colex(int(r), 2, 6)
        expect.update(rank_colex(f) for f in faces(tau))
    assert set(ball.lower_faces) == expect


def test_components_partition():
    for seed in range(25):
        X = random_complex(7, 2, 7, seed=seed)
        lab = components(X)
        # simplices are partitioned
        all_simp = sorted(r for comp in lab.comp_simplices for r in comp)
        assert all_simp == X.present.tolist()
        # two covered faces share a component iff connected
        covered = sorted(lab.labels)
        for a, b in itertools.combinations(covered[:8], 2):
            same = lab.labels[a] == lab.labels[b]
            linked = connected_within(X, unrank_colex(a, 1, 7),
                                      unrank_colex(b, 1, 7), 10 ** 6)
            assert same == linked
        assert lab.num_components == len(lab.comp_faces) + lab.num_singletons
        # component views are consistent subcomplexes
        for cid in range(len(lab.comp_faces)):
            view = component_view(X, lab, cid)
            assert view.face_count() == len(lab.comp_faces[cid])


# ---------------------------------------------------------------------------
# exact connection probability

def brute_force_gamma(n, d, k, p, sigma, sigma_prime):
    """Sum P(subset) over all present-sets, deciding connectivity with the
    (independently validated) BFS on a materialized complex."""
    nd = math.comb(n, d + 1)
    total = 0.0
    for bits in range(1 << nd):
        ranks = [r for r in range(nd) if bits >> r & 1]
        X = WeightedComplex(n, d, np.array(ranks, dtype=np.int64),
                            np.ones(len(ranks)))
        if connected_within(X, sigma, sigma_prime, k):
            total += p ** len(ranks) * (1 - p) ** (nd - len(ranks))
    return total


@pytest.mark.parametrize("n,d", [(4, 1), (5, 1), (4, 2), (5, 2)])
def test_gamma_exact_matches_brute_force(n, d):
    sigma, sigma_prime = canonical_disjoint_pair(n, d)
    for k in (1, 2, 3):
        counts = connection_counts(n, d, k)
        for p in (0.1, 0.5, 0.9):
            params = ModelParams(n, d, p, WeightDistribution("constant", 1.0))
            got = gamma_exact(params, k)
            want = brute_force_gamma(n, d, k, p, sigma, sigma_prime)
            assert got == pytest.approx(want, abs=1e-12), (n, d, k, p)
        assert int(counts.sum()) <= 1 << math.comb(n, d + 1)


def test_gamma_exact_reference_value():
    # n=4, d=1, k=2, p=1/2: 0.71875 by hand/brute force
    params = ModelParams(4, 1, 0.5, WeightDistribution("constant", 1.0))
    assert gamma_exact(params, 2) == pytest.approx(0.71875, abs=1e-12)


def test_gamma_one_step_is_p():
    # sigma and sigma' connect in one step iff their union is present
    for p in (0.2, 0.7):
        params = ModelParams(5, 1, p, WeightDistribution("constant", 1.0))
        assert gamma_exact(params, 1) == pytest.approx(p, abs=1e-12)


def test_enumeration_guard():
    params = ModelParams(30, 2, 0.5, WeightDistribution("constant", 1.0))
    with pytest.raises(ValueError):
        gamma_exact(params, 2)


def test_monte_carlo_agrees_with_exact():
    from rwcomplex.perturbation import estimate_gamma
    params = ModelParams(5, 1, 0.5, WeightDistribution("constant", 1.0))
    exact = gamma_exact(params, 2)
    est = estimate_gamma(params, 2, 2000, seed=21)
    assert abs(est.point_estimate - exact) <= 3 * est.std_error + 1e-9
