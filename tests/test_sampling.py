import math
import sys
import threading

import numpy as np
import pytest

from rwcomplex import rng
from rwcomplex.harness import run_cov_nn
from rwcomplex.perturbation import estimate_variance_and_J
from rwcomplex.sampling import (ForcedBits, ModelParams, PairedSample,
                                WeightDistribution, exp_mean_n,
                                sample_complex, truncated_params)
from rwcomplex.simplices import (WeightedComplex, d_simplex_count,
                                 simplex_table)
from rwcomplex.statistics import Statistic, make_statistic, nn_all_faces


def _params(n=10, d=2, p=0.3, mean=2.0):
    return ModelParams(n, d, p, WeightDistribution("exponential", mean))


def test_lam_is_np():
    assert _params(n=10, p=0.3).lam == pytest.approx(3.0)
    assert _params().num_d_simplices == math.comb(10, 3)


def test_params_json_round_trip():
    p = _params()
    assert ModelParams.from_json(p.to_json()) == p
    t = truncated_params(exp_mean_n(50, 2), 3.0)
    assert ModelParams.from_json(t.to_json()) == t


def test_distribution_validation():
    with pytest.raises(ValueError):
        WeightDistribution("gamma", 1.0)
    with pytest.raises(ValueError):
        WeightDistribution("exponential", 0.0)
    with pytest.raises(ValueError):
        WeightDistribution("uniform", 1.0, cap=2.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_distribution_rejects_non_finite_parameters(bad):
    for kind in ("exponential", "uniform", "constant"):
        with pytest.raises(ValueError, match="finite"):
            WeightDistribution(kind, bad)
    with pytest.raises(ValueError, match="finite"):
        WeightDistribution("exponential", 1.0, cap=bad)


def _cdf(dist, x):
    # the reference distribution function of each weight law
    x = np.asarray(x, dtype=np.float64)
    if dist.kind == "exponential":
        c = 1.0 - np.exp(-np.maximum(x, 0.0) / dist.param)
        if dist.cap is not None:
            c = np.minimum(c / (1.0 - math.exp(-dist.cap / dist.param)), 1.0)
        return np.where(x < 0, 0.0, c)
    if dist.kind == "uniform":
        return np.clip(x / dist.param, 0.0, 1.0) * (x > 0)
    return (x >= dist.param).astype(float)


def test_inverse_cdf_inverts_cdf():
    for dist in (WeightDistribution("exponential", 2.0),
                 WeightDistribution("exponential", 2.0, cap=1.5),
                 WeightDistribution("uniform", 3.0)):
        u = np.linspace(0.01, 0.99, 23)
        x = dist.inverse_cdf(u)
        if dist.kind == "uniform":
            # uniform uses the survival transform x = b(1-u)
            assert np.allclose(_cdf(dist, x), 1.0 - u)
        else:
            assert np.allclose(_cdf(dist, x), u)
        if dist.cap is not None:
            assert np.all(x <= dist.cap + 1e-12)


def _inverse_cdf_before(dist, u):
    # the expressions inverse_cdf evaluated with one temporary per step
    u = np.asarray(u, dtype=np.float64)
    if dist.kind == "exponential":
        if dist.cap is None:
            return -dist.param * np.log(1.0 - u)
        scale = 1.0 - math.exp(-dist.cap / dist.param)
        return -dist.param * np.log(1.0 - u * scale)
    if dist.kind == "uniform":
        return dist.param * (1.0 - u)
    return np.full_like(u, dist.param)


@pytest.mark.parametrize("dist", [
    WeightDistribution("exponential", 120.0),
    WeightDistribution("exponential", 2.0, cap=1.5),
    WeightDistribution("uniform", 3.0),
    WeightDistribution("constant", 0.7)], ids=lambda d: d.kind)
def test_inverse_cdf_is_bit_identical_to_the_plain_expressions(dist):
    edges = [0.0, 1.0 - 2.0 ** -53, 0.5]
    u = np.concatenate([edges, rng.uniform_range(rng.stream_key(3, 1), 999)])
    kept = u.copy()
    got = dist.inverse_cdf(u)
    assert u.tobytes() == kept.tobytes()        # the input is left alone
    assert got.dtype == np.float64 and got.shape == u.shape
    assert got.tobytes() == _inverse_cdf_before(dist, u).tobytes()
    assert dist.inverse_cdf(u[::2]).tobytes() == \
        _inverse_cdf_before(dist, u[::2]).tobytes()
    for x in edges:
        one = dist.inverse_cdf(x)
        assert isinstance(one, np.float64)
        assert one.tobytes() == _inverse_cdf_before(dist, x).tobytes()


@pytest.mark.parametrize("y", [math.exp(-1.0), math.exp(-0.5), 0.5])
def test_log_and_inverse_cdf_are_monotone_on_the_uniform_grid(y):
    # nn_all_faces takes the minimum before the inverse CDF, which is exact
    # only if log (and so every law) is non-decreasing on the 2^-53 grid of
    # 1 - u; its steps are closest in output ulps near 1 - u = 1/e
    k = round(y * 2.0 ** 53) + np.arange(-2 ** 19, 2 ** 19 + 1)
    one_minus_u = k * 2.0 ** -53
    assert np.all(np.diff(one_minus_u) == 2.0 ** -53)
    assert np.all(np.diff(np.log(one_minus_u)) >= 0)
    u = 1.0 - one_minus_u[::-1]                 # ascending uniforms
    assert np.all(np.diff(u) > 0)
    for dist in (WeightDistribution("exponential", 120.0),
                 WeightDistribution("exponential", 2.0, cap=1.5),
                 WeightDistribution("exponential", 1.0, cap=5.0)):
        assert np.all(np.diff(dist.inverse_cdf(u)) >= 0)


@pytest.mark.parametrize("dist", [
    WeightDistribution("exponential", 40.0),
    WeightDistribution("uniform", 3.0)], ids=lambda d: d.kind)
def test_nn_replica_transforms_only_the_face_minima(monkeypatch, dist):
    sizes = []
    transform = WeightDistribution._inverse_cdf_over

    def spy(self, u):
        sizes.append(np.size(u))
        return transform(self, u)
    monkeypatch.setattr(WeightDistribution, "_inverse_cdf_over", spy)
    params = ModelParams(40, 2, 1.0, dist)
    nn = make_statistic("nn", params)
    for seed in (1, 2):
        nn.sample_value(PairedSample(params, seed))
    assert sizes and max(sizes) <= math.comb(40, 2)


def test_weight_law_kolmogorov_smirnov():
    # the materialized weights should follow the declared law
    params = _params(n=12, d=1, p=1.0, mean=3.0)
    s = PairedSample(params, 99)
    w = s.weight_values(np.arange(params.num_d_simplices))
    u = np.sort(_cdf(params.dist, w))
    m = u.size
    ks = max(max(i / m - u[i - 1], u[i - 1] - (i - 1) / m)
             for i in range(1, m + 1))
    assert ks < 1.63 / math.sqrt(m)  # 99% Kolmogorov band


def test_purity_and_determinism():
    params = _params()
    s = PairedSample(params, 7)
    ranks = np.array([0, 5, 17, 5, 0])
    b1, w1, bp1, wp1 = (s.presence(ranks), s.weight_values(ranks),
                        s.presence(ranks, primed=True),
                        s.weight_values(ranks, primed=True))
    s2 = PairedSample(params, 7)
    b2, w2, bp2, wp2 = (s2.presence(ranks), s2.weight_values(ranks),
                        s2.presence(ranks, primed=True),
                        s2.weight_values(ranks, primed=True))
    assert np.array_equal(b1, b2) and np.array_equal(w1, w2)
    assert np.array_equal(bp1, bp2) and np.array_equal(wp1, wp2)
    # repeated ranks give identical draws: value is a pure function of rank
    assert w1[0] == w1[4] and w1[1] == w1[3]
    # the four streams are distinct
    assert not np.array_equal(w1, wp1)


def test_resampled_coupling():
    params = _params(p=0.5)
    s = PairedSample(params, 3)
    X = s.complex()
    assert np.array_equal(s.resampled([]).present, X.present)
    F = [0, 1, 2, 3, 4]
    XF = s.resampled(F)
    fset = set(F)
    # off F the two complexes agree exactly
    for r in range(params.num_d_simplices):
        if r in fset:
            continue
        assert X.has(r) == XF.has(r)
        if X.has(r):
            assert X.weight_of(r) == XF.weight_of(r)
    # on F the resampled complex uses the primed streams
    bp = s.presence(np.array(F), primed=True)
    wp = s.weight_values(np.array(F), primed=True)
    for i, r in enumerate(F):
        assert XF.has(r) == bool(bp[i])
        if XF.has(r):
            assert XF.weight_of(r) == wp[i]


def test_forced_bits():
    params = _params(p=0.0001)
    s = PairedSample(params, 1, ForcedBits(b={3: 1}, b_prime={4: 0}))
    assert bool(s.presence(np.array([3]))[0])
    assert not bool(s.presence(np.array([4]), primed=True)[0])
    with pytest.raises(ValueError):
        ForcedBits(b={0: 2})


def test_child_seeds_decorrelate_replicas():
    params = _params(n=8, d=1, p=1.0)
    a = sample_complex(params, rng.child_seed(5, 0))
    b = sample_complex(params, rng.child_seed(5, 1))
    assert not np.array_equal(a.weights, b.weights)


def test_truncated_params():
    base = exp_mean_n(100, 2)
    t = truncated_params(base, 5.0)
    assert t.p == pytest.approx(1.0 - math.exp(-5.0 / 100.0))
    assert t.dist.cap == 5.0
    with pytest.raises(ValueError):
        truncated_params(t, 5.0)  # already truncated
    with pytest.raises(ValueError):
        truncated_params(base, 0.0)


def test_truncation_threshold_equals_conditioned_law():
    # keeping weights <= alpha from the full complex gives, in law, the
    # Bernoulli(1 - e^{-alpha/theta}) complex with the conditioned weights;
    # check the per-simplex keep probability by Monte Carlo
    base = exp_mean_n(30, 1)
    alpha = 20.0
    t = truncated_params(base, alpha)
    s = PairedSample(base, 77)
    w = s.weight_values(np.arange(base.num_d_simplices))
    frac = float(np.mean(w <= alpha))
    se = math.sqrt(t.p * (1 - t.p) / w.size)
    assert abs(frac - t.p) < 4 * se + 1e-9


# ---------------------------------------------------------------------------
# the presence sweep and the full weight draw against per-rank access

def reference_resampled(s, F):
    """X^F through the per-block presence() sweep that the block kernel
    replaced: forced bits and all, one rank at a time."""
    nd = d_simplex_count(s.params.n, s.params.d)
    fset = np.unique(np.asarray(list(F), dtype=np.int64))
    block = 1 << 13
    present = np.concatenate([
        lo + np.flatnonzero(s.presence(np.arange(
            lo, min(lo + block, nd), dtype=np.int64)))
        for lo in range(0, nd, block)])
    if fset.size:
        present = np.union1d(np.setdiff1d(present, fset),
                             fset[s.presence(fset, primed=True)])
    on_f = np.isin(present, fset)
    w = np.empty(present.size)
    w[~on_f] = s.weight_values(present[~on_f])
    w[on_f] = s.weight_values(present[on_f], primed=True)
    return WeightedComplex(s.params.n, s.params.d, present, w)


def assert_same_complex(X, Y):
    assert X.present.dtype == Y.present.dtype == np.int64
    assert np.array_equal(X.present, Y.present)
    assert np.array_equal(X.weights.view(np.uint64),
                          Y.weights.view(np.uint64))


@pytest.mark.parametrize("n,p", [(60, 1.0 / 60), (9, 1.0)],
                         ids=["n60-lambda1", "n9-p1"])
def test_sweep_with_forced_bits_matches_per_rank_reference(n, p):
    params = _params(n=n, d=2, p=p)
    nd = params.num_d_simplices
    X = PairedSample(params, 21).complex()
    absent = sorted(set(range(nd)) - set(X.present.tolist()))
    f1, f2 = X.present[[1, 2]].tolist()
    F = [f1, f2, 5 + (absent[0] if absent else 0)]
    # a present rank forced to 0, an absent one to 1, ranks past the last
    # d-simplex, and ranks in F, whose b the primed stream overrides
    forced = {X.present[0].item(): 0, nd: 1, nd + 7: 0, f1: 0, f2: 1}
    if absent:
        forced[absent[-1]] = 1
    s = PairedSample(params, 21, ForcedBits(b=forced, b_prime={f1: 1}))
    Xf = s.complex()
    assert_same_complex(Xf, reference_resampled(s, []))
    assert not Xf.has(X.present[0].item()) and Xf.present[-1] < nd
    assert Xf.has(f2) and not Xf.has(f1)
    if absent:
        assert Xf.has(absent[-1])
    assert_same_complex(s.resampled(F), reference_resampled(s, F))
    plain = PairedSample(params, 21)
    assert_same_complex(plain.complex(), reference_resampled(plain, []))
    assert_same_complex(plain.resampled(F), reference_resampled(plain, F))


def test_contiguous_streams_use_the_block_kernel(monkeypatch):
    contiguous = []
    scattered = rng.uniforms

    def spy(key, counters):
        c = np.asarray(counters)
        contiguous.append(c.size > 1 and np.array_equal(c, np.arange(c.size)))
        return scattered(key, counters)
    monkeypatch.setattr(rng, "uniforms", spy)
    params = _params(n=30, d=2, p=0.1)
    PairedSample(params, 3).complex()
    sample_complex(exp_mean_n(12, 2), 3)        # p = 1: every rank present
    s = PairedSample(exp_mean_n(12, 2), 3)
    w = nn_all_faces(s)
    run_cov_nn(12, 2, 3, 5, 1)
    estimate_variance_and_J(
        Statistic("count", lambda X: float(X.num_present), None),
        params, 3, 1)
    assert contiguous and not any(contiguous)
    monkeypatch.undo()
    full = s.weight_values(np.arange(math.comb(12, 3)))
    assert np.array_equal(s.all_weights(), full)
    assert np.array_equal(w, full[simplex_table(12, 2).cofacet_ranks]
                          .min(axis=1))


def test_sweep_and_full_draw_are_thread_safe():
    # 117,480 ranks: four kernel blocks, so a buffer shared between calls
    # would be overwritten mid-stream by the other thread
    n = 90
    assert math.comb(n, 3) >= 3 * rng.BLOCK
    sweep = _params(n=n, d=2, p=1.0 / n)
    seeds = {0: [1, 2, 3], 1: [11, 12, 13]}

    def both(seed):
        return (PairedSample(sweep, seed).complex().present,
                nn_all_faces(PairedSample(exp_mean_n(n, 2), seed)))

    serial = {sd: both(sd) for t in seeds for sd in seeds[t]}
    same, errors = {}, []

    def worker(t):
        try:
            for _ in range(10):
                for sd in seeds[t]:
                    same[sd] = all(map(np.array_equal, both(sd), serial[sd]))
                    if not same[sd]:
                        return
        except Exception as exc:     # reported by the assertion below
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(t,)) for t in seeds]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(th.is_alive() for th in threads)
    assert errors == []
    assert same == {sd: True for sd in serial}
