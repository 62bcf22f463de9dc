import math

import numpy as np
import pytest

from rwcomplex import rng
from rwcomplex.sampling import (ForcedBits, ModelParams, PairedSample,
                                WeightDistribution, exp_mean_n,
                                sample_complex, truncated_params)


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


def test_inverse_cdf_inverts_cdf():
    for dist in (WeightDistribution("exponential", 2.0),
                 WeightDistribution("exponential", 2.0, cap=1.5),
                 WeightDistribution("uniform", 3.0)):
        u = np.linspace(0.01, 0.99, 23)
        x = dist.inverse_cdf(u)
        if dist.kind == "uniform":
            # uniform uses the survival transform x = b(1-u)
            assert np.allclose(dist.cdf(x), 1.0 - u)
        else:
            assert np.allclose(dist.cdf(x), u)
        if dist.cap is not None:
            assert np.all(x <= dist.cap + 1e-12)


def test_weight_law_kolmogorov_smirnov():
    # the materialized weights should follow the declared law
    params = _params(n=12, d=1, p=1.0, mean=3.0)
    s = PairedSample(params, 99)
    w = s.weight_values(np.arange(params.num_d_simplices))
    u = np.sort(params.dist.cdf(w))
    m = u.size
    ks = max(max(i / m - u[i - 1], u[i - 1] - (i - 1) / m)
             for i in range(1, m + 1))
    assert ks < 1.63 / math.sqrt(m)  # 99% Kolmogorov band


def test_purity_and_determinism():
    params = _params()
    s = PairedSample(params, 7)
    ranks = np.array([0, 5, 17, 5, 0])
    b1, w1, bp1, wp1 = s.quadruple(ranks)
    b2, w2, bp2, wp2 = PairedSample(params, 7).quadruple(ranks)
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
