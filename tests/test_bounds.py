import math
import random
from dataclasses import replace
from fractions import Fraction

import mpmath
import pytest

from rwcomplex.bounds import (BoundInputs, bound_add_one, bound_corollary,
                              bound_main, gamma_bound, nn_cov_asymptote,
                              nn_cov_exact, nn_mean_face, nn_var_face,
                              nn_variance_asymptote, prob_all_faces_uncovered,
                              rho_bound, truncation_level,
                              variance_lower_limit, variance_lower_unweighted,
                              variance_upper_efron_stein)

mpmath.mp.dps = 40


def _inputs(**kw):
    base = dict(n=10 ** 4, d=2, lam=0.4, k=3, sigma_sq=float(10 ** 4) ** 2,
                J=1.0, delta=0.0, rho=0.0, gamma=0.0, C=1.0)
    base.update(kw)
    return BoundInputs(**base)


@pytest.mark.parametrize("field", ["lam", "sigma_sq", "J", "delta", "rho",
                                   "gamma", "C"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_inputs_reject_non_finite_fields(field, bad):
    with pytest.raises(ValueError, match=field + " must be finite"):
        _inputs(**{field: bad})


# ---------------------------------------------------------------------------
# arbitrary-precision oracles

def mp_corollary(i):
    n, d = mpmath.mpf(i.n), i.d
    nd = n ** d
    crude = (mpmath.mpf(i.k) ** 5
             * max(mpmath.mpf(1), d * mpmath.mpf(i.lam)) ** (2 * i.k) / n)
    first = (mpmath.mpf(i.C) * mpmath.mpf(i.J) ** mpmath.mpf("1/6")
             * max(mpmath.mpf(1), mpmath.mpf(i.lam)) ** mpmath.mpf("1/2")
             * (nd / mpmath.mpf(i.sigma_sq)) ** mpmath.mpf("1/2")
             * (mpmath.mpf(i.delta) ** mpmath.mpf("1/8")
                + crude ** (mpmath.mpf(1) / 12)))
    tail = ((nd / mpmath.mpf(i.sigma_sq)) ** mpmath.mpf("3/4")
            * mpmath.mpf(i.J) ** mpmath.mpf("1/4")
            * mpmath.mpf(i.lam) ** mpmath.mpf("1/2") / n ** (mpmath.mpf(d) / 4))
    return first + tail


def mp_main(i, gamma_exponent):
    n, d = mpmath.mpf(i.n), i.d
    nd = n ** d
    lam = mpmath.mpf(i.lam)
    J = mpmath.mpf(i.J)
    inner = ((J ** mpmath.mpf("1/2") * mpmath.mpf(i.delta) ** mpmath.mpf("1/2")
              + mpmath.mpf(i.rho)
              + J ** (mpmath.mpf(2) / 3)
              * mpmath.mpf(i.gamma) ** mpmath.mpf(gamma_exponent)) * lam ** 2
             + J ** (mpmath.mpf(2) / 3)
             * (lam ** 2 / n + lam / nd + lam ** 3 / n))
    first = (mpmath.mpf(i.C) * (nd / mpmath.mpf(i.sigma_sq)) ** mpmath.mpf("1/2")
             * inner ** mpmath.mpf("1/4"))
    tail = ((nd / mpmath.mpf(i.sigma_sq)) ** mpmath.mpf("3/4")
            * J ** mpmath.mpf("1/4") * lam ** mpmath.mpf("1/2")
            / n ** (mpmath.mpf(d) / 4))
    return first + tail


def test_corollary_reference_value():
    got = bound_corollary(_inputs())
    want = float(mp_corollary(_inputs()))
    assert abs(got - want) / want < 1e-9
    assert got == pytest.approx(0.7399, abs=5e-5)


def test_main_and_add_one_against_oracle():
    i = _inputs(gamma=gamma_bound(10 ** 4, 2, 0.4, 3), delta=0.0, rho=0.0)
    assert bound_main(i) == pytest.approx(float(mp_main(i, "1/2")),
                                          rel=1e-9)
    assert bound_add_one(i) == pytest.approx(float(mp_main(i, "1/3")),
                                             rel=1e-9)


def test_zero_inputs_give_zero():
    i = _inputs(lam=0.0, delta=0.0, rho=0.0, gamma=0.0)
    assert bound_main(i) == 0.0
    assert bound_add_one(i) == 0.0


def test_constant_scales_first_term_only():
    i1 = _inputs(gamma=0.01, delta=0.001, rho=0.001)
    i0 = replace(i1, C=0.0)
    i2 = replace(i1, C=2.0)
    tail = bound_main(i0)
    assert bound_main(i2) - tail == pytest.approx(
        2 * (bound_main(i1) - tail), rel=1e-12)


def test_add_one_dominates_main_for_gamma_in_unit_interval():
    i = _inputs(gamma=0.3)
    assert bound_add_one(i) >= bound_main(i)
    for g in (0.0, 1.0):
        j = _inputs(gamma=g)
        assert bound_add_one(j) == pytest.approx(bound_main(j), rel=1e-12)


def test_corollary_j_scaling():
    i = _inputs(delta=0.01)
    i64 = replace(i, J=64.0)
    first = bound_corollary(i) - _tail(i)
    first64 = bound_corollary(i64) - _tail(i64)
    assert first64 == pytest.approx(2 * first, rel=1e-12)
    assert _tail(i64) == pytest.approx(2 ** 1.5 * _tail(i), rel=1e-12)


def _tail(i):
    nd = float(i.n) ** i.d
    return (nd / i.sigma_sq) ** 0.75 * i.J ** 0.25 * i.lam ** 0.5 \
        / float(i.n) ** (i.d / 4.0)


def test_corollary_requires_k_in_range():
    with pytest.raises(ValueError):
        bound_corollary(_inputs(n=2, sigma_sq=4.0))
    with pytest.raises(ValueError):
        BoundInputs(n=10, d=2, lam=1.0, k=0, sigma_sq=1.0, J=1.0)


def test_corollary_decreases_along_admissible_sequence():
    # with delta = 0, lam <= 1/d, k(n) = floor(n^{1/6}), the value tends to
    # zero; check monotone-decreasing tail on a grid
    vals = []
    for n in [10 ** e for e in range(4, 25, 2)]:
        k = max(1, int(n ** (1.0 / 6.0)))
        i = BoundInputs(n=n, d=2, lam=0.5, k=k, sigma_sq=float(n) ** 2,
                        J=1.0, delta=0.0)
        vals.append(bound_corollary(i))
    assert all(b < a for a, b in zip(vals, vals[1:]))
    # the decay rate is n^{-1/72}: slow, but visibly heading to zero
    assert vals[-1] < 0.75 * vals[0]


def test_monotonicity_grid():
    rng = random.Random(7)
    fields_up = ["delta", "rho", "gamma", "J", "lam", "C"]
    for _ in range(150):
        base = BoundInputs(
            n=rng.choice([50, 500, 5000]), d=rng.choice([1, 2, 3]),
            lam=rng.uniform(0, 3), k=rng.randrange(1, 10),
            sigma_sq=rng.uniform(0.5, 100.0), J=rng.uniform(1.0, 50.0),
            delta=rng.uniform(0, 1), rho=rng.uniform(0, 1),
            gamma=rng.uniform(0, 1), C=rng.uniform(0.1, 3.0))
        for f in (bound_main, bound_add_one, bound_corollary):
            v = f(base)
            for name in fields_up:
                up = replace(base, **{name: getattr(base, name) * 1.5 + 0.01})
                assert f(up) >= v - 1e-12, (f.__name__, name)
            down = replace(base, sigma_sq=base.sigma_sq * 2.0)
            assert f(down) <= v + 1e-12, f.__name__


# ---------------------------------------------------------------------------
# gamma and rho ceilings

def test_gamma_bound_values():
    assert gamma_bound(100, 1, 1.0, 2) == pytest.approx(0.04)
    # d lam <= 1 and k^{d+1}/n^d smaller than k^2/n
    assert gamma_bound(100, 2, 0.4, 2) == pytest.approx(min(8 / 1e4, 4 / 100))
    with pytest.raises(ValueError):
        gamma_bound(100, 1, 1.0, 0)


def test_gamma_bound_uses_min_when_k_le_n():
    # large d lam: both forms grow but stay ordered by their prefactors
    v = gamma_bound(10, 2, 5.0, 3)
    general = 3 ** 3 * 10.0 ** 3 / 100
    improved = 9 * 10.0 ** 3 / 10
    assert v == pytest.approx(min(general, improved))


def test_rho_bound_values():
    assert rho_bound(1.0, 1, 1000, 1, 0.5) == pytest.approx(1000 ** (-1 / 3))
    assert rho_bound(1.0, 3, 10 ** 4, 2, 0.4) == \
        pytest.approx((243 / 1e4) ** (1 / 3))
    a = rho_bound(2.0, 2, 100, 2, 1.0)
    b = rho_bound(2.0, 2, 200, 2, 1.0)
    assert b == pytest.approx(a / 2 ** (1 / 3))
    with pytest.raises(ValueError):
        rho_bound(1.0, 11, 10, 1, 1.0)


def test_overflowing_products_raise_instead_of_giving_inf_or_nan():
    # finite inputs whose products leave the float range: an inf at
    # lam = 1, the NaN of inf * 0 at lam = 0
    for lam in (1.0, 0.0):
        i = _inputs(n=10, k=1, lam=lam, sigma_sq=1e-300, C=1e308)
        for fn in (bound_main, bound_add_one, bound_corollary):
            with pytest.raises(OverflowError):
                fn(i)
    with pytest.raises(OverflowError):
        gamma_bound(10, 2, 1e308, 1)        # d lam overflows
    with pytest.raises(OverflowError):
        rho_bound(1e300, 1, 10, 1, 1.0, C=1e308)


# ---------------------------------------------------------------------------
# variance bounds

def test_variance_lower_trivial():
    assert variance_lower_unweighted(20, 2, 0.0, -1.0) == 0.0
    assert variance_lower_unweighted(20, 2, 1.0, -1.0) == 0.0


def test_variance_lower_limit_convergence():
    d, lam = 2, 1.0
    limit = variance_lower_limit(d, lam)
    assert limit == pytest.approx(2 * 1.0 / 6.0 * math.exp(-6.0))
    prev_err = None
    for n in (50, 100, 200, 400, 800):
        pa = prob_all_faces_uncovered(n, d, lam)
        val = variance_lower_unweighted(n, d, lam / n, -pa) / float(n) ** d
        err = abs(val / limit - 1.0)
        if prev_err is not None:
            assert err < prev_err
        prev_err = err
    assert prev_err < 0.02


def test_variance_upper_monotone():
    v = variance_upper_efron_stein(100, 2, 1.0, 1.0)
    assert v == pytest.approx(1e4)
    assert variance_upper_efron_stein(200, 2, 1.0, 1.0) > v
    assert variance_upper_efron_stein(100, 2, 2.0, 1.0) > v
    assert variance_upper_efron_stein(100, 2, 1.0, 8.0) == pytest.approx(2e4)


# ---------------------------------------------------------------------------
# nearest face-weight moments

def test_nn_asymptote_values():
    assert nn_variance_asymptote(300, 1) == pytest.approx(450.0)
    assert nn_variance_asymptote(100, 2) == pytest.approx(9900.0)
    assert nn_mean_face(50, 2) == pytest.approx(50 / 48)
    assert nn_var_face(50, 2) == pytest.approx((50 / 48) ** 2)


def test_nn_cov_exact_against_mpmath():
    # independent evaluation of the conditional-moment formula
    for n, d in [(20, 1), (50, 2), (200, 1)]:
        nm = mpmath.mpf(n)
        a = (nm / (nm - d - 1)) ** 2
        bracket = 1 - 2 / (nm - d) + 1 / (2 * nm - 2 * d - 1)
        want = a * bracket - (nm / (nm - d)) ** 2
        got = nn_cov_exact(n, d)
        assert isinstance(got, Fraction)
        assert float(got) == pytest.approx(float(want), rel=1e-12)


def test_nn_cov_exact_near_asymptote():
    for n in (100, 1000, 10000):
        gap = abs(float(nn_cov_exact(n, 1)) - nn_cov_asymptote(n))
        assert gap <= 5.0 / n ** 2


def test_truncation_level():
    n, d = 200, 1
    alpha = truncation_level(n, d, C2=d + 2)
    assert alpha == pytest.approx(64 * (2 * d + 2) * math.log(n))
    assert truncation_level(n, d, 2 * (d + 2) + d) == \
        pytest.approx(2 * alpha)
    with pytest.raises(ValueError):
        truncation_level(n, d, 0.0)
