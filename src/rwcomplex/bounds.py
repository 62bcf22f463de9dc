"""Closed-form evaluation of the normal-approximation bound expressions.

Every evaluator is a pure function.  The universal constant ("C") that the
underlying inequalities carry is exposed as an explicit multiplier with
default 1.0; all outputs are bounds up to that constant only.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class BoundInputs:
    """Inputs shared by the three Kolmogorov-distance bound formulas."""

    n: int
    d: int
    lam: float          # = n * p
    k: int
    sigma_sq: float     # variance (estimate or target)
    J: float
    delta: float = 0.0  # two-scale stabilization constant
    rho: float = 0.0    # covariance stabilization constant
    gamma: float = 0.0  # <=k-path connection probability
    C: float = 1.0      # universal constant multiplier

    def __post_init__(self):
        if self.n < 1 or self.d < 1:
            raise ValueError("need n >= 1 and d >= 1")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        for name in ("lam", "sigma_sq", "J", "delta", "rho", "gamma", "C"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError("%s must be finite" % name)
        if self.sigma_sq <= 0:
            raise ValueError("sigma_sq must be positive")
        for name in ("lam", "J", "delta", "rho", "gamma", "C"):
            if getattr(self, name) < 0:
                raise ValueError("%s must be nonnegative" % name)


def _finite(value: float) -> float:
    """value, or OverflowError where a product overflowed on the way (an
    inf, or the NaN of inf * 0): float powers raise it themselves."""
    if not math.isfinite(value):
        raise OverflowError("bound overflows the float range")
    return value


def _tail_term(i: BoundInputs) -> float:
    """(n^d / sigma^2)^{3/4} J^{1/4} lam^{1/2} / n^{d/4}; carries no C."""
    nd = float(i.n) ** i.d
    return (nd / i.sigma_sq) ** 0.75 * i.J ** 0.25 * i.lam ** 0.5 \
        / float(i.n) ** (i.d / 4.0)


def _core(i: BoundInputs, gamma_exponent: float) -> float:
    nd = float(i.n) ** i.d
    inner = (i.J ** 0.5 * i.delta ** 0.5 + i.rho
             + i.J ** (2.0 / 3.0) * i.gamma ** gamma_exponent) * i.lam ** 2 \
        + i.J ** (2.0 / 3.0) * (i.lam ** 2 / i.n + i.lam / nd
                                + i.lam ** 3 / i.n)
    return i.C * (nd / i.sigma_sq) ** 0.5 * inner ** 0.25


def bound_main(inputs: BoundInputs) -> float:
    """Randomized-derivative form (connection probability enters at power
    1/2); inputs delta/rho are the dominating constants of that form."""
    return _finite(_core(inputs, 0.5) + _tail_term(inputs))


def bound_add_one(inputs: BoundInputs) -> float:
    """Add-one-cost form: as bound_main with the connection probability at
    power 1/3 and the two-scale (tilde) constants as inputs."""
    return _finite(_core(inputs, 1.0 / 3.0) + _tail_term(inputs))


def bound_corollary(inputs: BoundInputs) -> float:
    """Self-contained form with the connection and covariance terms
    replaced by the crude k^5 (1 v d lam)^{2k} / n estimate; needs
    1 <= k <= n."""
    i = inputs
    if i.k > i.n:
        raise ValueError("corollary form needs k <= n")
    nd = float(i.n) ** i.d
    crude = (i.k ** 5 * max(1.0, i.d * i.lam) ** (2 * i.k) / i.n)
    first = i.C * i.J ** (1.0 / 6.0) * max(1.0, i.lam) ** 0.5 \
        * (nd / i.sigma_sq) ** 0.5 \
        * (i.delta ** 0.125 + crude ** (1.0 / 12.0))
    return _finite(first + _tail_term(i))


def gamma_bound(n: int, d: int, lam: float, k: int) -> float:
    """Analytic ceiling on the <=k-path connection probability: the general
    form k^{d+1}(1 v d lam)^k / n^d, improved to the minimum with
    k^2 (1 v d lam)^k / n when k <= n."""
    if k < 1:
        raise ValueError("k must be >= 1")
    growth = max(1.0, d * lam) ** k
    general = k ** (d + 1) * growth / float(n) ** d
    if k <= n:
        return _finite(min(general, k ** 2 * growth / n))
    return _finite(general)


def rho_bound(J: float, k: int, n: int, d: int, lam: float,
              C: float = 1.0) -> float:
    """Analytic ceiling on the covariance stabilization constant:
    C J^{2/3} (k^5 (1 v d lam)^{2k} / n)^{1/3}; needs k <= n."""
    if k > n:
        raise ValueError("needs k <= n")
    return _finite(C * J ** (2.0 / 3.0) * (
        k ** 5 * max(1.0, d * lam) ** (2 * k) / n) ** (1.0 / 3.0))


# ---------------------------------------------------------------------------
# variance bounds

def variance_lower_unweighted(n: int, d: int, p: float,
                              addone_mean: float) -> float:
    """2 C(n, d+1) p (1-p) E[D_tau f]^2, valid for weight-blind statistics."""
    return 2.0 * math.comb(n, d + 1) * p * (1.0 - p) * addone_mean ** 2


def prob_all_faces_uncovered(n: int, d: int, lam: float) -> float:
    """(1 - lam/n)^{(n-d-1)(d+1)}: no other d-simplex covers any face of a
    fixed d-simplex."""
    return (1.0 - lam / n) ** ((n - d - 1) * (d + 1))


def variance_lower_limit(d: int, lam: float) -> float:
    """Limit of variance_lower_unweighted / n^d with addone_mean = -P(A):
    2 lam / (d+1)! * e^{-2(d+1) lam}."""
    return 2.0 * lam / math.factorial(d + 1) * math.exp(-2 * (d + 1) * lam)


def variance_upper_efron_stein(n: int, d: int, lam: float, J: float) -> float:
    """Efron-Stein ceiling n^d lam J^{1/3}."""
    return float(n) ** d * lam * J ** (1.0 / 3.0)


# ---------------------------------------------------------------------------
# nearest face-weight moments (weights Exp(mean n), p = 1)

def nn_mean_face(n: int, d: int) -> float:
    """E[NN(sigma)] = n / (n - d)."""
    return n / (n - d)


def nn_var_face(n: int, d: int) -> float:
    """var(NN(sigma)) = (n / (n - d))^2 (exponential law)."""
    return (n / (n - d)) ** 2


def nn_variance_asymptote(n: int, d: int) -> float:
    """Leading-order total variance (1 + d/2) C(n, d)."""
    if n <= d:
        raise ValueError("need n > d")
    return (1.0 + d / 2.0) * math.comb(n, d)


def nn_cov_asymptote(n: int) -> float:
    """Leading-order covariance of NN at two faces sharing all but one
    vertex: 1 / (2n)."""
    return 1.0 / (2.0 * n)


def nn_cov_exact(n: int, d: int) -> Fraction:
    """Exact finite-n covariance of NN(sigma), NN(sigma') when sigma and
    sigma' span a single d-simplex, in rational arithmetic.

    Both values are the minimum of (n - d - 1) private exponential weights
    and the one shared weight; conditioning on the shared weight
    factorizes the product, and exponential moments give
    E[NN NN'] = (n/(n-d-1))^2 (1 - 2/(n-d) + 1/(2n-2d-1)).
    """
    if n <= 2 * d + 1:
        raise ValueError("n too small for the covariance formula")
    a = Fraction(n, n - d - 1) ** 2
    bracket = 1 - Fraction(2, n - d) + Fraction(1, 2 * n - 2 * d - 1)
    return a * bracket - Fraction(n, n - d) ** 2


def truncation_level(n: int, d: int, C2: float) -> float:
    """Weight-truncation level 64 (C2 + d) ln n; with this level the capped
    and uncapped nearest-weight statistics coincide except with probability
    O(n^{-C2})."""
    if C2 <= 0:
        raise ValueError("C2 must be positive")
    return 64.0 * (C2 + d) * math.log(n)
