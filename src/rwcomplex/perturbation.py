"""Difference operators and Monte Carlo estimators of stabilization inputs.

The add-one cost toggles a simplex in and out of one complex; its two-scale
(ball) version quantifies stabilization, and the estimators here feed the
bound evaluators.

Every difference is the math.fsum of the statistic's near terms
(Statistic.near_terms) in tau's two states on one complex, so no X + tau or
X - tau is built and the terms tau cannot change cancel exactly.  The
two-scale identities (zero gap for the capped nearest-weight statistic at
k >= 1 and for M-local statistics at k >= 2M) hold bit-exactly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from . import rng
from .sampling import ForcedBits, ModelParams, PairedSample, sample_complex
from .simplices import (WeightedComplex, _check_rank, _check_weights, _sub,
                        rank_colex)
from .statistics import Statistic, UncoveredFaceError
from .topology import (_site, _walk, canonical_disjoint_pair,
                       connected_within)


def canonical_tau_pair(n: int, d: int) -> Tuple[tuple, tuple]:
    """Colex-first pair of vertex-disjoint d-simplices."""
    if n < 2 * (d + 1):
        raise ValueError("no disjoint d-simplex pair for n < 2(d+1)")
    return tuple(range(d + 1)), tuple(range(d + 1, 2 * (d + 1)))


def _as_rank(tau) -> int:
    if isinstance(tau, (int, np.integer)):
        return int(tau)
    return rank_colex(tuple(tau))


def _change(f: Statistic, X: WeightedComplex, tau_rank: int,
            a: Optional[float], b: Optional[float],
            within: Optional[Sequence[int]] = None) -> float:
    """f(X with tau at weight a) - f(X with tau at weight b), None: absent,
    on X's simplices at `within` (None: all): the fsum of f's near terms."""
    if f.near is None and within is not None:
        X, within = _sub(X, within), None     # one slice for both states
    signed = list(f.near_terms(X, tau_rank, a, within))
    signed.extend(-t for t in f.near_terms(X, tau_rank, b, within))
    return math.fsum(signed)


def add_one_cost(f: Statistic, X: WeightedComplex, tau,
                 w_tau: float) -> float:
    """D_tau f(X) = f(X + tau) - f(X - tau), tau carrying weight w_tau."""
    tau_rank = _as_rank(tau)
    # refuse what X + tau would: a rank out of range, then a bad weight
    _check_rank(tau_rank, X.d, X.n)
    _check_weights(np.float64(w_tau))
    return _change(f, X, tau_rank, w_tau, None)


def local_add_one_cost(f: Statistic, X: WeightedComplex, tau,
                       w_tau: float, k: int) -> float:
    """D_tau f(B_k(tau, X)) = f(B_k(tau, X+tau)) - f(B_k(tau, X-tau)).

    Both balls come from one walk of X: for k >= 1,
    B_k(tau, X + tau) = B_k(tau, X - tau) + tau, since tau's faces are all
    sources and tau shortens no path from them; at k = 0 both are empty."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    tau_rank = _as_rank(tau)
    _site(X, tau_rank)                   # a rank out of range, as X + tau
    _check_weights(np.float64(w_tau))    # a bad weight, as X + tau
    return _ball_change(f, X, tau_rank, w_tau, None, k)


def _ball_change(f: Statistic, X: WeightedComplex, tau_rank: int,
                 a: Optional[float], b: Optional[float], k: int) -> float:
    """_change on B_k(tau, X) in place of X: tau at weight a against b on
    the balls of the two states, both the positions of one walk of X."""
    within = _walk(X, _site(X, tau_rank)[1], k - 1)[1]
    try:
        return _change(f, X, tau_rank, *((a, b) if k else (None, None)),
                       within)
    except UncoveredFaceError:
        raise ValueError(
            "nn undefined on B_k(tau, X) at k=%d: the ball leaves a face "
            "uncovered; use a larger k or nn-alpha:<a>" % k) from None


# ---------------------------------------------------------------------------
# estimates

@dataclass(frozen=True)
class StabilizationEstimate:
    """One Monte Carlo point estimate with provenance."""

    quantity: str     # delta_tilde | gamma | rho_probe | variance | J | addone_mean
    point_estimate: float
    std_error: float
    replicas: int
    params: ModelParams
    k: Optional[int] = None
    conditioning: str = ""
    seed: Optional[int] = None

    def __post_init__(self):
        if self.replicas < 2:
            raise ValueError("need at least 2 replicas")

    def to_json(self) -> dict:
        out = {"quantity": self.quantity,
               "point_estimate": self.point_estimate,
               "std_error": self.std_error,
               "replicas": self.replicas,
               "params": self.params.to_json(),
               "conditioning": self.conditioning}
        if self.k is not None:
            out["k"] = self.k
        if self.seed is not None:
            out["seed"] = self.seed
        return out


def moments(values: np.ndarray) -> Tuple[float, float, np.ndarray]:
    """Mean, unbiased variance and centered values of a sample of at least
    two values, summed in numpy's pairwise order; an exactly constant
    sample has exactly zero variance."""
    m = values.size
    if m < 2:
        raise ValueError("need at least 2 replicas")
    mean = float(np.sum(values) / m)
    centered = values - mean if np.any(values != values[0]) else np.zeros(m)
    return mean, float(np.sum(centered ** 2) / (m - 1)), centered


def variance_se(centered: np.ndarray, var: float) -> float:
    """Plug-in standard error of a sample variance via the fourth moment."""
    m4 = float(np.sum(centered ** 4) / centered.size)
    return math.sqrt(max(m4 - var ** 2, 0.0) / centered.size)


def _mean_se(values: np.ndarray) -> Tuple[float, float]:
    mean, var, _ = moments(values)
    return mean, math.sqrt(var / values.size)


def estimate_delta_tilde(f: Statistic, params: ModelParams, k: int,
                         replicas: int, seed: int,
                         randomized: bool = False) -> StabilizationEstimate:
    """Two-scale stabilization: for i in {0, 1}, the Monte Carlo mean of
    {D_tau f(X) - D_tau f(B_k(tau, X))}^2 with b at the disjoint probe
    simplex tau' forced to i; returns the larger of the two conditional
    means (ties broken toward the larger standard error).

    With randomized=True the randomized-derivative variant is estimated
    instead: Delta_tau replaces D_tau, conditioned on {b + b' = 1} at tau.
    Either way only tau's two states are read, never its bit in X: the near
    terms set tau's state themselves, and tau's faces are all sources of
    the walk, so the ball reaches the same faces with tau in or out.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    tau, tau_prime = canonical_tau_pair(params.n, params.d)
    tau_rank, tp_rank = rank_colex(tau), rank_colex(tau_prime)
    at = np.array([tau_rank])
    results = []
    for i in (0, 1):
        gaps = np.empty(replicas)
        for r in range(replicas):
            child = rng.child_seed(seed, 2 * r + i)
            s = PairedSample(params, child, ForcedBits(b={tp_rank: i}))
            X = s.complex()
            # {b + b' = 1}: a fair coin picks b = 1 (below 1/2) or b' = 1
            if randomized and \
                    rng.uniform_at(rng.stream_key(child, 17), 0) >= 0.5:
                a, b = None, float(s.weight_values(at, primed=True)[0])
            else:
                a, b = float(s.weight_values(at)[0]), None
            gaps[r] = (_change(f, X, tau_rank, a, b)
                       - _ball_change(f, X, tau_rank, a, b, k)) ** 2
        mean, se = _mean_se(gaps)
        results.append((mean, se, i))
    results.sort(key=lambda t: (t[0], t[1]))
    mean, se, i = results[-1]
    op = "Delta, {b+b'=1} at tau" if randomized else "D"
    return StabilizationEstimate(
        "delta_tilde", mean, se, replicas, params, k=k, seed=seed,
        conditioning="%s; b at tau'=%s forced to %d" % (op, tau_prime, i))


def estimate_gamma(params: ModelParams, k: int, replicas: int,
                   seed: int) -> StabilizationEstimate:
    """Bernoulli Monte Carlo of the <=k-path connection probability of the
    canonical disjoint (d-1)-simplex pair."""
    sigma, sigma_prime = canonical_disjoint_pair(params.n, params.d)
    hits = np.empty(replicas)
    for r in range(replicas):
        X = sample_complex(params, rng.child_seed(seed, r))
        hits[r] = 1.0 if connected_within(X, sigma, sigma_prime, k) else 0.0
    mean, se = _mean_se(hits)
    return StabilizationEstimate(
        "gamma", mean, se, replicas, params, k=k, seed=seed,
        conditioning="sigma=%s, sigma'=%s" % (sigma, sigma_prime))


def estimate_rho_probe(f: Statistic, params: ModelParams, k: int,
                       replicas: int, seed: int) -> StabilizationEstimate:
    """Covariance probe of the squared local add-one costs at tau and tau':
    a lower-bound witness of the sup defining the covariance stabilization
    constant, NOT an upper bound (only the analytic bound in the bounds
    module is)."""
    tau, tau_prime = canonical_tau_pair(params.n, params.d)
    tau_rank, tp_rank = rank_colex(tau), rank_colex(tau_prime)
    a = np.empty(replicas)
    b = np.empty(replicas)
    for r in range(replicas):
        s = PairedSample(params, rng.child_seed(seed, r))
        w_tau, w_tp = s.weight_values(np.array([tau_rank, tp_rank])).tolist()
        X = s.complex()
        ga = local_add_one_cost(f, X, tau_rank, w_tau, k)
        gb = local_add_one_cost(f, X, tp_rank, w_tp, k)
        a[r], b[r] = ga * ga, gb * gb
    prod = moments(a)[2] * moments(b)[2]
    cov = float(np.sum(prod) / (replicas - 1))
    se = math.sqrt(moments(prod)[1]) / math.sqrt(replicas)
    return StabilizationEstimate(
        "rho_probe", cov, se, replicas, params, k=k, seed=seed,
        # the point (F, F') = (empty, empty) of the sup that it witnesses
        conditioning="probe at F=[], F'=[] (lower-bound witness)")


def estimate_addone_mean(f: Statistic, params: ModelParams, replicas: int,
                         seed: int) -> StabilizationEstimate:
    """Monte Carlo mean of the add-one cost at the canonical d-simplex."""
    tau, _ = canonical_tau_pair(params.n, params.d)
    tau_rank = rank_colex(tau)
    vals = np.empty(replicas)
    for r in range(replicas):
        s = PairedSample(params, rng.child_seed(seed, r))
        X = s.complex()
        w_tau = float(s.weight_values(np.array([tau_rank]))[0])
        vals[r] = add_one_cost(f, X, tau_rank, w_tau)
    mean, se = _mean_se(vals)
    return StabilizationEstimate("addone_mean", mean, se, replicas, params,
                                 seed=seed, conditioning="tau=%s" % (tau,))


def estimate_variance_and_J(f: Statistic, params: ModelParams, replicas: int,
                            seed: int) -> Tuple[StabilizationEstimate,
                                                StabilizationEstimate]:
    """Sample variance of f plus the sixth-moment constant J = 1 v E[H^6].

    J comes in closed form when the statistic has a constant Lipschitz
    modulus; otherwise it is estimated over independent weight pairs with
    H(w, w') = w v w'.
    """
    vals = np.empty(replicas)
    for r in range(replicas):
        X = sample_complex(params, rng.child_seed(seed, r))
        vals[r] = f.evaluate(X)
    m = replicas
    _, var, centered = moments(vals)
    var_est = StabilizationEstimate("variance", var,
                                    variance_se(centered, var), m, params,
                                    seed=seed, conditioning="f=" + f.name)
    if f.lipschitz_H is not None:
        j = max(1.0, float(f.lipschitz_H) ** 6)
        j_est = StabilizationEstimate(
            "J", j, 0.0, m, params, seed=seed,
            conditioning="closed form, constant H=%g" % f.lipschitz_H)
    else:
        key = rng.stream_key(rng.child_seed(seed, 1 << 32), 29)
        w = params.dist.inverse_cdf(rng.uniform_range(key, 2 * m))
        h6 = np.maximum(w[:m], w[m:]) ** 6
        jm, jse = _mean_se(h6)
        j_est = StabilizationEstimate(
            "J", max(1.0, jm), jse, m, params, seed=seed,
            conditioning="Monte Carlo over weight pairs, H = w v w'")
    return var_est, j_est
