"""Difference operators and Monte Carlo estimators of stabilization inputs.

The randomized derivative resamples a simplex's presence/weight pair; the
add-one cost toggles a simplex in and out.  Their two-scale (ball) versions
quantify stabilization; the estimators here feed the bound evaluators.

Every difference is the math.fsum of the statistic's near terms
(Statistic.near_terms) in tau's two states on one complex, so no X + tau or
X - tau is built and the terms tau cannot change cancel exactly.  The
two-scale identities (zero gap for the capped nearest-weight statistic at
k >= 1 and for M-local statistics at k >= 2M) hold bit-exactly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

from . import rng
from .sampling import ForcedBits, ModelParams, PairedSample, sample_complex
from .simplices import (WeightedComplex, _check_rank, _check_weights,
                        rank_colex, unrank_colex)
from .statistics import Statistic, UncoveredFaceError
from .topology import ball_k, canonical_disjoint_pair, connected_within


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
            a: Optional[float], b: Optional[float]) -> float:
    """f(X with tau at weight a) - f(X with tau at weight b), None standing
    for tau absent: the exact sum of f's near terms of the two states."""
    signed = list(f.near_terms(X, tau_rank, a))
    signed.extend(-t for t in f.near_terms(X, tau_rank, b))
    return math.fsum(signed)


def _resampled_states(s: PairedSample, F: Sequence[int], tau_rank: int
                      ) -> Tuple[WeightedComplex, Optional[float],
                                 Optional[float]]:
    """X^F, and tau's weight in X^F and in X^{F + tau} (None: absent); the
    latter is read from the draws (b', w') at tau."""
    XF = s.resampled(F)
    if not 0 <= tau_rank < math.comb(s.params.n, s.params.d + 1):
        raise ValueError("resample rank out of range")
    r = np.array([tau_rank])
    return (XF, XF.weight_of(tau_rank) if XF.has(tau_rank) else None,
            float(s.weight_values(r, primed=True)[0])
            if s.presence(r, primed=True)[0] else None)


def randomized_derivative(f: Statistic, s: PairedSample,
                          F: Iterable[int], tau) -> float:
    """Delta_tau f(X^F) = f(X^F) - f(X^{F + {tau}})."""
    tau_rank = _as_rank(tau)
    F = [int(r) for r in F]
    if tau_rank in F:
        raise ValueError("tau must not lie in F")
    XF, a, b = _resampled_states(s, F, tau_rank)
    return _change(f, XF, tau_rank, a, b)


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
    tau_verts = unrank_colex(tau_rank, X.d, X.n)
    _check_weights(np.float64(w_tau))    # a bad weight, as X + tau
    return _ball_change(f, X, tau_rank, tau_verts, w_tau, None, k)


def _ball_change(f: Statistic, X: WeightedComplex, tau_rank: int,
                 tau_verts: tuple, a: Optional[float], b: Optional[float],
                 k: int) -> float:
    """_change on B_k(tau, X) in place of X: tau at weight a against b on
    the balls of the two states, both from one walk of X."""
    ball = ball_k(X, tau_verts, k)
    try:
        return _change(f, ball, tau_rank, *((a, b) if k else (None, None)))
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
                       - _ball_change(f, X, tau_rank, tau, a, b, k)) ** 2
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
                       F: Iterable[int], F_prime: Iterable[int],
                       replicas: int, seed: int) -> StabilizationEstimate:
    """Covariance probe at one (F, F') choice: a lower-bound witness of the
    sup defining the covariance stabilization constant, NOT an upper bound
    (only the analytic bound in the bounds module is)."""
    tau, tau_prime = canonical_tau_pair(params.n, params.d)
    tau_rank, tp_rank = rank_colex(tau), rank_colex(tau_prime)
    F = [int(r) for r in F]
    Fp = [int(r) for r in F_prime]
    if tau_rank in F + Fp or tp_rank in F + Fp:
        raise ValueError("F and F' must avoid tau and tau'")
    a = np.empty(replicas)
    b = np.empty(replicas)
    for r in range(replicas):
        s = PairedSample(params, rng.child_seed(seed, r))
        w_tau = float(s.weight_values(np.array([tau_rank]))[0])
        w_tp = float(s.weight_values(np.array([tp_rank]))[0])
        X = s.complex()
        XF = s.resampled(F) if F else X
        XFp = s.resampled(Fp) if Fp else X
        # where F (F') is empty, XF (XFp) is X and the cost is squared
        ga = local_add_one_cost(f, X, tau_rank, w_tau, k)
        a[r] = ga * (local_add_one_cost(f, XF, tau_rank, w_tau, k)
                     if F else ga)
        gb = local_add_one_cost(f, X, tp_rank, w_tp, k)
        b[r] = gb * (local_add_one_cost(f, XFp, tp_rank, w_tp, k)
                     if Fp else gb)
    prod = moments(a)[2] * moments(b)[2]
    cov = float(np.sum(prod) / (replicas - 1))
    se = math.sqrt(moments(prod)[1]) / math.sqrt(replicas)
    return StabilizationEstimate(
        "rho_probe", cov, se, replicas, params, k=k, seed=seed,
        conditioning="probe at F=%s, F'=%s (lower-bound witness)"
                     % (sorted(F), sorted(Fp)))


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
