"""Difference operators and Monte Carlo estimators of stabilization inputs.

The randomized derivative resamples a simplex's presence/weight pair; the
add-one cost toggles a simplex in and out.  Their two-scale (ball) versions
quantify stabilization; the estimators here feed the bound evaluators.

Differences of statistics with per-face term lists are accumulated with
math.fsum over the signed term multiset, so contributions shared by the two
complexes cancel exactly.  The two-scale identities (zero gap for the
capped nearest-weight statistic at k >= 1 and for M-local statistics at
k >= 2M) therefore hold bit-exactly, not merely up to rounding.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

from . import rng
from .sampling import ForcedBits, ModelParams, PairedSample, sample_complex
from .simplices import WeightedComplex, rank_colex, unrank_colex
from .statistics import Statistic
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


def _difference(f: Statistic, X_plus: WeightedComplex,
                X_minus: WeightedComplex) -> float:
    """f(X_plus) - f(X_minus), with exact term-multiset cancellation when
    the statistic exposes per-face terms."""
    if f.terms is not None:
        signed = list(f.terms(X_plus))
        signed.extend(-t for t in f.terms(X_minus))
        return math.fsum(signed)
    return f.evaluate(X_plus) - f.evaluate(X_minus)


def randomized_derivative(f: Statistic, s: PairedSample,
                          F: Iterable[int], tau) -> float:
    """Delta_tau f(X^F) = f(X^F) - f(X^{F + {tau}})."""
    tau_rank = _as_rank(tau)
    F = [int(r) for r in F]
    if tau_rank in F:
        raise ValueError("tau must not lie in F")
    return _difference(f, s.resampled(F), s.resampled(F + [tau_rank]))


def add_one_cost(f: Statistic, X: WeightedComplex, tau,
                 w_tau: float) -> float:
    """D_tau f(X) = f(X + tau) - f(X - tau), tau carrying weight w_tau."""
    tau_rank = _as_rank(tau)
    return _difference(f, X.with_simplex(tau_rank, w_tau),
                       X.without_simplex(tau_rank))


def local_add_one_cost(f: Statistic, X: WeightedComplex, tau,
                       w_tau: float, k: int) -> float:
    """D_tau f(B_k(tau, X)) = f(B_k(tau, X+tau)) - f(B_k(tau, X-tau)),
    the two balls computed independently on X + tau and X - tau."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    tau_rank = _as_rank(tau)
    tau_verts = unrank_colex(tau_rank, X.d, X.n)
    plus = ball_k(X.with_simplex(tau_rank, w_tau), tau_verts, k).as_complex()
    minus = ball_k(X.without_simplex(tau_rank), tau_verts, k).as_complex()
    return _difference(f, plus, minus)


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


def _mean_se(values: np.ndarray) -> Tuple[float, float]:
    m = values.size
    mean = float(np.sum(values) / m)
    var = float(np.sum((values - mean) ** 2) / (m - 1))
    return mean, math.sqrt(var / m)


def estimate_delta_tilde(f: Statistic, params: ModelParams, k: int,
                         replicas: int, seed: int,
                         pair: Optional[Tuple[tuple, tuple]] = None,
                         randomized: bool = False) -> StabilizationEstimate:
    """Two-scale stabilization: for i in {0, 1}, the Monte Carlo mean of
    {D_tau f(X) - D_tau f(B_k(tau, X))}^2 with b at the disjoint probe
    simplex tau' forced to i; returns the larger of the two conditional
    means (ties broken toward the larger standard error).

    With randomized=True the randomized-derivative variant is estimated
    instead: Delta_tau replaces D_tau and the presence pair at tau is
    conditioned on {b + b' = 1} via forced bits.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    tau, tau_prime = pair if pair is not None \
        else canonical_tau_pair(params.n, params.d)
    tau_rank, tp_rank = rank_colex(tau), rank_colex(tau_prime)
    results = []
    for i in (0, 1):
        gaps = np.empty(replicas)
        for r in range(replicas):
            child = rng.child_seed(seed, 2 * r + i)
            forced = {tp_rank: i}
            if randomized:
                # condition on {b + b' = 1}: a fair coin picks which copy
                # of tau's presence bit is on
                coin = rng.uniform_at(rng.stream_key(child, 17), 0) < 0.5
                b_tau = 1 if coin else 0
                fb = dict(forced)
                fb[tau_rank] = b_tau
                s = PairedSample(params, child, ForcedBits(
                    b=fb, b_prime={tau_rank: 1 - b_tau}))
                g_glob = randomized_derivative(f, s, [], tau_rank)
                g_loc = _local_randomized_derivative(f, s, [], tau_rank, k)
            else:
                s = PairedSample(params, child, ForcedBits(b=forced))
                X = s.complex()
                w_tau = float(s.weight_values(np.array([tau_rank]))[0])
                g_glob = add_one_cost(f, X, tau_rank, w_tau)
                g_loc = local_add_one_cost(f, X, tau_rank, w_tau, k)
            gaps[r] = (g_glob - g_loc) ** 2
        mean, se = _mean_se(gaps)
        results.append((mean, se, i))
    results.sort(key=lambda t: (t[0], t[1]))
    mean, se, i = results[-1]
    op = "Delta, {b+b'=1} at tau" if randomized else "D"
    return StabilizationEstimate(
        "delta_tilde", mean, se, replicas, params, k=k, seed=seed,
        conditioning="%s; b at tau'=%s forced to %d" % (op, tau_prime, i))


def _local_randomized_derivative(f: Statistic, s: PairedSample,
                                 F: Sequence[int], tau_rank: int,
                                 k: int) -> float:
    tau_verts = unrank_colex(tau_rank, s.params.d, s.params.n)
    F = [int(r) for r in F]
    a = ball_k(s.resampled(F), tau_verts, k).as_complex()
    b = ball_k(s.resampled(F + [tau_rank]), tau_verts, k).as_complex()
    return _difference(f, a, b)


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
        XF = s.resampled(F)
        XFp = s.resampled(Fp)
        a[r] = local_add_one_cost(f, X, tau_rank, w_tau, k) \
            * local_add_one_cost(f, XF, tau_rank, w_tau, k)
        b[r] = local_add_one_cost(f, X, tp_rank, w_tp, k) \
            * local_add_one_cost(f, XFp, tp_rank, w_tp, k)
    ma = float(np.sum(a) / replicas)
    mb = float(np.sum(b) / replicas)
    prod = (a - ma) * (b - mb)
    cov = float(np.sum(prod) / (replicas - 1))
    se = float(np.std(prod, ddof=1) / math.sqrt(replicas))
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
    mean = float(np.sum(vals) / m)
    # an exactly constant sample must report exactly zero variance
    centered = vals - mean if np.any(vals != vals[0]) else np.zeros(m)
    var = float(np.sum(centered ** 2) / (m - 1))
    # plug-in standard error of the sample variance via the fourth moment
    m4 = float(np.sum(centered ** 4) / m)
    se_var = math.sqrt(max(m4 - var ** 2, 0.0) / m)
    var_est = StabilizationEstimate("variance", var, se_var, m, params,
                                    seed=seed, conditioning="f=" + f.name)
    if f.lipschitz_H is not None:
        j = max(1.0, float(f.lipschitz_H) ** 6)
        j_est = StabilizationEstimate(
            "J", j, 0.0, m, params, seed=seed,
            conditioning="closed form, constant H=%g" % f.lipschitz_H)
    else:
        key = rng.stream_key(rng.child_seed(seed, 1 << 32), 29)
        u = rng.uniforms(key, np.arange(2 * m, dtype=np.int64))
        w = params.dist.inverse_cdf(u)
        h6 = np.maximum(w[:m], w[m:]) ** 6
        jm, jse = _mean_se(h6)
        j_est = StabilizationEstimate(
            "J", max(1.0, jm), jse, m, params, seed=seed,
            conditioning="Monte Carlo over weight pairs, H = w v w'")
    return var_est, j_est
