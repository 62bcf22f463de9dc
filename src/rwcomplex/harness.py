"""Monte Carlo experiment engine.

Replicates statistics over deterministic per-replica seeds, accumulates
moments with order-fixed (pairwise) summation so results are identical for
any worker count, and measures the empirical Kolmogorov distance of the
standardized sample to the standard normal.
"""
from __future__ import annotations

import csv
import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Optional, Sequence

import numpy as np

from . import __version__, bounds, rng
from .perturbation import (estimate_addone_mean, estimate_delta_tilde,
                           estimate_gamma, estimate_rho_probe,
                           estimate_variance_and_J, moments, variance_se)
from .sampling import ModelParams, PairedSample, exp_mean_n
from .simplices import cofacet_ranks
from .statistics import make_statistic

KOLMOGOROV_95 = 1.36


def normal_cdf(x: float) -> float:
    """Standard normal CDF via erfc; Phi(-x) = 1 - Phi(x) by construction."""
    if math.isnan(x):
        raise ValueError("NaN input")
    if x < 0:
        return 0.5 * math.erfc(-x / math.sqrt(2.0))
    return 1.0 - 0.5 * math.erfc(x / math.sqrt(2.0))


def kolmogorov_distance(samples: Sequence[float]) -> float:
    """sup_t |F_m(t) - Phi(t)| of the empirical CDF against N(0, 1)."""
    xs = np.sort(np.asarray(samples, dtype=np.float64))
    m = xs.size
    if m == 0:
        raise ValueError("empty sample")
    phi = np.fromiter(map(normal_cdf, xs.tolist()), np.float64, m)
    i = np.arange(1, m + 1)
    return max(0.0, float(np.max(i / m - phi)),
               float(np.max(phi - (i - 1) / m)))


# ---------------------------------------------------------------------------
# configuration and summaries

@dataclass(frozen=True)
class ExperimentConfig:
    params: ModelParams
    statistic: str
    replicas: int
    seed: int
    workers: int = 1
    outputs: Optional[str] = None
    mode: str = "clt"

    def __post_init__(self):
        if self.replicas < 2:
            raise ValueError("need at least 2 replicas")
        if self.workers < 1:
            raise ValueError("need at least 1 worker")
        if self.mode not in ("clt", "variance", "stabilization", "gamma",
                             "bound-pipeline"):
            raise ValueError("unknown mode %r" % self.mode)
        # must parse under the statistics grammar
        make_statistic(self.statistic, self.params)

    def to_json(self) -> dict:
        return {"params": self.params.to_json(),
                "statistic": self.statistic,
                "replicas": self.replicas,
                "seed": self.seed,
                "workers": self.workers,
                "outputs": self.outputs,
                "mode": self.mode}


@dataclass(frozen=True)
class RunSummary:
    mean: float
    variance: float                 # unbiased
    skew_proxy: float               # E|f - mean|^3 / sd^3
    d_kolmogorov: Optional[float]   # None when degenerate
    d_k_band: float                 # 1.36 / sqrt(replicas)
    replicas: int
    seed: int
    degenerate: bool
    csv_path: Optional[str] = None
    wall_time: float = 0.0
    extra: Dict[str, float] = field(default_factory=dict)

    def to_json(self) -> dict:
        out = {"mean": self.mean, "variance": self.variance,
               "skew_proxy": self.skew_proxy,
               "d_kolmogorov": self.d_kolmogorov,
               "d_k_band": self.d_k_band,
               "replicas": self.replicas, "seed": self.seed,
               "degenerate": self.degenerate,
               "csv_path": self.csv_path}
        out.update(self.extra)
        return out


# ---------------------------------------------------------------------------
# deterministic parallel replication

def _parallel_values(fn: Callable[[int], float], replicas: int,
                     workers: int) -> np.ndarray:
    """values[i] = fn(i); each value is a pure function of its index, and
    results are stored by index, so the output is scheduling-independent."""
    values = np.empty(replicas)
    if workers == 1:
        for i in range(replicas):
            values[i] = fn(i)
        return values
    chunk = max(1, (replicas + 4 * workers - 1) // (4 * workers))

    def run_chunk(lo: int) -> None:
        for i in range(lo, min(lo + chunk, replicas)):
            values[i] = fn(i)

    with ThreadPoolExecutor(max_workers=workers) as pool:
        list(pool.map(run_chunk, range(0, replicas, chunk)))
    return values


def _replica_fn(config: ExperimentConfig) -> Callable[[int], float]:
    """fn(i) = the statistic of replica i, sampled at child seed i."""
    stat = make_statistic(config.statistic, config.params)

    def fn(i: int) -> float:
        return stat.sample_value(
            PairedSample(config.params, rng.child_seed(config.seed, i)))
    return fn


# extra_fn(variance, centered replicas) -> run-specific summary fields
ExtraFn = Callable[[float, np.ndarray], Dict[str, float]]


def _summarize(values: np.ndarray, config: ExperimentConfig,
               extra_fn: Optional[ExtraFn] = None,
               wall_time: float = 0.0) -> RunSummary:
    """Moments, skew proxy and Kolmogorov distance of the replicas."""
    m = values.size
    mean, variance, centered = moments(values)
    degenerate = variance <= 0.0
    if degenerate:
        skew = 0.0
        dk = None
    else:
        sd = math.sqrt(variance)
        skew = float(np.sum(np.abs(centered) ** 3) / m) / sd ** 3
        dk = kolmogorov_distance(centered / sd)
    extra = extra_fn(variance, centered) if extra_fn is not None else {}
    return RunSummary(mean, variance, skew, dk, KOLMOGOROV_95 / math.sqrt(m),
                      m, config.seed, degenerate, None, wall_time, extra)


def write_replicas_csv(path, values: np.ndarray) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["replica", "value"])
        for i, v in enumerate(values):
            writer.writerow([i, repr(float(v))])


def read_replicas_csv(path) -> np.ndarray:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != ["replica", "value"]:
            raise ValueError("bad replica CSV header: %r" % (header,))
        return np.array([float(row[1]) for row in reader])


def _write_outputs(config: ExperimentConfig, values: np.ndarray,
                   summary: RunSummary) -> RunSummary:
    if config.outputs is None:
        return summary
    outdir = Path(config.outputs)
    outdir.mkdir(parents=True, exist_ok=True)
    csv_path = outdir / "replicas.csv"
    write_replicas_csv(csv_path, values)
    summary = RunSummary(**{**summary.__dict__, "csv_path": str(csv_path)})
    record = {"config": config.to_json(), "summary": summary.to_json(),
              "meta": {"wall_time": summary.wall_time,
                       "version": __version__}}
    with open(outdir / "summary.json", "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return summary


def _run(config: ExperimentConfig,
         extra_fn: Optional[ExtraFn] = None) -> RunSummary:
    """The one replicate -> summarize -> write path of every harness run."""
    t0 = time.perf_counter()
    values = _parallel_values(_replica_fn(config), config.replicas,
                              config.workers)
    nan = np.flatnonzero(np.isnan(values))
    if nan.size:
        i = int(nan[0])
        raise ValueError("replica %d (seed %d) is NaN"
                         % (i, rng.child_seed(config.seed, i)))
    summary = _summarize(values, config, extra_fn,
                         wall_time=time.perf_counter() - t0)
    return _write_outputs(config, values, summary)


def run_clt(config: ExperimentConfig) -> RunSummary:
    """Replicate the statistic, standardize by sample moments, and measure
    the empirical Kolmogorov distance to N(0, 1)."""
    return _run(config)


def run_variance_check(config: ExperimentConfig) -> RunSummary:
    """run_clt plus the ratio of the sample variance to the leading-order
    total nearest-weight variance (1 + d/2) C(n, d)."""
    if config.statistic != "nn":
        raise ValueError("variance check is defined for the nn statistic")
    target = bounds.nn_variance_asymptote(config.params.n, config.params.d)

    def extra_fn(var: float, centered: np.ndarray) -> Dict[str, float]:
        return {"variance_target": target,
                "variance_ratio": var / target,
                "variance_ratio_band3":
                    3.0 * variance_se(centered, var) / target}
    return _run(config, extra_fn)


def run_nn_face_moments(n: int, d: int, replicas: int,
                        seed: int) -> Dict[str, float]:
    """Empirical mean/variance of the nearest face-weight at one fixed
    (d-1)-simplex, against the exact per-face law."""
    params = exp_mean_n(n, d)
    ranks = cofacet_ranks(tuple(range(d)), n)
    values = np.empty(replicas)
    for i in range(replicas):
        values[i] = PairedSample(params, rng.child_seed(seed, i)) \
            .weight_values(ranks).min()
    mean, var, _ = moments(values)
    return {"mean": mean, "variance": var,
            "mean_exact": bounds.nn_mean_face(n, d),
            "variance_exact": bounds.nn_var_face(n, d),
            "replicas": replicas, "seed": seed}


def run_stabilization(config: ExperimentConfig, k: int) -> Dict:
    """Estimate every stabilization input for the configured statistic and
    evaluate the bound pipeline on the estimates."""
    stat = make_statistic(config.statistic, config.params)
    params = config.params
    m = config.replicas
    delta = estimate_delta_tilde(stat, params, k, m,
                                 rng.child_seed(config.seed, 1))
    gamma = estimate_gamma(params, k, m, rng.child_seed(config.seed, 2))
    rho = estimate_rho_probe(stat, params, k, [], [], m,
                             rng.child_seed(config.seed, 3))
    var_est, j_est = estimate_variance_and_J(
        stat, params, m, rng.child_seed(config.seed, 4))
    addone = estimate_addone_mean(stat, params, m,
                                  rng.child_seed(config.seed, 5))
    sigma_sq = max(var_est.point_estimate, 1e-300)
    inputs = bounds.BoundInputs(
        n=params.n, d=params.d, lam=params.lam, k=k, sigma_sq=sigma_sq,
        J=j_est.point_estimate, delta=delta.point_estimate,
        rho=bounds.rho_bound(j_est.point_estimate, k, params.n, params.d,
                             params.lam),
        gamma=gamma.point_estimate)
    record = {
        "config": config.to_json(),
        "k": k,
        "estimates": {e.quantity: e.to_json()
                      for e in (delta, gamma, rho, var_est, j_est, addone)},
        "bound_add_one": bounds.bound_add_one(inputs),
        "bound_corollary": bounds.bound_corollary(inputs),
        "note": "bounds up to universal constant C; rho input is the "
                "analytic ceiling, the probe is a lower-bound witness",
    }
    return record


def run_cov_nn(n: int, d: int, replicas: int, inner: int,
               seed: int) -> Dict[str, float]:
    """Covariance of the nearest face-weights at two (d-1)-simplices whose
    union is a single d-simplex (weights Exp(mean n), p = 1).

    Uses a common-random-numbers difference estimator: with X, Y the
    private minima at the two faces and w the shared weight,
    Z = (X^w)(Y^w) - (X^w1)(Y^w2) has mean exactly cov(NN, NN') because X
    and Y are independent and w1, w2 are independent copies of w.  Each
    replica averages Z over `inner` weight triples sharing one (X, Y) draw,
    which removes the O(1) variance of the naive product estimator.
    """
    if n < 2 * d + 2:
        raise ValueError("n too small")
    if inner < 1:
        raise ValueError("inner must be >= 1")
    m1 = n - d - 1
    dist = exp_mean_n(n, d).dist
    vals = np.empty(replicas)
    for r in range(replicas):
        key = rng.stream_key(rng.child_seed(seed, r), 0)
        w_all = dist.inverse_cdf(rng.uniform_range(key, 2 * m1 + 3 * inner))
        x = w_all[:m1].min()
        y = w_all[m1:2 * m1].min()
        w = w_all[2 * m1:2 * m1 + inner]
        w1 = w_all[2 * m1 + inner:2 * m1 + 2 * inner]
        w2 = w_all[2 * m1 + 2 * inner:]
        z = np.minimum(x, w) * np.minimum(y, w) \
            - np.minimum(x, w1) * np.minimum(y, w2)
        vals[r] = np.sum(z) / inner
    mean, var, _ = moments(vals)
    se = math.sqrt(var) / math.sqrt(replicas)
    exact = bounds.nn_cov_exact(n, d)
    return {"cov": mean, "std_error": se,
            "scaled_2n": 2.0 * n * mean,
            "scaled_2n_band3": 2.0 * n * 3.0 * se,
            "cov_exact": float(exact),
            "cov_asymptote": bounds.nn_cov_asymptote(n),
            "replicas": replicas, "inner": inner, "seed": seed,
            "n": n, "d": d}
