"""Sampling of randomly weighted d-complexes with exact coupling.

A PairedSample holds the model parameters plus a master seed and exposes the
quadruple (b, w, b', w') at every d-simplex rank as a pure function of
(seed, rank).  The primary complex X, every resampled complex X^F, and all
conditioned variants therefore live on one common probability space without
ever storing C(n, d+1) values.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional

import numpy as np

from . import rng
from .simplices import WeightedComplex, d_simplex_count


@dataclass(frozen=True)
class WeightDistribution:
    """Weight law: exponential(mean), uniform(0, bound], or constant(value).

    For the exponential kind, `cap` conditions the law on {w <= cap}
    (truncated exponential); constant(1) is the unweighted case.
    """

    kind: str
    param: float
    cap: Optional[float] = None

    def __post_init__(self):
        if self.kind not in ("exponential", "uniform", "constant"):
            raise ValueError("unknown weight distribution %r" % self.kind)
        if not math.isfinite(self.param) or \
                not math.isfinite(0.0 if self.cap is None else self.cap):
            raise ValueError("parameters must be finite")
        if self.kind in ("exponential", "uniform") and self.param <= 0:
            raise ValueError("parameter must be positive")
        if self.kind == "constant" and self.param < 0:
            raise ValueError("constant weight must be nonnegative")
        if self.cap is not None:
            if self.kind != "exponential":
                raise ValueError("cap only supported for exponential weights")
            if self.cap <= 0:
                raise ValueError("cap must be positive")

    def inverse_cdf(self, u: np.ndarray) -> np.ndarray:
        """Weights at the uniforms u, in one new array."""
        out = self._inverse_cdf_over(np.array(u, dtype=np.float64))
        return out if out.ndim else out[()]

    def _inverse_cdf_over(self, u: np.ndarray) -> np.ndarray:
        """inverse_cdf(u), written over the float64 array u."""
        if self.kind == "constant":
            u.fill(self.param)
        elif self.kind == "uniform":                      # param * (1 - u)
            np.multiply(self.param, np.subtract(1.0, u, out=u), out=u)
        else:                                 # -param * log(1 - u * scale)
            if self.cap is not None:
                np.multiply(u, 1.0 - math.exp(-self.cap / self.param), out=u)
            np.log(np.subtract(1.0, u, out=u), out=u)
            np.multiply(-self.param, u, out=u)
        return u

    def to_json(self) -> dict:
        out = {"kind": self.kind, "param": self.param}
        if self.cap is not None:
            out["cap"] = self.cap
        return out

    @staticmethod
    def from_json(obj: dict) -> "WeightDistribution":
        return WeightDistribution(obj["kind"], float(obj["param"]),
                                  float(obj["cap"]) if "cap" in obj else None)


@dataclass(frozen=True)
class ModelParams:
    """Model parameters; lam is always exactly n * p."""

    n: int
    d: int
    p: float
    dist: WeightDistribution

    def __post_init__(self):
        if not 1 <= self.d < self.n:
            raise ValueError("need 1 <= d < n")
        if not 0.0 < self.p <= 1.0:
            raise ValueError("p must be in (0, 1]")

    @property
    def lam(self) -> float:
        return self.n * self.p

    @property
    def num_d_simplices(self) -> int:
        return math.comb(self.n, self.d + 1)

    def to_json(self) -> dict:
        return {"n": self.n, "d": self.d, "p": self.p,
                "dist": self.dist.to_json()}

    @staticmethod
    def from_json(obj: dict) -> "ModelParams":
        return ModelParams(int(obj["n"]), int(obj["d"]), float(obj["p"]),
                           WeightDistribution.from_json(obj["dist"]))


def exp_mean_n(n: int, d: int, p: float = 1.0) -> ModelParams:
    """The nearest face-weight model: Exp(mean n) weights, default p = 1."""
    return ModelParams(n, d, p, WeightDistribution("exponential", float(n)))


@dataclass(frozen=True)
class ForcedBits:
    """Presence-bit overrides by rank, applied after sampling.

    Realizes conditioning on bit events (e.g. b_tau + b'_tau = 1) without
    rejection; valid because all coordinates are independent.
    """

    b: Dict[int, int] = field(default_factory=dict)
    b_prime: Dict[int, int] = field(default_factory=dict)

    def __post_init__(self):
        for m in (self.b, self.b_prime):
            for r, v in m.items():
                if v not in (0, 1):
                    raise ValueError("forced bit must be 0 or 1")


@dataclass(frozen=True)
class PairedSample:
    """Lazily materializable (B, W, B', W') streams for one seed."""

    params: ModelParams
    seed: int
    forced: Optional[ForcedBits] = None

    def _key(self, tag: int) -> int:
        return rng.stream_key(self.seed, tag)

    def presence(self, ranks, primed: bool = False) -> np.ndarray:
        """Presence bits at the given ranks (b, or b' when primed)."""
        tag = rng.TAG_BP if primed else rng.TAG_B
        u = rng.uniforms(self._key(tag), ranks)
        bits = u < self.params.p
        if self.forced is not None:
            over = self.forced.b_prime if primed else self.forced.b
            if over:
                r = np.asarray(ranks)
                for rank, v in over.items():
                    bits = np.where(r == rank, bool(v), bits)
        return bits

    def weight_values(self, ranks, primed: bool = False) -> np.ndarray:
        """Weights at the given ranks (w, or w' when primed)."""
        tag = rng.TAG_WP if primed else rng.TAG_W
        u = rng.uniforms(self._key(tag), ranks)
        return self.params.dist.inverse_cdf(u)

    def weight_bits(self) -> np.ndarray:
        """The raw uint64 outputs of the w stream at every rank, in order."""
        return rng.bits_range(self._key(rng.TAG_W), d_simplex_count(
            self.params.n, self.params.d))

    def all_weights(self) -> np.ndarray:
        """Weights w at every rank 0..C(n, d+1)-1, in rank order, built
        over the uniforms: one array of C(n, d+1) values."""
        return self.params.dist._inverse_cdf_over(rng.uniform_range(
            self._key(rng.TAG_W),
            d_simplex_count(self.params.n, self.params.d)))

    def complex(self) -> WeightedComplex:
        """The primary complex X."""
        return self.resampled(())

    def resampled(self, F: Iterable[int]) -> WeightedComplex:
        """X^F: the coupled complex using (b', w') on F and (b, w) elsewhere."""
        nd = d_simplex_count(self.params.n, self.params.d)
        fset = F if isinstance(F, np.ndarray) \
            else np.asarray(list(F), dtype=np.int64)
        # np.unique imports numpy.ma, which the primary complex never needs
        if fset.size:
            fset = np.unique(fset)
            if fset[0] < 0 or fset[-1] >= nd:
                raise ValueError("resample rank out of range")
        present = rng.ranks_below(self._key(rng.TAG_B), nd, self.params.p)
        for r, v in (self.forced.b if self.forced else {}).items():
            if 0 <= r < nd:     # forced ranks out of range are ignored
                present = np.union1d(present, [r]) if v \
                    else np.setdiff1d(present, [r])
        if fset.size:
            present = np.union1d(np.setdiff1d(present, fset),
                                 fset[self.presence(fset, primed=True)])
            on_f = np.isin(present, fset)
            w = np.empty(present.size)
            w[~on_f] = self.weight_values(present[~on_f])
            w[on_f] = self.weight_values(present[on_f], primed=True)
        elif present.size == nd:        # every rank: the contiguous stream
            w = self.all_weights()
        else:
            w = self.weight_values(present)
        return WeightedComplex(self.params.n, self.params.d, present, w)


def sample_complex(params: ModelParams, seed: int) -> WeightedComplex:
    """One realization of the randomly weighted d-complex."""
    return PairedSample(params, seed).complex()


def truncated_params(params: ModelParams, alpha: float) -> ModelParams:
    """Parameters of the alpha-thresholded model.

    Keeping each d-simplex of the fully weighted complete complex iff its
    weight is at most alpha yields, in law, a Bernoulli(1 - e^{-alpha/theta})
    complex with weights from the exponential conditioned on being <= alpha.
    """
    if params.dist.kind != "exponential" or params.dist.cap is not None:
        raise ValueError("truncation requires untruncated exponential weights")
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    theta = params.dist.param
    p = 1.0 - math.exp(-alpha / theta)
    return ModelParams(params.n, params.d, p,
                       WeightDistribution("exponential", theta, cap=alpha))
