"""Statistics on weighted d-complexes and their Lipschitz descriptors.

Built-ins: total nearest face-weight (complete complexes), its alpha-capped
variant, isolated-simplex count, M-bounded cocycle count and Betti number,
and generic local statistics sum_sigma g((X, sigma)_M) for a user-supplied
isomorphism-invariant g.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .cohomology import coboundary_rows, rank_pm1
from .sampling import ModelParams, PairedSample
from .simplices import (SubComplexView, WeightedComplex, cofacet_minima,
                        cofacet_ranks, faces, unrank_colex_array)
from .topology import _m_ball, component_labels


# ---------------------------------------------------------------------------
# nearest face-weights (complete complex, p = 1)

def nn_all_faces(s: PairedSample) -> np.ndarray:
    """NN(sigma) for every (d-1)-simplex, vectorized over the weight stream."""
    if s.params.p != 1.0:
        raise ValueError("nearest face-weights require p = 1")
    return cofacet_minima(s.all_weights(), s.params.n, s.params.d)


def nn_face(s: PairedSample, sigma) -> float:
    """Minimum weight over the cofacets of one (d-1)-simplex."""
    if s.params.p != 1.0:
        raise ValueError("nearest face-weights require p = 1")
    ranks = cofacet_ranks(tuple(sigma), s.params.n)
    return float(s.weight_values(ranks).min())

def nn_total(s: PairedSample) -> float:
    """Total nearest face-weight of the fully weighted complete complex."""
    return float(nn_all_faces(s).sum())


def nn_terms(X: WeightedComplex) -> List[float]:
    """Per-face nearest weights of a materialized complex; every face must
    be covered (intended for complete complexes in tests and generic code)."""
    acc = f_alpha_faces(X, math.inf)
    if np.isinf(acc).any():
        raise ValueError("nn_total undefined: some face has degree 0")
    return acc.tolist()


def nn_total_complex(X: WeightedComplex) -> float:
    return math.fsum(nn_terms(X))


# ---------------------------------------------------------------------------
# alpha-diluted nearest face-weight

def f_alpha_faces(X: WeightedComplex, alpha: float) -> np.ndarray:
    """Per-face value: min over present cofacets of (w ^ alpha), or alpha
    for faces of degree zero."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    acc = np.full(math.comb(X.n, X.d), float(alpha))
    np.minimum.at(acc, X.face_rows.ravel(),
                  np.repeat(np.minimum(X.weights, alpha), X.d + 1))
    return acc


def f_alpha(X: WeightedComplex, alpha: float) -> float:
    return math.fsum(f_alpha_faces(X, alpha).tolist())


# ---------------------------------------------------------------------------
# isolated simplices

def isolated_count(X: WeightedComplex) -> int:
    """Number of (d-1)-simplices with no present cofacet."""
    return math.comb(X.n, X.d) - X.face_index.faces.size


# ---------------------------------------------------------------------------
# local statistics

@dataclass(frozen=True)
class LocalComplex:
    """A small explicit weighted complex handed to local functionals.

    Vertices are canonically relabeled 0..v-1 so that g implementations can
    be pure and isomorphism-invariance testable.
    """

    d: int
    lower: Tuple[Tuple[int, ...], ...]     # (d-1)-simplices
    top: Tuple[Tuple[int, ...], ...]       # d-simplices
    weights: Tuple[float, ...]

    @property
    def num_lower(self) -> int:
        return len(self.lower)

    def cocycle_dimension(self) -> int:
        """dim Z^{d-1} of this explicit complex."""
        if not self.top:
            return len(self.lower)
        rows = coboundary_rows([faces(tau) for tau in self.top], self.lower)
        return len(self.lower) - rank_pm1(rows)


def _localize(view: SubComplexView) -> LocalComplex:
    tops = unrank_colex_array(view.included, view.d, view.n)
    lows = unrank_colex_array(sorted(view.lower_faces), view.d - 1, view.n)
    used = np.union1d(tops, lows)

    def relabel(verts: np.ndarray) -> list:
        # the relabeling is increasing, so rows stay increasing tuples
        return list(map(tuple, np.searchsorted(used, verts).tolist()))
    top = sorted(zip(relabel(tops), view.weights))
    return LocalComplex(view.d, tuple(sorted(relabel(lows))),
                        tuple(t for t, _ in top), tuple(w for _, w in top))


@dataclass(frozen=True)
class LocalFunctional:
    """g((X, sigma)_M) summand: g on explicit small weighted complexes."""

    name: str
    g: Callable[[LocalComplex], float]
    M: int

    def __post_init__(self):
        if self.M < 1:
            raise ValueError("M must be >= 1")


def g_no_top_simplex(local: LocalComplex) -> float:
    """Indicator that the complex has no d-simplex."""
    return 1.0 if not local.top else 0.0


def make_cocycle_ratio(M: int) -> Callable[[LocalComplex], float]:
    """dim Z^{d-1} / f_{d-1}, gated to 0 < f_{d-1} <= M."""
    def g(local: LocalComplex) -> float:
        nl = local.num_lower
        if not 0 < nl <= M:
            return 0.0
        return local.cocycle_dimension() / nl
    return g


def local_statistic_terms(X: WeightedComplex,
                          lf: LocalFunctional) -> List[float]:
    """g((X, sigma)_M) for every (d-1)-simplex sigma of the full skeleton.

    Faces of degree zero all see the same singleton complex, so only faces
    covered by a present d-simplex are visited explicitly.
    """
    terms = []
    for fr in X.face_index.faces.tolist():
        ball = _m_ball(X, [fr], lf.M)
        terms.append(float(lf.g(_localize(ball))))
    single = LocalComplex(X.d, (tuple(range(X.d)),), (), ())
    return terms + [float(lf.g(single))] * isolated_count(X)


def local_statistic(X: WeightedComplex, lf: LocalFunctional) -> float:
    """sum over all (d-1)-simplices sigma of g((X, sigma)_M)."""
    return math.fsum(local_statistic_terms(X, lf))


# ---------------------------------------------------------------------------
# M-bounded cocycle count and Betti number

def cocycle_count_bounded(X: WeightedComplex, M: int) -> int:
    """Sum of dim Z^{d-1}(C) over strongly connected components C with
    f_{d-1}(C) <= M; singleton components contribute 1 each.

    dim Z^{d-1}(C) = f_{d-1}(C) - f_d(C) + dim ker(boundary on C), and a
    d-cycle is zero on every simplex with a face of degree 1, so peeling
    such simplices leaves the kernel alone: it is |core| - rank(core).
    """
    if M < 1:
        raise ValueError("M must be >= 1")
    rows, cid = X.face_index.rows, component_labels(X)
    small = np.bincount(cid) <= M
    core = np.flatnonzero(small[cid[rows[:, 0]]])
    total = isolated_count(X) + int(small[cid].sum()) - core.size
    while core.size:
        deg = np.bincount(rows[core].ravel(), minlength=cid.size)
        keep = (deg[rows[core]] > 1).all(axis=1)
        if keep.all():
            break
        core = core[keep]
    comp = cid[rows[core, 0]]
    for c in np.unique(comp):
        part = rows[core[comp == c]]
        total += part.shape[0] - rank_pm1(
            coboundary_rows(part.tolist(), np.unique(part).tolist()))
    return int(total)


def betti_bounded(X: WeightedComplex, M: int) -> int:
    """M-bounded (d-1)st Betti number: cocycle count minus C(n-1, d-1)."""
    return cocycle_count_bounded(X, M) - math.comb(X.n - 1, X.d - 1)


# ---------------------------------------------------------------------------
# named statistics and the selection grammar

@dataclass(frozen=True)
class Statistic:
    """An evaluatable functional with an optional constant Lipschitz modulus.

    `lipschitz_H` is the constant c such that presence differences at
    simplices tau contribute at most H(w, w') = c each; None marks
    statistics (like the uncapped nearest face-weight total) that admit no
    such constant.

    `terms`, when set, returns per-face contributions with
    fn(X) == sum(terms(X)).  Difference operators then subtract the term
    multisets under exact (fsum) accumulation, so contributions that agree
    between two complexes cancel exactly instead of leaving float residue;
    this is what makes the two-scale identities hold bit-exactly.

    `sample_fn`, when set, evaluates a sample without materializing its
    complex and agrees with fn(s.complex()) up to summation order.
    """

    name: str
    fn: Callable[[WeightedComplex], float]
    lipschitz_H: Optional[float]
    terms: Optional[Callable[[WeightedComplex], Sequence[float]]] = None
    sample_fn: Optional[Callable[[PairedSample], float]] = None

    def evaluate(self, X: WeightedComplex) -> float:
        return float(self.fn(X))

    def sample_value(self, s: PairedSample) -> float:
        """The statistic of the sample's primary complex."""
        if self.sample_fn is not None:
            return float(self.sample_fn(s))
        return self.evaluate(s.complex())


BUILTIN_LOCAL_G = {
    "isolated": lambda M: g_no_top_simplex,
    "cocycle-ratio": make_cocycle_ratio,
}


def make_statistic(spec: str, params: ModelParams) -> Statistic:
    """Parse a statistic selection string.

    Grammar: nn | nn-alpha:<a> | isolated | cocycle:<M> | betti:<M> |
    local:<builtin-g>:<M> with builtin g in {isolated, cocycle-ratio}.
    """
    d = params.d
    parts = spec.split(":")
    head = parts[0]
    if head == "nn" and len(parts) == 1:
        return Statistic("nn", nn_total_complex, None, terms=nn_terms,
                         sample_fn=nn_total if params.p == 1.0 else None)
    if head == "nn-alpha" and len(parts) == 2:
        alpha = float(parts[1])
        if alpha <= 0:
            raise ValueError("alpha must be positive")
        return Statistic(spec, lambda X: f_alpha(X, alpha), (d + 1) * alpha,
                         terms=lambda X: f_alpha_faces(X, alpha).tolist())
    if head == "isolated" and len(parts) == 1:
        return Statistic("isolated", lambda X: float(isolated_count(X)),
                         float(d + 1))
    if head in ("cocycle", "betti") and len(parts) == 2:
        M = int(parts[1])
        fn = cocycle_count_bounded if head == "cocycle" else betti_bounded
        return Statistic(spec, lambda X: float(fn(X, M)), float((d + 1) * M))
    if head == "local" and len(parts) == 3:
        gname, M = parts[1], int(parts[2])
        if gname not in BUILTIN_LOCAL_G:
            raise ValueError("unknown builtin g %r" % gname)
        lf = LocalFunctional(gname, BUILTIN_LOCAL_G[gname](M), M)
        return Statistic(spec, lambda X: local_statistic(X, lf),
                         float((d + 1) * M),
                         terms=lambda X: local_statistic_terms(X, lf))
    raise ValueError("cannot parse statistic %r" % spec)
