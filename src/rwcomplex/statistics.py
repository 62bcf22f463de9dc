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

from . import rng
from .cohomology import coboundary_rows, rank_pm1
from .sampling import ModelParams, PairedSample
from .simplices import (WeightedComplex, _sub, cofacet_minima, faces,
                        unrank_colex, unrank_colex_array)
from .topology import _center_faces, _m_ball, _walk, component_labels


def _site(X: WeightedComplex, tau_rank: int) -> Tuple[int, list, list]:
    """tau's position in X.present (-1: absent), its face ranks, and their
    ids in X's face index (-1: uncovered)."""
    i = int(np.searchsorted(X.present, tau_rank))
    ranks = _center_faces(X, unrank_colex(tau_rank, X.d, X.n))
    return (i if X.present[i:i + 1].tolist() == [tau_rank] else -1, ranks,
            [X.face_index.find(r) for r in ranks])


# ---------------------------------------------------------------------------
# nearest face-weights (complete complex, p = 1)

def nn_all_faces(s: PairedSample) -> np.ndarray:
    """NN(sigma) for every (d-1)-simplex: only the cofacet minima of the
    raw weight bits z become weights.  This is bit for bit the minimum of
    s.all_weights(), as min F(u) = F(min u) for u = (z >> 11) * 2^-53 and
    each law's non-decreasing F (the uniform law b * (1 - u) decreases, so
    it minimizes ~z).  In -theta * log(y) every step but log rounds
    monotonically, and y = 1 - u * scale is on the 2^-53 grid, whose
    neighbours differ in log by >= 1 / (2 y |log y|) >= e / 2 = 1.36 ulps
    (least at y = 1/e): so a log erring by < 0.68 ulp keeps F monotone.
    numpy's erred by <= 0.58 ulp on 20,000 grid points, glibc's is < 0.52.
    """
    if s.params.p != 1.0:
        raise ValueError("nearest face-weights require p = 1")
    flip = s.params.dist.kind == "uniform"
    z = s.weight_bits()
    m = cofacet_minima(np.invert(z, out=z) if flip else z, s.params.n,
                       s.params.d)
    return s.params.dist.inverse_cdf(rng.to_uniform(~m if flip else m))


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


def nn_near(X: WeightedComplex, tau_rank: int,
            w: Optional[float]) -> List[float]:
    """f_alpha_near at alpha = inf; raises like nn_terms if the complex,
    tau at weight w, leaves a face uncovered."""
    vals = f_alpha_near(X, tau_rank, w, math.inf)
    if math.inf in vals or isolated_count(X) > _site(X, tau_rank)[2].count(-1):
        raise ValueError("nn_total undefined: some face has degree 0")
    return vals


# ---------------------------------------------------------------------------
# alpha-diluted nearest face-weight

def f_alpha_faces(X: WeightedComplex, alpha: float) -> np.ndarray:
    """Per-face value: min over present cofacets of (w ^ alpha), or alpha
    for faces of degree zero."""
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    acc = np.full(math.comb(X.n, X.d), float(alpha))
    np.minimum.at(acc, X.face_rows.ravel(),
                  np.repeat(np.minimum(X.weights, alpha), X.d + 1))
    return acc


def f_alpha(X: WeightedComplex, alpha: float) -> float:
    return math.fsum(f_alpha_faces(X, alpha).tolist())


def f_alpha_near(X: WeightedComplex, tau_rank: int, w: Optional[float],
                 alpha: float) -> List[float]:
    """The values of tau's faces, tau at weight w (absent if None)."""
    pos, _, ids = _site(X, tau_rank)
    _, ptr, simp, _ = X.face_index.lists
    cap = alpha if w is None else min(w, alpha)
    return [min([cap] + X.weights[[s for s in simp[ptr[j]:ptr[j + 1]]
                                   if s != pos]].tolist())
            if j >= 0 else cap for j in ids]


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


def _localize(X: WeightedComplex, pos: np.ndarray,
              lower: np.ndarray) -> LocalComplex:
    """The subcomplex of X with the d-simplices at positions `pos` and the
    (d-1)-simplices of ranks `lower`, relabeled."""
    tops = unrank_colex_array(X.present[pos], X.d, X.n)
    lows = unrank_colex_array(lower, X.d - 1, X.n)
    used = np.union1d(tops, lows)

    def relabel(verts: np.ndarray) -> list:
        # the relabeling is increasing, so rows stay increasing tuples
        return list(map(tuple, np.searchsorted(used, verts).tolist()))
    top = sorted(zip(relabel(tops), X.weights[pos].tolist()))
    return LocalComplex(X.d, tuple(sorted(relabel(lows))),
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
        terms.append(float(lf.g(_localize(X, *_m_ball(X, [fr], lf.M)))))
    single = LocalComplex(X.d, (tuple(range(X.d)),), (), ())
    return terms + [float(lf.g(single))] * isolated_count(X)


def local_statistic(X: WeightedComplex, lf: LocalFunctional) -> float:
    """sum over all (d-1)-simplices sigma of g((X, sigma)_M)."""
    return math.fsum(local_statistic_terms(X, lf))


def local_statistic_near(X: WeightedComplex, tau_rank: int,
                         w: Optional[float],
                         lf: LocalFunctional) -> List[float]:
    """local_statistic_terms of tau's (2M - 1)-ball, tau at weight w
    (absent if None).  Only the faces within M - 1 of tau's faces see tau,
    their M-balls lie in that ball, and all other terms agree between the
    two states, since tau shortens no path from its own faces."""
    pos, ranks, _ = _site(X, tau_rank)
    reach = _walk(X, ranks, 2 * lf.M - 2)[1]
    Z = _sub(X, reach[reach != pos])
    return local_statistic_terms(Z if w is None else
                                 Z.with_simplex(tau_rank, w), lf)


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
    return int(isolated_count(X) + small[cid].sum() - core.size
               + _kernel_dim(rows[core], cid[rows[core, 0]]))


def _kernel_dim(rows: np.ndarray, comp: np.ndarray) -> int:
    """dim ker of the boundary map on the d-simplices with face rows
    `rows`: |core| - rank(core) per component `comp`, the core being what
    peeling simplices with a face of degree 1 leaves."""
    core = np.arange(rows.shape[0])
    while core.size:
        deg = np.bincount(rows[core].ravel())
        keep = (deg[rows[core]] > 1).all(axis=1)
        if keep.all():
            break
        core = core[keep]
    total = 0
    for c in np.unique(comp[core]):
        part = rows[core[comp[core] == c]]
        total += part.shape[0] - rank_pm1(
            coboundary_rows(part.tolist(), np.unique(part).tolist()))
    return total


def cocycle_near(X: WeightedComplex, tau_rank: int, w: Optional[float],
                 M: int) -> List[int]:
    """The cocycle count's part from the strong components holding tau's
    faces, tau present iff w is not None: each component of X - tau is
    walked from a face of tau and dropped past M faces (it then adds 0);
    with tau present they merge into one."""
    if M < 1:
        raise ValueError("M must be >= 1")
    pos, ranks, ids = _site(X, tau_rank)
    _, ptr, simp, nbr = X.face_index.lists
    k1, seen, comps = X.d + 1, set(), []
    for j in ids:
        if j < 0 or j in seen:
            continue
        fs, got, on = [j], {j}, set()
        for f in fs:
            if len(fs) > M:
                break
            for a in range(ptr[f], ptr[f + 1]):
                if simp[a] != pos:
                    on.add(simp[a])
                    new = set(nbr[k1 * a:k1 * a + k1]) - got
                    got |= new
                    fs += new
        seen |= got
        comps.append((len(fs), sorted(on)) if len(fs) <= M else None)
    nf = ids.count(-1)                  # faces X leaves uncovered: 1 each
    if w is None:
        comps = [c for c in comps if c]
    elif None in comps or nf + sum(c[0] for c in comps) > M:
        return [0]
    nf += sum(c[0] for c in comps)
    rows = X.face_rows[[p for c in comps for p in c[1]]]
    if w is not None:
        rows = np.vstack([rows, [ranks]])
    # ranks add up over components; a d-cycle needs d + 2 simplices
    return [nf - len(rows) + (_kernel_dim(rows, np.zeros(len(rows), int))
                              if len(rows) > k1 else 0)]


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

    `near(X, tau_rank, w)` returns the terms of fn at X with the
    d-simplex tau set to weight w (None: absent) that can depend on tau's
    state: fn of that complex minus the exact sum of the terms must not
    depend on the state.  Difference operators subtract two such lists
    under exact (fsum) accumulation, so the terms left out cancel exactly;
    this is what makes the two-scale identities hold bit-exactly.  Without
    it, `near_terms` returns [fn(X with tau in that state)].

    `sample_fn`, when set, evaluates a sample without materializing its
    complex and agrees with fn(s.complex()) up to summation order.
    """

    name: str
    fn: Callable[[WeightedComplex], float]
    lipschitz_H: Optional[float]
    near: Optional[Callable[[WeightedComplex, int, Optional[float]],
                            Sequence[float]]] = None
    sample_fn: Optional[Callable[[PairedSample], float]] = None

    def evaluate(self, X: WeightedComplex) -> float:
        return float(self.fn(X))

    def near_terms(self, X: WeightedComplex, tau_rank: int,
                   w: Optional[float]) -> Sequence[float]:
        """The near terms of X with tau at weight w (absent if None)."""
        if self.near is not None:
            return self.near(X, tau_rank, w)
        return [self.evaluate(X.without_simplex(tau_rank) if w is None
                              else X.with_simplex(tau_rank, w))]

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
        return Statistic("nn", nn_total_complex, None, near=nn_near,
                         sample_fn=nn_total if params.p == 1.0 else None)
    if head == "nn-alpha" and len(parts) == 2:
        alpha = float(parts[1])
        if not 0 < alpha < math.inf:
            raise ValueError("alpha must be finite and positive")
        return Statistic(spec, lambda X: f_alpha(X, alpha), (d + 1) * alpha,
                         near=lambda X, t, w: f_alpha_near(X, t, w, alpha))
    if head == "isolated" and len(parts) == 1:
        return Statistic("isolated", lambda X: float(isolated_count(X)),
                         float(d + 1), near=lambda X, t, w: [
                             f_alpha_near(X, t, w, math.inf).count(math.inf)])
    if head in ("cocycle", "betti") and len(parts) == 2:
        # the two differ by a constant, so they share their near terms
        M = int(parts[1])
        fn = cocycle_count_bounded if head == "cocycle" else betti_bounded
        return Statistic(spec, lambda X: float(fn(X, M)), float((d + 1) * M),
                         near=lambda X, t, w: cocycle_near(X, t, w, M))
    if head == "local" and len(parts) == 3:
        gname, M = parts[1], int(parts[2])
        if gname not in BUILTIN_LOCAL_G:
            raise ValueError("unknown builtin g %r" % gname)
        lf = LocalFunctional(gname, BUILTIN_LOCAL_G[gname](M), M)
        return Statistic(spec, lambda X: local_statistic(X, lf),
                         float((d + 1) * M),
                         near=lambda X, t, w: local_statistic_near(X, t, w,
                                                                   lf))
    raise ValueError("cannot parse statistic %r" % spec)
