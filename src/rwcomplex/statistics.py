"""Statistics on weighted d-complexes and their Lipschitz descriptors.

Built-ins: total nearest face-weight (complete complexes), its alpha-capped
variant, isolated-simplex count, M-bounded cocycle count, Betti number and
cocycle ratio, all sums over faces or strong components, and the generic
local statistic sum_sigma g((X, sigma)_M) of a user-built g, face by face.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from . import rng
from .cohomology import coboundary_rows, rank_pm1
from .sampling import ModelParams, PairedSample
from .simplices import (WeightedComplex, _sub, cofacet_minima,
                        d_simplex_count, faces, unrank_colex_array)
from .topology import _m_ball, _site, _walk, component_labels


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
    The bits are drawn chunk by chunk into cofacet_minima's one buffer, so
    the C(n, d+1) of them are never held at once.
    """
    if s.params.p != 1.0:
        raise ValueError("nearest face-weights require p = 1")
    n, d = s.params.n, s.params.d
    d_simplex_count(n, d)       # refuses an oversized instance up front
    key, flip = s._key(rng.TAG_W), s.params.dist.kind == "uniform"

    def fill(lo: int, out: np.ndarray) -> np.ndarray:
        z = rng._bits(key, lo, out)
        return np.invert(z, out=z) if flip else z

    m = cofacet_minima(fill, n, d)
    return s.params.dist.inverse_cdf(rng.to_uniform(~m if flip else m))


class UncoveredFaceError(ValueError):
    """nn on a complex that leaves some face without a cofacet."""


def nn_total(s: PairedSample) -> float:
    """Total nearest face-weight of the fully weighted complete complex."""
    return float(nn_all_faces(s).sum())


def nn_terms(X: WeightedComplex) -> List[float]:
    """Per-face nearest weights of a materialized complex; every face must
    be covered (intended for complete complexes in tests and generic code)."""
    acc = f_alpha_faces(X, math.inf)
    if np.isinf(acc).any():
        raise UncoveredFaceError(
            "nn_total undefined: some face has degree 0")
    return acc.tolist()


def nn_total_complex(X: WeightedComplex) -> float:
    return math.fsum(nn_terms(X))


def nn_near(X: WeightedComplex, tau_rank: int, w: Optional[float],
            within: Optional[Sequence[int]] = None) -> List[float]:
    """f_alpha_near at alpha = inf; raises like nn_terms if the complex,
    tau at weight w, leaves a face uncovered."""
    vals = f_alpha_near(X, tau_rank, w, within, math.inf)
    rows = X.face_index.rows if within is None else X.face_index.rows[within]
    others = np.setdiff1d(rows, _site(X, tau_rank)[2]).size   # not tau's
    if math.inf in vals or others < math.comb(X.n, X.d) - X.d - 1:
        raise UncoveredFaceError(
            "nn_total undefined: some face has degree 0")
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
                 within: Optional[Sequence[int]], alpha: float) -> List[float]:
    """The values of tau's faces, tau at weight w (absent if None), on the
    simplices of X at positions `within` (None: all)."""
    pos, _, ids = _site(X, tau_rank)
    _, ptr, simp, _ = X.face_index.lists
    inside = range(X.num_present) if within is None else set(within)
    cap = alpha if w is None else min(w, alpha)
    return [min([cap] + X.weights[[s for s in simp[ptr[j]:ptr[j + 1]]
                                   if s != pos and s in inside]].tolist())
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
                         w: Optional[float], within: Optional[Sequence[int]],
                         lf: LocalFunctional) -> List[float]:
    """local_statistic_terms of tau's (2M - 1)-ball on the simplices of X
    at positions `within` (None: all), tau at weight w (None: absent).
    Only the faces within M - 1 of tau's faces see tau, their M-balls lie
    in that ball, and all other terms agree between the two states, since
    tau shortens no path from its own faces."""
    pos, ranks, _ = _site(X, tau_rank)
    reach = _walk(X, ranks, 2 * lf.M - 2, within)[1]
    Z = _sub(X, [p for p in reach if p != pos])
    return local_statistic_terms(Z if w is None else
                                 Z.with_simplex(tau_rank, w), lf)


# ---------------------------------------------------------------------------
# M-bounded cocycle count, Betti number and cocycle ratio

def _small_components(X: WeightedComplex,
                      M: int) -> Tuple[np.ndarray, np.ndarray]:
    """(f, z) of each strong component C of X with at most M faces:
    f = f_{d-1}(C) and z = dim Z^{d-1}(C) = f - f_d(C) + dim ker(boundary
    on C).  A d-cycle is zero on every simplex with a face of degree 1, so
    peeling such simplices leaves the kernel alone: |core| - rank(core)."""
    rows, cid = X.face_index.rows, component_labels(X)
    f = np.bincount(cid)
    top = cid[rows[:, 0]]
    small = f <= M
    on = np.flatnonzero(small[top])
    # every component has a simplex, so both bincounts have f.size entries
    z = f - np.bincount(top) + _kernel_dims(rows[on], top[on], f.size)
    return f[small], z[small]


def cocycle_count_bounded(X: WeightedComplex, M: int) -> int:
    """Sum of dim Z^{d-1}(C) over strongly connected components C with
    f_{d-1}(C) <= M; singleton components contribute 1 each."""
    if M < 1:
        raise ValueError("M must be >= 1")
    return int(isolated_count(X) + _small_components(X, M)[1].sum())


def cocycle_ratio_total(X: WeightedComplex, M: int) -> float:
    """local:cocycle-ratio:<M>.  The M-ball of a face is its strong
    component C if C has at most M faces, and has more than M otherwise, so
    C adds f copies of z / f and an uncovered face 1, in one fsum: a second
    rounding would change the bytes of the per-face sum."""
    f, z = _small_components(X, M)
    return math.fsum(np.repeat(z / f, f).tolist() + [1.0] * isolated_count(X))


def _kernel_dims(rows: np.ndarray, comp: np.ndarray, k: int) -> np.ndarray:
    """dim ker of the boundary map on the d-simplices with face rows `rows`
    in each of the k components `comp`: |core| - rank(core), the core being
    what peeling simplices with a face of degree 1 leaves."""
    core = np.arange(rows.shape[0])
    while core.size:
        deg = np.bincount(rows[core].ravel())
        keep = (deg[rows[core]] > 1).all(axis=1)
        if keep.all():
            break
        core = core[keep]
    out = np.zeros(k, dtype=np.int64)
    for c in np.unique(comp[core]).tolist():
        part = rows[core[comp[core] == c]]
        out[c] = part.shape[0] - rank_pm1(
            coboundary_rows(part.tolist(), np.unique(part).tolist()))
    return out


def cocycle_near(X: WeightedComplex, tau_rank: int, w: Optional[float],
                 within: Optional[Sequence[int]],
                 M: int) -> List[Tuple[int, int]]:
    """(f, z) as in _small_components of the strong components holding
    tau's faces on the simplices of X at positions `within` (None: all),
    tau present iff w is not None: each component without tau is walked
    from a face of tau and dropped past M faces, and an uncovered face is
    (1, 1); with tau present they merge into one, dropped too past M."""
    pos, ranks, ids = _site(X, tau_rank)
    _, ptr, simp, row_ids = X.face_index.lists
    inside = range(X.num_present) if within is None else set(within)
    k1, seen, comps = X.d + 1, set(), [(1, [])] * ids.count(-1)
    for j in ids:
        if j < 0 or j in seen:
            continue
        fs, got, on = [j], {j}, set()
        for f in fs:
            if len(fs) > M:
                break
            for s in simp[ptr[f]:ptr[f + 1]]:
                if s != pos and s in inside:
                    on.add(s)
                    new = set(row_ids[k1 * s:k1 * s + k1]) - got
                    got |= new
                    fs += new
        seen |= got
        comps.append((len(fs), sorted(on)) if len(fs) <= M else None)
    if w is None:
        comps = [c for c in comps if c]
    elif None in comps or sum(c[0] for c in comps) > M:
        return []
    else:                               # tau, in the last row, joins them
        comps = [(sum(c[0] for c in comps),
                  [p for c in comps for p in c[1]] + [X.num_present])]
    tops = [len(c[1]) for c in comps]
    ker = [0] * len(tops)
    if sum(tops) > k1:                  # a d-cycle needs d + 2 simplices
        rows = np.vstack([X.face_rows, [ranks]])
        ker = _kernel_dims(rows[[p for c in comps for p in c[1]]], np.repeat(
            np.arange(len(tops)), tops), len(tops)).tolist()
    return [(f, f - t + c) for (f, _), t, c in zip(comps, tops, ker)]


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

    `near(X, tau_rank, w, within)` returns the terms of fn on the
    simplices of X at ascending positions `within` (None: all of X), with
    the d-simplex tau at weight w (None: absent), that can depend on tau's
    state: fn of that complex minus the exact sum of the terms must not
    depend on the state.  Difference operators subtract two such lists
    under exact (fsum) accumulation, so the terms left out cancel exactly;
    this is what makes the two-scale identities hold bit-exactly.  Without
    it, `near_terms` returns [fn(that complex)].

    `sample_fn`, when set, evaluates a sample without materializing its
    complex and agrees with fn(s.complex()) up to summation order.
    """

    name: str
    fn: Callable[[WeightedComplex], float]
    lipschitz_H: Optional[float]
    near: Optional[Callable[..., Sequence[float]]] = None
    sample_fn: Optional[Callable[[PairedSample], float]] = None

    def evaluate(self, X: WeightedComplex) -> float:
        return float(self.fn(X))

    def near_terms(self, X: WeightedComplex, tau_rank: int,
                   w: Optional[float],
                   within: Optional[Sequence[int]] = None) -> Sequence[float]:
        """The near terms of X, or of its simplices at positions `within`,
        with tau at weight w (absent if None)."""
        if self.near is not None:
            return self.near(X, tau_rank, w, within)
        Z = X if within is None else _sub(X, within)
        return [self.evaluate(Z.without_simplex(tau_rank) if w is None
                              else Z.with_simplex(tau_rank, w))]

    def sample_value(self, s: PairedSample) -> float:
        """The statistic of the sample's primary complex."""
        if self.sample_fn is not None:
            return float(self.sample_fn(s))
        return self.evaluate(s.complex())


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
                         near=lambda *at: f_alpha_near(*at, alpha))
    if head == "isolated" and len(parts) == 1:
        return Statistic("isolated", lambda X: float(isolated_count(X)),
                         float(d + 1), near=lambda *at: [
                             f_alpha_near(*at, math.inf).count(math.inf)])
    if head in ("cocycle", "betti", "local") and \
            len(parts) == (3 if head == "local" else 2):
        M = int(parts[-1])
        if M < 1:
            raise ValueError("M must be >= 1")
        H = float((d + 1) * M)
        if head != "local":
            # the two differ by a constant, so they share their near terms
            fn = cocycle_count_bounded if head == "cocycle" else betti_bounded
            return Statistic(spec, lambda X: float(fn(X, M)), H,
                             near=lambda *at: [
                                 sum(z for _, z in cocycle_near(*at, M))])
        if parts[1] == "isolated":
            # the M-ball of a covered face holds a d-simplex, so g is 0 there
            return replace(make_statistic("isolated", params), name=spec,
                           lipschitz_H=H)
        if parts[1] == "cocycle-ratio":
            return Statistic(spec, lambda X: cocycle_ratio_total(X, M), H,
                             near=lambda *at: [
                                 z / f for f, z in cocycle_near(*at, M)
                                 for _ in range(f)])
        raise ValueError("unknown builtin g %r" % parts[1])
    raise ValueError("cannot parse statistic %r" % spec)
