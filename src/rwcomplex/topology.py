"""Path neighborhoods on (d-1)-simplices: balls, components, connectivity.

A path is a sequence of (d-1)-simplices whose consecutive unions are
distinct present d-simplices; its length is the number of steps.  Shortest
witnessing paths never repeat a d-simplex (repeating one would allow a
shortcut), so plain breadth-first search on the face adjacency graph
computes minimal path lengths; the brute-force path enumerator in the test
suite checks this equivalence.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .sampling import ModelParams
from .simplices import (Simplex, WeightedComplex, _sub, face_rank_array,
                        faces, rank_colex, unrank_colex)


def _walk(X: WeightedComplex, sources: List[int], depth: float,
          within: Optional[Sequence[int]] = None) -> Tuple[dict, list]:
    """BFS over X's face index from the covered faces among `sources`
    (ranks) through the simplices at positions `within` (None: all of X):
    {face id: distance} for them and every face within `depth`, and the
    ascending positions in X.present of the simplices on the latter."""
    index = X.face_index
    _, ptr, simp, row_ids = index.lists
    k1 = X.d + 1
    inside = None if within is None else set(within)
    dist = dict.fromkeys([j for j in map(index.find, sources) if j >= 0], 0)
    queue = list(dist)
    reached = set()
    for f in queue:     # the loop also visits the faces appended below
        df = dist[f]
        if df > depth:
            break       # depth < 0: not even the sources are within it
        on = simp[ptr[f]:ptr[f + 1]]
        if inside is not None:
            on = [s for s in on if s in inside]
        reached.update(on)
        if df < depth:
            for s in on:
                for o in row_ids[k1 * s:k1 * s + k1]:
                    if o not in dist:
                        dist[o] = df + 1
                        queue.append(o)
    return dist, sorted(reached)


def bfs_distances(X: WeightedComplex, source_rank: int,
                  max_dist: Optional[int] = None) -> Dict[int, int]:
    """Minimal path lengths from a source (d-1)-simplex to every reached one."""
    dist = _walk(X, [source_rank], math.inf if max_dist is None
                 else max_dist)[0]
    faces_ = X.face_index.lists[0]
    return {faces_[j]: v for j, v in dist.items()} or {source_rank: 0}


def _center_faces(X: WeightedComplex, center: Sequence[int]) -> List[int]:
    """Ranks of a center's (d-1)-simplices: itself, or its d+1 faces."""
    c = tuple(center)
    if len(c) == X.d:
        return [rank_colex(c)]
    if len(c) == X.d + 1:
        return [rank_colex(f) for f in faces(c)]
    raise ValueError("center must have dimension d-1 or d")


def _site(X: WeightedComplex, tau_rank: int) -> Tuple[int, list, list]:
    """tau's position in X.present (-1: absent), its face ranks, and their
    ids in X's face index (-1: uncovered): found once per (X, tau) and kept
    on X, as its face rows are."""
    sites = X.__dict__.setdefault("_sites", {})
    if tau_rank not in sites:
        i = int(X.present.searchsorted(tau_rank))
        ranks = _center_faces(X, unrank_colex(tau_rank, X.d, X.n))
        i = i if X.present[i:i + 1].tolist() == [tau_rank] else -1
        sites[tau_rank] = i, ranks, [X.face_index.find(r) for r in ranks]
    return sites[tau_rank]


def connected_within(X: WeightedComplex, sigma: Sequence[int],
                     sigma_prime: Sequence[int], k: int) -> bool:
    """True iff a path of length <= k joins the two (d-1)-simplices in X."""
    return rank_colex(tuple(sigma_prime)) in \
        bfs_distances(X, rank_colex(tuple(sigma)), max_dist=k)


def ball_k(X: WeightedComplex, center: Sequence[int],
           k: int) -> WeightedComplex:
    """B_k(center, X) over the full ambient skeleton, sliced from X.

    The center may be a (d-1)-simplex or a d-simplex (union over its faces).
    A present d-simplex tau' belongs to the ball iff some face of tau' is at
    BFS distance <= k-1 from a center face.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    return _sub(X, _walk(X, _center_faces(X, center), k - 1)[1])


def m_ball(X: WeightedComplex, center: Sequence[int],
           M: int) -> Tuple[WeightedComplex, np.ndarray]:
    """(X, center)_M: generated by the center and its reachable d-simplices.

    Unlike ball_k this does not carry the ambient skeleton: its (d-1)-
    simplices are the center face(s) plus the faces of included d-simplices,
    returned as ascending ranks next to the d-simplices sliced from X.
    """
    if M < 1:
        raise ValueError("M must be >= 1")
    pos, lower = _m_ball(X, _center_faces(X, center), M)
    return _sub(X, pos), lower


def _m_ball(X: WeightedComplex, sources: List[int],
            M: int) -> Tuple[np.ndarray, np.ndarray]:
    """m_ball from the ranks of the center's (d-1)-simplices: the ascending
    positions in X.present of its d-simplices and its face ranks, ascending."""
    reached = np.array(_walk(X, sources, M - 1)[1], dtype=np.int64)
    lower = set(X.face_rows[reached].ravel().tolist()).union(sources)
    return reached, np.array(sorted(lower), dtype=np.int64)


@dataclass(frozen=True)
class ComponentLabeling:
    """Partition of (d-1)-simplices into strong-connectivity classes.

    Only faces covered by some present d-simplex are listed explicitly;
    every uncovered face is its own singleton component and is accounted
    for by `num_singletons`.
    """

    n: int
    d: int
    labels: Dict[int, int]            # covered face rank -> component id
    comp_faces: List[List[int]]       # per component, its face ranks
    comp_simplices: List[List[int]]   # per component, its d-simplex ranks
    num_singletons: int

    @property
    def num_components(self) -> int:
        return len(self.comp_faces) + self.num_singletons


def component_labels(X: WeightedComplex) -> np.ndarray:
    """The strong component id of each face of X.face_index, numbered by
    first appearance in face_rows read row by row.  Each pair of simplices
    next to each other on one face's run of the CSR hooks its larger root to
    its smaller, then pointers jump to a fixed point, until every pair has
    one root: the least simplex position in its component, so roots count."""
    index = X.face_index
    simp, ptr = index.simp, index.ptr
    later = np.ones(simp.size, dtype=bool)           # not a run start
    later[ptr[:-1]] = False
    u, v = simp[:-1][later[1:]], simp[later]
    parent, ru, rv = np.arange(X.num_present), u, v
    while (ru != rv).any():
        np.minimum.at(parent, np.maximum(ru, rv), np.minimum(ru, rv))
        jumped = parent[parent]
        while (jumped != parent).any():
            parent, jumped = jumped, jumped[jumped]
        ru, rv = parent[u], parent[v]
    cid = np.cumsum(parent == np.arange(parent.size)) - 1
    return cid[parent[simp[ptr[:-1]]]]


def components(X: WeightedComplex) -> ComponentLabeling:
    """Strongly connected components of X (singletons counted, not listed)."""
    index, cid = X.face_index, component_labels(X)

    def split(ranks, comp):
        # every component has a face and a simplex, so bincount has one
        # entry per component; the part past the final cut is empty
        cuts = np.cumsum(np.bincount(comp))
        return [part.tolist() for part in
                np.split(ranks[np.argsort(comp, kind="stable")], cuts)[:-1]]
    return ComponentLabeling(
        X.n, X.d, dict(zip(index.faces.tolist(), cid.tolist())),
        split(index.faces, cid), split(X.present, cid[index.rows[:, 0]]),
        math.comb(X.n, X.d) - cid.size)


def component_view(X: WeightedComplex, labeling: ComponentLabeling,
                   cid: int) -> Tuple[WeightedComplex, np.ndarray]:
    """One strongly connected component: its d-simplices sliced from X and
    its face ranks, ascending."""
    pos = np.searchsorted(X.present, labeling.comp_simplices[cid])
    return (_sub(X, np.sort(pos)),
            np.sort(np.array(labeling.comp_faces[cid], dtype=np.int64)))


# ---------------------------------------------------------------------------
# exact connection probability by exhaustive enumeration

GAMMA_ENUMERATION_GUARD = 24


def canonical_disjoint_pair(n: int, d: int) -> Tuple[Simplex, Simplex]:
    """Colex-first pair of vertex-disjoint (d-1)-simplices."""
    if n < 2 * d:
        raise ValueError("no disjoint (d-1)-simplex pair for n < 2d")
    return tuple(range(d)), tuple(range(d, 2 * d))


def connection_counts(n: int, d: int, k: int) -> np.ndarray:
    """counts[m] = number of present-sets of size m joining the canonical
    disjoint pair sigma, sigma' by a path of length <= k (by symmetry, every
    disjoint pair has the same counts).  Vectorized frontier propagation
    over all 2^{C(n,d+1)} present-sets, chunked."""
    sigma, sigma_prime = canonical_disjoint_pair(n, d)
    nd = math.comb(n, d + 1)
    if nd > GAMMA_ENUMERATION_GUARD:
        raise ValueError("C(n, d+1) = %d exceeds enumeration guard %d"
                         % (nd, GAMMA_ENUMERATION_GUARD))
    nf = math.comb(n, d)
    if nf > 32:
        raise ValueError("too many (d-1)-simplices for 32-bit frontiers")

    # face-mask of each d-simplex
    franks = face_rank_array(np.arange(nd), d, n)
    face_masks = np.bitwise_or.reduce(
        np.left_shift(np.uint32(1), franks.astype(np.uint32)), axis=1)

    src_bit = np.uint32(1 << rank_colex(sigma))
    dst_bit = np.uint32(1 << rank_colex(sigma_prime))
    shifts = np.arange(nd, dtype=np.uint32)[:, None]
    counts = np.zeros(nd + 1, dtype=np.int64)
    chunk = 1 << 16         # a chunk's nd presence rows stay in cache
    for lo in range(0, 1 << nd, chunk):
        subsets = np.arange(lo, min(lo + chunk, 1 << nd), dtype=np.uint32)
        # present[t]: whether d-simplex t is in each subset; its column
        # sums are the subset sizes
        present = ((subsets >> shifts) & np.uint32(1)).astype(bool)
        frontier = np.full(subsets.size, src_bit, dtype=np.uint32)
        for _ in range(k):
            new = frontier.copy()
            for mask, bits in zip(face_masks, present):
                new |= (((frontier & mask) != 0) & bits) * mask
            if np.array_equal(new, frontier):
                break
            frontier = new
        hit = (frontier & dst_bit) != 0
        counts += np.bincount(present[:, hit].sum(axis=0),
                              minlength=nd + 1)
    return counts


def gamma_exact(params: ModelParams, k: int) -> float:
    """Exact probability that two disjoint (d-1)-simplices are joined by a
    path of length <= k, by summing over all present-sets."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    counts = connection_counts(params.n, params.d, k)
    nd = params.num_d_simplices
    p = params.p
    return float(sum(int(counts[m]) * p ** m * (1.0 - p) ** (nd - m)
                     for m in range(nd + 1)))
