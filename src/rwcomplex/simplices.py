"""Canonical simplices, colexicographic ranking, and weighted d-complexes.

Vertices are 0-based (the usual 1-based convention for vertex sets maps to
ours by subtracting one everywhere).  A k-simplex is a strictly increasing
tuple of k+1 vertex ids.  Its colexicographic rank is

    rank({v_0 < ... < v_k}) = sum_i C(v_i, i+1),

which does not depend on the ambient vertex count, so ranks compose across
different n.  A weighted d-complex stores only its present d-simplices and
their weights; the complete (d-1)-skeleton is implicit.
"""
from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import repeat
from typing import Sequence, Tuple

import numpy as np

from . import rng

Simplex = Tuple[int, ...]


def check_simplex(vertices: Sequence[int], n: int) -> None:
    v = tuple(vertices)
    if len(v) == 0:
        raise ValueError("empty vertex tuple")
    if any(b <= a for a, b in zip(v, v[1:])):
        raise ValueError("vertices must be strictly increasing: %r" % (v,))
    if v[0] < 0 or v[-1] >= n:
        raise ValueError("vertices out of range [0, %d): %r" % (n, v))


def _check_weights(weights) -> None:
    """Refuse non-finite or negative simplex weights.  A NaN propagates
    through both reductions, so it is refused as non-finite first."""
    lo, hi = weights.min(initial=0.0), weights.max(initial=0.0)
    if not -math.inf < lo <= hi < math.inf:
        raise ValueError("weights must be finite")
    if lo < 0:
        raise ValueError("negative weight")


def rank_colex(vertices: Sequence[int]) -> int:
    """Colexicographic rank of a strictly increasing vertex tuple."""
    return sum(math.comb(v, i + 1) for i, v in enumerate(vertices))


def unrank_colex(r: int, k: int, n: int) -> Simplex:
    """Inverse of rank_colex for k-simplices over n vertices."""
    if not 0 <= r < math.comb(n, k + 1):
        raise ValueError("rank %d out of range for k=%d, n=%d" % (r, k, n))
    B = _comb_rows(n, k)
    out, m = [0] * (k + 1), n
    for j in range(k + 1, 0, -1):
        # largest m below the last with C(m, j) <= r (rows are sorted)
        m = bisect_right(B[j], r, 0, m) - 1
        r -= B[j][m]
        out[j - 1] = m
    return tuple(out)


def faces(tau: Sequence[int]) -> list:
    """Codimension-1 faces in deletion-index order (delete vertex 0 first)."""
    t = tuple(tau)
    return [t[:i] + t[i + 1:] for i in range(len(t))]


# ---------------------------------------------------------------------------
# vectorized colex arithmetic

_INT64_MAX = int(np.iinfo(np.int64).max)


@lru_cache(maxsize=32)
def _comb_rows(n: int, k: int) -> tuple:
    """Rows B[j][v] = C(v, j) for j <= k+1 and v <= n, as exact ints."""
    return tuple(tuple(math.comb(v, j) for v in range(n + 1))
                 for j in range(k + 2))


@lru_cache(maxsize=32)
def _binomials(n: int, k: int) -> np.ndarray:
    """Read-only table B[j, v] = C(v, j) for j <= k+1 and v <= n.

    Entries past the int64 range are saturated: they exceed every rank
    that fits in int64, so they never match and never enter a sum.
    """
    B = np.array([[min(c, _INT64_MAX) for c in row]
                  for row in _comb_rows(n, k)], dtype=np.int64)
    B.setflags(write=False)
    return B


def _check_rank(rank: int, k: int, n: int) -> None:
    """Refuse a k-simplex rank outside [0, C(n, k+1))."""
    if not 0 <= rank < math.comb(n, k + 1):
        raise ValueError("rank out of range for k=%d, n=%d" % (k, n))


def unrank_colex_array(ranks, k: int, n: int) -> np.ndarray:
    """unrank_colex over an array of ranks: row i is the k-simplex of rank
    ranks[i], shape (len(ranks), k+1)."""
    r = np.array(ranks, dtype=np.int64).reshape(-1)
    if r.size:
        _check_rank(int(r.min()), k, n)
        _check_rank(int(r.max()), k, n)
    B = _binomials(n, k)
    out = np.empty((r.size, k + 1), dtype=np.int64)
    for j in range(k + 1, 0, -1):
        # largest m with C(m, j) <= r, as in the scalar unrank_colex
        m = np.searchsorted(B[j], r, side="right") - 1
        r -= B[j, m]
        out[:, j - 1] = m
    return out


def face_rank_array(ranks, k: int, n: int) -> np.ndarray:
    """Face ranks of the k-simplices of rank `ranks` over n vertices, one
    row each; column i deletes vertex i, the order of faces().  Unranking
    from the top vertex down, face i is what is left of the rank after
    vertex i, plus the running sum of C(v_j, j) over the vertices above."""
    r = np.array(ranks, dtype=np.int64).reshape(-1)
    B = _binomials(n, k)
    out = np.empty((r.size, k + 1), dtype=np.int64)
    above = 0
    for j in range(k, -1, -1):
        v = B[j + 1].searchsorted(r, side="right") - 1        # vertex j
        r -= B[j + 1].take(v)
        np.add(r, above, out=out[:, j])
        if j:
            above += B[j].take(v)
    return out


@lru_cache(maxsize=8)
def _cofacet_chunks(n: int, d: int, target: int) -> tuple:
    """The d-simplex ranks over n vertices in chunks of whole top-vertex
    blocks, each about `target` ranks (a larger block alone), as read-only
    (lo, hi, tops, gaps): the ranks lo..hi-1 of the top vertices c1..c2-1.
    tops lists (C(c, d), C(c, d+1) - lo) per block c, whose ranks line up
    with the faces [0, C(c, d)) (gap d).  gaps holds, per gap i < d,
    (faces, run starts, chunk-local ranks) of the (d-1)-faces s of
    ranks C(c1, d)..C(c2, d)-1: x with s_{i-1} < x < s_i gives the cofacet
    of rank base_i(s) + C(x, i+1), whose top vertex s_{d-1} puts it in the
    chunk.  Gap 0's runs are the chunk's ranks in order (ranks None)."""
    B = _binomials(n, d)
    cuts, size = [0], 0
    for c, m in enumerate(B[d, :n].tolist()):      # block c: C(c, d) ranks
        if size and size + m > target:
            cuts.append(c)
            size = 0
        size += m
    cuts.append(n)
    chunks = []
    for c1, c2 in zip(cuts, cuts[1:]):
        lo, hi = int(B[d + 1, c1]), int(B[d + 1, c2])
        f1 = int(B[d, c1])
        tops = [(m, r - lo) for m, r in zip(B[d, c1:c2].tolist(),
                                              B[d + 1, c1:c2].tolist()) if m]
        V = unrank_colex_array(np.arange(f1, B[d, c2]), d - 1, n)
        below = B[np.arange(1, d + 1), V]           # C(s_j, j+1)
        above = B[np.arange(2, d + 2), V][:, ::-1].cumsum(axis=1)[:, ::-1]
        base = below.cumsum(axis=1) - below + above - lo   # base_i(s) - lo
        x0 = np.hstack([np.zeros((len(V), 1), dtype=np.int64),
                        V[:, :-1] + 1])
        gaps = []
        for i in range(d):
            faces_ = np.flatnonzero(V[:, i] > x0[:, i])
            runs = V[faces_, i] - x0[faces_, i]
            starts = runs.cumsum() - runs
            x = np.repeat(x0[faces_, i] - starts, runs) + np.arange(runs.sum())
            ranks = np.repeat(base[faces_, i], runs) + B[i + 1, x]
            faces_ += f1
            for a in (faces_, starts, ranks):
                a.setflags(write=False)
            gaps.append((faces_, starts, ranks if i else None))
        chunks.append((lo, hi, tuple(tops), tuple(gaps)))
    return tuple(chunks)


def cofacet_minima(fill, n: int, d: int) -> np.ndarray:
    """Minimum over the n-d cofacets of every (d-1)-simplex, in face rank
    order, of uint64 values per d-simplex rank over n vertices, which
    fill(lo, out) writes at ranks lo, lo+1, ... into out and returns: it is
    called once per chunk of about rng.BLOCK ranks, in rank order, with one
    reused buffer."""
    chunks = _cofacet_chunks(n, d, rng.BLOCK)
    buf = np.empty(max(hi - lo for lo, hi, _, _ in chunks), dtype=np.uint64)
    acc = np.full(math.comb(n, d), np.iinfo(np.uint64).max, dtype=np.uint64)
    for lo, hi, tops, gaps in chunks:
        wc = fill(lo, buf[:hi - lo])
        for m, a in tops:       # block c lines up with the faces [0, C(c, d))
            head = acc[:m]
            np.minimum(head, wc[a:a + m], out=head)
        for faces_, starts, ranks in gaps:
            runs = np.minimum.reduceat(wc if ranks is None else wc[ranks],
                                       starts)
            acc[faces_] = np.minimum(acc[faces_], runs, out=runs)
    return acc


@dataclass(frozen=True)
class WeightedComplex:
    """A d-complex over n vertices: present d-simplex ranks plus weights.

    `present` is sorted and duplicate-free; `weights` is aligned with it.
    Instances are immutable; add/remove return new complexes.
    """

    n: int
    d: int
    present: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        present = np.asarray(self.present, dtype=np.int64)
        weights = np.asarray(self.weights, dtype=np.float64)
        object.__setattr__(self, "present", present)
        object.__setattr__(self, "weights", weights)
        if self.d < 1 or self.d >= self.n:
            raise ValueError("need 1 <= d < n")
        if present.shape != weights.shape:
            raise ValueError("present/weights shape mismatch")
        if present.size:
            if (present[1:] <= present[:-1]).any():
                raise ValueError("present ranks must be sorted and unique")
            if present[0] < 0 or present[-1] >= math.comb(self.n, self.d + 1):
                raise ValueError("present rank out of range")
            _check_weights(weights)
        present.setflags(write=False)
        weights.setflags(write=False)

    @property
    def num_present(self) -> int:
        return int(self.present.size)

    @cached_property
    def face_rows(self) -> np.ndarray:
        """Face ranks of the present simplices: row i belongs to present[i],
        column j deletes vertex j.  Built once per complex."""
        rows = face_rank_array(self.present, self.d, self.n)
        rows.setflags(write=False)
        return rows

    @cached_property
    def face_index(self) -> "FaceIndex":
        """The face index of face_rows.  Built once per complex."""
        return FaceIndex(self.face_rows)

    def has(self, rank: int) -> bool:
        i = np.searchsorted(self.present, rank)
        return i < self.present.size and self.present[i] == rank

    def weight_of(self, rank: int) -> float:
        i = np.searchsorted(self.present, rank)
        if i >= self.present.size or self.present[i] != rank:
            raise KeyError("simplex rank %d not present" % rank)
        return float(self.weights[i])

    def with_simplex(self, rank: int, weight: float) -> "WeightedComplex":
        """The complex X + tau (replaces the weight if tau is present)."""
        i = int(np.searchsorted(self.present, rank))
        if i < self.present.size and self.present[i] == rank:
            w = self.weights.copy()
            w[i] = weight
            return _indexed(self.n, self.d, self.present, w, self.face_rows)
        _check_rank(rank, self.d, self.n)
        return _indexed(self.n, self.d, np.insert(self.present, i, rank),
                        np.insert(self.weights, i, weight),
                        np.insert(self.face_rows, i, face_rank_array(
                            [rank], self.d, self.n), axis=0))

    def without_simplex(self, rank: int) -> "WeightedComplex":
        """The complex X - tau (no-op if tau is absent)."""
        i = int(np.searchsorted(self.present, rank))
        if i >= self.present.size or self.present[i] != rank:
            return self
        return _indexed(self.n, self.d, np.delete(self.present, i),
                        np.delete(self.weights, i),
                        np.delete(self.face_rows, i, axis=0))


def _indexed(n: int, d: int, present, weights,
             rows: np.ndarray) -> WeightedComplex:
    """A complex whose face rows are `rows`, derived from another
    complex's instead of being computed from scratch."""
    X = WeightedComplex(n, d, present, weights)
    rows.setflags(write=False)
    X.__dict__["face_rows"] = rows
    return X


def _sub(X: WeightedComplex, pos: np.ndarray) -> WeightedComplex:
    """The present simplices of X at ascending positions `pos`, with their
    weights and face rows taken from X."""
    return _indexed(X.n, X.d, X.present[pos], X.weights[pos],
                    X.face_rows[pos])


class FaceIndex:
    """Face incidence of a complex, from one stable (radix up to 2^16 faces)
    argsort of its face rows in their smallest unsigned dtype: the covered
    (d-1)-simplices get ids 0, 1, ... in ascending rank, and the simplices
    on face j sit at ascending positions simp[ptr[j]:ptr[j+1]] of present."""

    def __init__(self, face_rows: np.ndarray):
        flat = face_rows.ravel()
        order = flat.astype(np.min_scalar_type(flat.max(initial=0))).argsort(
            kind="stable")
        ranks = flat.take(order)
        new = np.empty(flat.size + 1, dtype=bool)   # run starts, plus the end
        new[0] = new[-1] = True
        np.not_equal(ranks[1:], ranks[:-1], out=new[1:-1])
        self.ptr = new.nonzero()[0]
        self.faces = ranks.take(self.ptr[:-1])      # covered face ranks
        self.rows = np.empty(face_rows.shape, dtype=order.dtype)
        self.rows.ravel()[order] = new[:-1].cumsum() - 1  # face_rows as ids
        self.simp = order // face_rows.shape[1]

    def find(self, rank: int) -> int:
        """The id of a face rank, or -1 if no present simplex covers it."""
        faces_ = self.lists[0]
        j = bisect_left(faces_, rank)
        return j if faces_[j:j + 1] == [rank] else -1

    @cached_property
    def lists(self) -> Tuple[list, list, list, list]:
        """faces, ptr, simp and rows flattened, as lists for walks: the
        face ids of simplex s are rows[(d+1)*s:(d+1)*(s+1)]."""
        return (self.faces.tolist(), self.ptr.tolist(), self.simp.tolist(),
                self.rows.ravel().tolist())


def degree(X: WeightedComplex, sigma: Sequence[int]) -> int:
    """Number of present cofacets of the (d-1)-simplex sigma."""
    if len(tuple(sigma)) != X.d:
        raise ValueError("sigma must be a (d-1)-simplex")
    ptr, j = X.face_index.lists[1], X.face_index.find(rank_colex(tuple(sigma)))
    return 0 if j < 0 else ptr[j + 1] - ptr[j]


# ---------------------------------------------------------------------------
# complex file format

def write_complex(path, X: WeightedComplex) -> None:
    """Line-oriented text format: header `n=<n> d=<d>`, then one line per
    present d-simplex `v0,...,vd,weight` with vertices ascending and the
    weight as its repr, in rank order."""
    line = ",".join(["%d"] * (X.d + 1)) + ",%r\n"
    cols = unrank_colex_array(X.present, X.d, X.n).T.tolist()
    body = "".join(map(line.__mod__, zip(*cols, X.weights.tolist())))
    with open(path, "w") as fh:
        fh.write("n=%d d=%d\n%s" % (X.n, X.d, body))


def read_complex(path) -> WeightedComplex:
    """Read the format of write_complex: a header whose first two words
    give n and d after an `=`, then lines that are blank or hold d+2
    comma-separated fields, read by int() and float(), in any order (the
    full grammar is in the README).  Anything else raises ValueError."""
    with open(path) as fh:
        header, _, body = fh.read().partition("\n")
    header = header.split()
    try:
        n = int(header[0].split("=")[1])
        d = int(header[1].split("=")[1])
    except (IndexError, ValueError):
        raise ValueError("malformed header: %r" % (header,))
    if not 1 <= d < n:
        raise ValueError("need 1 <= d < n")
    lines = [ln for ln in map(str.strip, body.split("\n")) if ln]
    if not lines:
        return WeightedComplex(n, d, [], [])
    if set(map(str.count, lines, repeat(","))) != {d + 1}:
        line = next(ln for ln in lines if ln.count(",") != d + 1)
        raise ValueError("expected %d vertices: %r" % (d + 1, line))
    fields = ",".join(lines).split(",")
    cols = [list(map(int, fields[j::d + 2])) for j in range(d + 1)]
    V = np.array(cols, dtype=np.int64).T \
        if min(map(min, cols)) >= 0 and max(map(max, cols)) < n else None
    if V is None or np.any(V[:, 1:] <= V[:, :-1]):
        for verts in zip(*cols):     # raises at the first offending line
            check_simplex(verts, n)
    # rank = sum_i C(v_i, i+1); a saturated or wrapped sum is past int64
    terms = _binomials(int(V.max()), d)[np.arange(1, d + 2), V]
    ranks = terms.cumsum(axis=1)
    if np.any(terms == _INT64_MAX) or np.any(ranks < 0):
        raise ValueError("simplex rank out of the int64 range")
    weights = np.array(list(map(float, fields[d + 1::d + 2])))
    order = np.argsort(ranks[:, -1], kind="stable")
    ranks = ranks[order, -1]
    if np.any(np.diff(ranks) == 0):
        raise ValueError("duplicate simplex in complex file")
    return WeightedComplex(n, d, ranks, weights[order])


# ---------------------------------------------------------------------------
# vectorized enumeration tables

@dataclass(frozen=True)
class SimplexTable:
    """Colex-ordered enumeration of all d-simplices over n vertices, with
    per-simplex face ranks and per-face cofacet ranks.  Cached per (n, d).
    No run path builds it (`nn` takes cofacet_minima of raw bits); it
    stays for the tests' references and the benchmark tracer, which hooks
    its name."""

    n: int
    d: int
    verts: np.ndarray        # (N_d, d+1) vertex ids, row i = simplex rank i
    face_ranks: np.ndarray   # (N_d, d+1); column i deletes vertex i
    cofacet_ranks: np.ndarray  # (N_{d-1}, n-d) cofacet ranks per face rank

    @property
    def num_d(self) -> int:
        return self.verts.shape[0]

    @property
    def num_faces(self) -> int:
        return self.cofacet_ranks.shape[0]


# Largest C(n, d+1) that a presence sweep or a simplex table may cover
MAX_D_SIMPLICES = 1 << 28


def d_simplex_count(n: int, d: int) -> int:
    """C(n, d+1), refused with ValueError past MAX_D_SIMPLICES."""
    nd = math.comb(n, d + 1)
    if nd > MAX_D_SIMPLICES:
        raise ValueError("C(%d, %d) = %d d-simplices exceeds the limit of %d"
                         % (n, d + 1, nd, MAX_D_SIMPLICES))
    return nd


@lru_cache(maxsize=32)
def simplex_table(n: int, d: int) -> SimplexTable:
    ranks = np.arange(d_simplex_count(n, d))
    verts = unrank_colex_array(ranks, d, n)
    face_ranks = face_rank_array(ranks, d, n)
    cof = FaceIndex(face_ranks).simp.reshape(math.comb(n, d), n - d)
    return SimplexTable(n, d, verts, face_ranks, cof)
