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
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import repeat
from typing import Sequence, Tuple

import numpy as np

Simplex = Tuple[int, ...]


def check_simplex(vertices: Sequence[int], n: int) -> None:
    v = tuple(vertices)
    if len(v) == 0:
        raise ValueError("empty vertex tuple")
    if any(b <= a for a, b in zip(v, v[1:])):
        raise ValueError("vertices must be strictly increasing: %r" % (v,))
    if v[0] < 0 or v[-1] >= n:
        raise ValueError("vertices out of range [0, %d): %r" % (n, v))


def rank_colex(vertices: Sequence[int]) -> int:
    """Colexicographic rank of a strictly increasing vertex tuple."""
    return sum(math.comb(v, i + 1) for i, v in enumerate(vertices))


def unrank_colex(r: int, k: int, n: int) -> Simplex:
    """Inverse of rank_colex for k-simplices over n vertices."""
    if not 0 <= r < math.comb(n, k + 1):
        raise ValueError("rank %d out of range for k=%d, n=%d" % (r, k, n))
    out = [0] * (k + 1)
    m = n
    for j in range(k + 1, 0, -1):
        # Largest m with C(m, j) <= r picks the j-th smallest remaining slot.
        m -= 1
        while math.comb(m, j) > r:
            m -= 1
        r -= math.comb(m, j)
        out[j - 1] = m
    return tuple(out)


def faces(tau: Sequence[int]) -> list:
    """Codimension-1 faces in deletion-index order (delete vertex 0 first)."""
    t = tuple(tau)
    return [t[:i] + t[i + 1:] for i in range(len(t))]


def cofacets(sigma: Sequence[int], n: int) -> list:
    """All d-simplices sigma + {v} in the complete complex, v not in sigma."""
    s = tuple(sigma)
    out = []
    for v in range(n):
        if v not in s:
            out.append(tuple(sorted(s + (v,))))
    return out


def cofacet_ranks(sigma: Sequence[int], n: int) -> np.ndarray:
    """Ranks of all cofacets of sigma, ascending."""
    return np.sort(np.array([rank_colex(t) for t in cofacets(sigma, n)],
                            dtype=np.int64))


# ---------------------------------------------------------------------------
# vectorized colex arithmetic

_INT64_MAX = int(np.iinfo(np.int64).max)


@lru_cache(maxsize=32)
def _binomials(n: int, k: int) -> np.ndarray:
    """Read-only table B[j, v] = C(v, j) for j <= k+1 and v <= n.

    Entries past the int64 range are saturated: they exceed every rank
    that fits in int64, so they never match and never enter a sum.
    """
    B = np.array([[min(math.comb(v, j), _INT64_MAX) for v in range(n + 1)]
                  for j in range(k + 2)], dtype=np.int64)
    B.setflags(write=False)
    return B


def unrank_colex_array(ranks, k: int, n: int) -> np.ndarray:
    """unrank_colex over an array of ranks: row i is the k-simplex of rank
    ranks[i], shape (len(ranks), k+1)."""
    r = np.array(ranks, dtype=np.int64).reshape(-1)
    if r.size and (int(r.min()) < 0
                   or int(r.max()) >= math.comb(n, k + 1)):
        raise ValueError("rank out of range for k=%d, n=%d" % (k, n))
    B = _binomials(n, k)
    out = np.empty((r.size, k + 1), dtype=np.int64)
    for j in range(k + 1, 0, -1):
        # largest m with C(m, j) <= r, as in the scalar unrank_colex
        m = np.searchsorted(B[j], r, side="right") - 1
        r -= B[j, m]
        out[:, j - 1] = m
    return out


def face_rank_array(verts: np.ndarray, n: int) -> np.ndarray:
    """Ranks of the codimension-1 faces of each row of `verts` (simplices
    over n vertices); column i deletes vertex i, the order of faces()."""
    verts = np.asarray(verts, dtype=np.int64)
    m, k1 = verts.shape
    B = _binomials(n, k1 - 1)
    cols = np.arange(k1)
    # face with vertex i deleted: positions j < i keep index j, j > i drop one
    ca = np.cumsum(B[cols + 1, verts], axis=1)   # C(v_j, j+1)
    cb = np.cumsum(B[cols, verts], axis=1)       # C(v_j, j)
    prefix = np.hstack([np.zeros((m, 1), dtype=np.int64), ca[:, :-1]])
    return prefix + (cb[:, -1:] - cb)


@lru_cache(maxsize=8)
def _cofacet_plan(n: int, d: int) -> tuple:
    """Read-only (faces, run starts, ranks) per gap i < d of the (d-1)-faces
    s: x with s_{i-1} < x < s_i gives the cofacet of rank base_i(s) +
    C(x, i+1).  Gap 0's runs are the ranks 0, 1, ... in order (ranks None)."""
    B = _binomials(n, d)
    V = unrank_colex_array(np.arange(math.comb(n, d)), d - 1, n)
    below = B[np.arange(1, d + 1), V]               # C(s_j, j+1)
    above = B[np.arange(2, d + 2), V][:, ::-1].cumsum(axis=1)[:, ::-1]
    base = below.cumsum(axis=1) - below + above     # base_i(s), column i
    x0 = np.hstack([np.zeros((len(V), 1), dtype=np.int64), V[:, :-1] + 1])
    plan = []
    for i in range(d):
        faces_ = np.flatnonzero(V[:, i] > x0[:, i])
        size = V[faces_, i] - x0[faces_, i]
        starts = size.cumsum() - size
        x = np.repeat(x0[faces_, i] - starts, size) + np.arange(size.sum())
        ranks = np.repeat(base[faces_, i], size) + B[i + 1, x]
        for a in (faces_, starts, ranks):
            a.setflags(write=False)
        plan.append((faces_, starts, ranks if i else None))
    return tuple(plan)


def cofacet_minima(w: np.ndarray, n: int, d: int) -> np.ndarray:
    """Minimum of w over the n-d cofacets of every (d-1)-simplex, in face
    rank order and w's dtype; w holds one float64 or uint64 value per
    d-simplex rank over n vertices."""
    B = _binomials(n, d)
    acc = np.full(math.comb(n, d), np.inf if w.dtype.kind == "f"
                  else np.iinfo(w.dtype).max, dtype=w.dtype)
    # gap d, top vertex c: block c of w lines up with the faces [0, C(c, d))
    for m, lo in zip(B[d, d:n].tolist(), B[d + 1, d:n].tolist()):
        np.minimum(acc[:m], w[lo:lo + m], out=acc[:m])
    for faces_, starts, ranks in _cofacet_plan(n, d):
        runs = np.minimum.reduceat(w if ranks is None else w[ranks], starts)
        acc[faces_] = np.minimum(acc[faces_], runs)
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
            if np.any(np.diff(present) <= 0):
                raise ValueError("present ranks must be sorted and unique")
            if present[0] < 0 or present[-1] >= math.comb(self.n, self.d + 1):
                raise ValueError("present rank out of range")
            if not np.isfinite(weights).all():
                raise ValueError("weights must be finite")
            if np.any(weights < 0):
                raise ValueError("negative weight")
        present.setflags(write=False)
        weights.setflags(write=False)

    @property
    def num_present(self) -> int:
        return int(self.present.size)

    @cached_property
    def face_rows(self) -> np.ndarray:
        """Face ranks of the present simplices: row i belongs to present[i],
        column j deletes vertex j.  Built once per complex."""
        rows = face_rank_array(
            unrank_colex_array(self.present, self.d, self.n), self.n)
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
        tau = unrank_colex_array([rank], self.d, self.n)
        return _indexed(self.n, self.d, np.insert(self.present, i, rank),
                        np.insert(self.weights, i, weight),
                        np.insert(self.face_rows, i,
                                  face_rank_array(tau, self.n), axis=0))

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
    """Face incidence of a complex, from one stable argsort of its face rows:
    the covered (d-1)-simplices get ids 0, 1, ... in ascending rank, and the
    simplices on face j sit at positions simp[ptr[j]:ptr[j+1]] of `present`."""

    def __init__(self, face_rows: np.ndarray):
        flat = face_rows.ravel()
        order = flat.argsort(kind="stable")
        ranks = flat[order]
        new = np.ones(flat.size + 1, dtype=bool)    # run starts, plus the end
        np.not_equal(ranks[1:], ranks[:-1], out=new[1:-1])
        self.ptr = new.nonzero()[0]
        self.faces = ranks[self.ptr[:-1]]           # covered face ranks
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
        """faces, ptr, simp and rows[simp] flattened, as lists for walks."""
        return (self.faces.tolist(), self.ptr.tolist(), self.simp.tolist(),
                self.rows[self.simp].ravel().tolist())


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
    verts = unrank_colex_array(np.arange(d_simplex_count(n, d)), d, n)
    face_ranks = face_rank_array(verts, n)
    order = np.argsort(face_ranks.ravel(), kind="stable")
    nf = math.comb(n, d)
    assert order.size == nf * (n - d)
    cof = (order // (d + 1)).astype(np.int64).reshape(nf, n - d)
    return SimplexTable(n, d, verts, face_ranks, cof)
