"""Cocycle-space dimension via coboundary-matrix rank.

The coboundary matrix of a subcomplex has one row per d-simplex and one
column per (d-1)-simplex, with entry (-1)^i when the column simplex equals
the row simplex with its i-th (ascending) vertex deleted.  Real-coefficient
rank of an integer matrix equals its rank over the rationals, so we compute
exactly: the fast path eliminates over the prime field GF(2^31 - 1) and the
audit path runs fraction-free integer elimination (Bareiss).  For +-1
matrices of the sizes arising here the two agree; the test suite checks
this on random instances.
"""
from __future__ import annotations

import math
from typing import Hashable, List, Sequence

import numpy as np

from .simplices import SubComplexView

RANK_PRIME = (1 << 31) - 1


def coboundary_rows(face_rows: Sequence[Sequence[Hashable]],
                    cols: Sequence[Hashable]) -> List[List[int]]:
    """Sign rows of a coboundary matrix: row i has (-1)^j in the column of
    face j (in the order of faces()) of the i-th d-simplex; `cols` lists
    the column keys in column order."""
    col_of = {c: j for j, c in enumerate(cols)}
    rows = []
    for franks in face_rows:
        row = [0] * len(col_of)
        for i, f in enumerate(franks):
            row[col_of[f]] = -1 if i % 2 else 1
        rows.append(row)
    return rows


def coboundary_matrix(sub: SubComplexView) -> List[List[int]]:
    """Dense sign matrix, rows over included d-simplices in ascending rank
    order, columns over the subcomplex's (d-1)-simplices in ascending rank
    order."""
    if sub.lower_faces is not None:
        cols = sorted(sub.lower_faces)
    else:
        cols = range(math.comb(sub.n, sub.d))
    order = np.argsort(sub.included, kind="stable")
    return coboundary_rows(sub.face_rows[order].tolist(), cols)


def rank_mod_p(matrix: Sequence[Sequence[int]], p: int = RANK_PRIME) -> int:
    """Gaussian elimination rank over GF(p)."""
    rows = [[x % p for x in row] for row in matrix]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    col = 0
    for col in range(ncols):
        pivot = None
        for i in range(rank, len(rows)):
            if rows[i][col]:
                pivot = i
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], p - 2, p)
        prow = rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col]
            if f:
                mult = (f * inv) % p
                ri = rows[i]
                for j in range(col, ncols):
                    ri[j] = (ri[j] - mult * prow[j]) % p
        rank += 1
        if rank == len(rows):
            break
    return rank


def rank_fraction_free(matrix: Sequence[Sequence[int]]) -> int:
    """Exact integer rank by fraction-free (Bareiss) elimination."""
    rows = [list(map(int, row)) for row in matrix]
    if not rows:
        return 0
    nrows, ncols = len(rows), len(rows[0])
    rank = 0
    prev = 1
    for col in range(ncols):
        pivot = None
        for i in range(rank, nrows):
            if rows[i][col]:
                pivot = i
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        prow = rows[rank]
        for i in range(rank + 1, nrows):
            ri = rows[i]
            f = ri[col]
            for j in range(col, ncols):
                ri[j] = (prow[col] * ri[j] - f * prow[j]) // prev
        prev = prow[col]
        rank += 1
        if rank == nrows:
            break
    return rank


def rank_pm1(matrix: Sequence[Sequence[int]], exact: bool = False) -> int:
    """Rank over the rationals of a {-1, 0, 1} matrix."""
    if not matrix:
        return 0
    if exact:
        return rank_fraction_free(matrix)
    return rank_mod_p(matrix)


def cocycle_dim(sub: SubComplexView, exact: bool = False) -> int:
    """dim Z^{d-1} of the subcomplex: f_{d-1} minus the coboundary rank."""
    nf = sub.face_count()
    if not sub.included:
        return nf
    return nf - rank_pm1(coboundary_matrix(sub), exact=exact)

