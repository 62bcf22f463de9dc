"""Coboundary rows and their rank.

The coboundary matrix of a subcomplex has one row per d-simplex and one
column per (d-1)-simplex, with entry (-1)^i when the column simplex equals
the row simplex with its i-th (ascending) vertex deleted; `coboundary_rows`
builds it.  Real-coefficient rank of an integer matrix equals its rank over
the rationals; `rank_pm1` eliminates over the prime field GF(2^31 - 1),
whose rank agrees with it unless the prime divides a torsion order.  The
test suite checks the two against fraction-free (Bareiss) elimination on
random instances.
"""
from __future__ import annotations

from typing import Hashable, List, Sequence

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


def rank_pm1(matrix: Sequence[Sequence[int]]) -> int:
    """Rank of a {-1, 0, 1} matrix, by Gaussian elimination over
    GF(RANK_PRIME)."""
    p = RANK_PRIME
    rows = [[x % p for x in row] for row in matrix]
    rank = 0
    ncols = len(rows[0]) if rows else 0
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
