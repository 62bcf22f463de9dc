"""The per-sample build: the sweep, the complex's checks, its face rows and
its face index, pinned by hash over a grid of models and forced bits, and
each kernel against its scalar or dict-based reference.

The pinned hashes live in sample_build_hashes.json next to this file;
`PYTHONPATH=src python tests/test_sample_build.py` rewrites it, which only
a change that means to alter the sampled complexes may do.
"""
import hashlib
import json
import math
import pathlib

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rwcomplex import rng
from rwcomplex.sampling import (ForcedBits, ModelParams, PairedSample,
                                WeightDistribution)
from rwcomplex.simplices import (FaceIndex, WeightedComplex, _check_weights,
                                 face_rank_array, faces, rank_colex,
                                 unrank_colex)

from test_properties import complexes

SETTINGS = settings(derandomize=True, deadline=None, max_examples=60)
HASHES = pathlib.Path(__file__).with_name("sample_build_hashes.json")

# d -> two vertex counts: a small one, and one near the size the
# estimators sample (all C(n, d+1) stay below 5,000)
SIZES = {1: (9, 60), 2: (8, 30), 3: (7, 16), 4: (6, 12)}
LAWS = {"exponential": WeightDistribution("exponential", 2.5),
        "uniform": WeightDistribution("uniform", 3.0),
        "constant": WeightDistribution("constant", 1.0)}
GRID = [(d, n, p, law) for d, ns in SIZES.items() for n in ns
        for p in ("1/n", "0.5", "1") for law in LAWS]
FIELDS = ("present", "weights", "face_rows", "faces", "ptr", "rows", "simp",
          "lists")


def forced_variants(s):
    """Forced bits at a present rank, an absent rank and out-of-range
    ranks, each to 0 and to 1, from the unforced complex of s."""
    X = s.complex()
    nd = s.params.num_d_simplices
    present = X.present.tolist()
    absent = sorted(set(range(nd)) - set(present))
    out = [{}, {-1: 1, nd: 1, nd + 7: 0}]
    if present:
        out += [{present[len(present) // 2]: 0}, {present[0]: 1}]
    if absent:
        out += [{absent[len(absent) // 2]: 1}, {absent[-1]: 0}]
    if present and absent:
        out.append({present[-1]: 0, absent[0]: 1, nd: 0})
    return out


def structure_hashes(d, n, p, law):
    """sha256 per field over the unforced and forced complexes of one
    model, at three seeds."""
    params = ModelParams(n, d, {"1/n": 1.0 / n, "0.5": 0.5, "1": 1.0}[p],
                         LAWS[law])
    h = {f: hashlib.sha256() for f in FIELDS}
    for seed in (1, 2 ** 64 - 1, 1000 * d + n):
        base = PairedSample(params, seed)
        for bits in forced_variants(base):
            X = PairedSample(params, seed, ForcedBits(bits)).complex()
            index = X.face_index
            arrays = (X.present, X.weights, X.face_rows, index.faces,
                      index.ptr, index.rows, index.simp)
            for f, a in zip(FIELDS, arrays):
                h[f].update(("%s%r" % (a.dtype.str, a.shape)).encode())
                h[f].update(a.tobytes())
            h["lists"].update(repr(index.lists).encode())
    return {f: h[f].hexdigest() for f in FIELDS}


def grid_id(case):
    return "d%d-n%d-p%s-%s" % case


@pytest.mark.parametrize("case", GRID, ids=grid_id)
def test_sampled_structures_match_their_pinned_hashes(case):
    assert structure_hashes(*case) == json.loads(HASHES.read_text())[
        grid_id(case)]


@SETTINGS
@given(st.integers(1, 30), st.data())
def test_face_rank_array_matches_the_scalar_faces(n, data):
    k = data.draw(st.integers(0, min(n - 1, 5)))
    last = math.comb(n, k + 1) - 1
    drawn = data.draw(st.lists(st.integers(0, last), max_size=20))
    for ranks in ([], [last], drawn + [last, 0]):
        got = face_rank_array(ranks, k, n)
        assert got.dtype == np.int64 and got.shape == (len(ranks), k + 1)
        assert got.tolist() == [[rank_colex(f) for f in
                                 faces(unrank_colex(r, k, n))]
                                for r in ranks]


def dict_face_index(face_rows):
    """faces, ptr, simp and rows of a face index from a dict of lists:
    face rank -> ascending positions of the simplices on it."""
    on = {}
    for s, row in enumerate(face_rows.tolist()):
        for f in row:
            on.setdefault(f, []).append(s)
    faces_ = sorted(on)
    ids = {f: j for j, f in enumerate(faces_)}
    ptr = [0]
    for f in faces_:
        ptr.append(ptr[-1] + len(on[f]))
    return (faces_, ptr, [s for f in faces_ for s in on[f]],
            [[ids[f] for f in row] for row in face_rows.tolist()])


@SETTINGS
@given(complexes(max_n=12, max_d=4, max_present=30))
@example(WeightedComplex(6, 2, [], []))
def test_face_index_matches_the_dict_reference(X):
    index = FaceIndex(X.face_rows)
    faces_, ptr, simp, rows = dict_face_index(X.face_rows)
    assert (index.faces.tolist(), index.ptr.tolist(), index.simp.tolist(),
            index.rows.tolist()) == (faces_, ptr, simp, rows)
    assert index.rows.shape == X.face_rows.shape
    assert index.lists == (faces_, ptr, simp, sum(rows, []))
    for f in range(math.comb(X.n, X.d)):
        assert index.find(f) == (faces_.index(f) if f in faces_ else -1)


B = rng.BLOCK


@settings(SETTINGS, max_examples=24)
@given(st.integers(0, 2 ** 64 - 1),
       st.sampled_from([0, 1, B - 1, B, B + 1, 3 * B + 5]),
       st.sampled_from([2.0 ** -53, 1 / 40, 0.5, 1 - 2.0 ** -53, "hit"]),
       st.data())
def test_ranks_below_matches_the_scalar_uniforms(key, count, p, data):
    u = [rng.uniform_at(key, r) for r in range(count)]
    if p == "hit":
        # p is a drawn uniform u_r: u_r < p fails by equality, as the
        # output z_r >= limit = (z_r >> 11) << 11 does
        p = u[data.draw(st.integers(0, count - 1))] if count else 0.25
    got = rng.ranks_below(key, count, p)
    assert got.dtype == np.int64 and got.ndim == 1
    assert got.tolist() == [r for r in range(count) if u[r] < p]


WEIGHT_CASES = [
    ([0, 3], [1.0, math.nan], "weights must be finite"),
    ([0, 3], [math.inf, 1.0], "weights must be finite"),
    ([0, 3], [1.0, -math.inf], "weights must be finite"),
    ([0, 3, 4], [-1.0, math.nan, 2.0], "weights must be finite"),
    ([0, 3, 4], [math.nan, 1.0, -1.0], "weights must be finite"),
    ([0, 3], [1.0, -1e-300], "negative weight"),
    ([0, 3], [-0.0, 0.0], None),
    ([], [], None),
    ([3, 1], [1.0, 1.0], "present ranks must be sorted and unique"),
    ([1, 1], [1.0, 1.0], "present ranks must be sorted and unique"),
    ([-1, 2], [1.0, 1.0], "present rank out of range"),
    ([2, 10], [1.0, 1.0], "present rank out of range"),
    ([1, 2], [1.0], "present/weights shape mismatch"),
    ([[1, 2]], [1.0, 2.0], "present/weights shape mismatch"),
    ([2, 1], [1.0, math.nan], "present ranks must be sorted and unique"),
]


@pytest.mark.parametrize("present, weights, message", WEIGHT_CASES)
def test_weighted_complex_refusal_texts(present, weights, message):
    args = (5, 1, np.array(present, dtype=np.int64), np.array(weights))
    if message is None:
        assert WeightedComplex(*args).num_present == len(present)
    else:
        with pytest.raises(ValueError, match="^%s$" % message):
            WeightedComplex(*args)


@pytest.mark.parametrize("w, message", [
    (np.float64(1.5), None), (np.float64(-0.0), None),
    (np.float64(math.nan), "weights must be finite"),
    (np.float64(-math.inf), "weights must be finite"),
    (np.float64(-2.0), "negative weight"),
    (np.empty(0), None), (np.array([0.0, 1.7e308, 1.7e308]), None),
    (np.array([-1.0, math.inf]), "weights must be finite")])
def test_check_weights_refusal_texts(w, message):
    if message is None:
        assert _check_weights(w) is None
    else:
        with pytest.raises(ValueError, match="^%s$" % message):
            _check_weights(w)


if __name__ == "__main__":
    HASHES.write_text(json.dumps({grid_id(c): structure_hashes(*c)
                                  for c in GRID}, indent=1) + "\n")
