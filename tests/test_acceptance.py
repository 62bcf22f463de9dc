"""Acceptance suite: one criterion per test, one pass/fail line each.

Run with `python3 -m pytest tests/test_acceptance.py -v -s` to see the
per-criterion lines.  Expected values come from closed forms, exhaustive
enumeration, or high-precision oracles computed inside this file; Monte
Carlo checks use 3-standard-error windows unless a tolerance is stated.
"""
import itertools
import json
import math
import random
from dataclasses import replace
from fractions import Fraction

import mpmath
import numpy as np

from rwcomplex import bounds, rng
from rwcomplex.cli import main as cli_main
from rwcomplex.harness import (ExperimentConfig, run_clt, run_cov_nn,
                               run_nn_face_moments, run_variance_check)
from rwcomplex.perturbation import (add_one_cost, canonical_tau_pair,
                                    estimate_addone_mean,
                                    estimate_delta_tilde, estimate_gamma)
from rwcomplex.sampling import (ForcedBits, ModelParams, PairedSample,
                                WeightDistribution, exp_mean_n,
                                sample_complex)
from rwcomplex.simplices import WeightedComplex, rank_colex, unrank_colex
from rwcomplex.statistics import (cocycle_count_bounded, isolated_count,
                                  make_statistic, nn_all_faces)
from rwcomplex.topology import (canonical_disjoint_pair, components,
                                component_view, gamma_exact)

from test_cohomology import exact_cocycle_dim, local_cocycle_dim
from test_perturbation import ref_add_one_cost

mpmath.mp.dps = 40


def _check(label, ok, detail):
    print("%s: %s  (%s)" % (label, "PASS" if ok else "FAIL", detail))
    assert ok, (label, detail)


def _const_params(n, d, lam):
    return ModelParams(n, d, lam / n, WeightDistribution("constant", 1.0))


# ---------------------------------------------------------------------------

def test_ac01_per_face_moments():
    out = run_nn_face_moments(50, 2, 100000, seed=101)
    mean_err = abs(out["mean"] / out["mean_exact"] - 1.0)
    var_err = abs(out["variance"] / out["variance_exact"] - 1.0)
    _check("AC01 per-face nearest-weight moments",
           mean_err <= 0.01 and var_err <= 0.03,
           "mean rel err %.4f (tol 0.01), var rel err %.4f (tol 0.03)"
           % (mean_err, var_err))


def test_ac02_total_variance_asymptote():
    s1 = run_variance_check(ExperimentConfig(
        params=exp_mean_n(300, 1), statistic="nn", replicas=20000, seed=202))
    s2 = run_variance_check(ExperimentConfig(
        params=exp_mean_n(80, 2), statistic="nn", replicas=10000, seed=203))
    r1, r2 = s1.extra["variance_ratio"], s2.extra["variance_ratio"]
    _check("AC02 total nearest-weight variance vs (1+d/2) C(n,d)",
           abs(r1 - 1.0) <= 0.07 and abs(r2 - 1.0) <= 0.10,
           "d=1 n=300 ratio %.4f (tol 0.07); d=2 n=80 ratio %.4f (tol 0.10)"
           % (r1, r2))


def test_ac03_adjacent_pair_covariance():
    out = run_cov_nn(200, 1, replicas=100000, inner=256, seed=303)
    scaled = out["scaled_2n"]
    ok_mc = 0.85 <= scaled <= 1.15
    ok_exact = True
    gaps = []
    for n in (100, 1000, 10000):
        gap = abs(bounds.nn_cov_exact(n, 1) - Fraction(1, 2 * n))
        gaps.append(float(gap) * n ** 2)
        ok_exact &= gap <= Fraction(5, n * n)
    _check("AC03 adjacent-pair nearest-weight covariance ~ 1/(2n)",
           ok_mc and ok_exact,
           "2n*cov = %.4f in [0.85, 1.15]; n^2|exact - 1/(2n)| = %s <= 5"
           % (scaled, ["%.3f" % g for g in gaps]))


def test_ac04_clt_kolmogorov():
    s1 = run_clt(ExperimentConfig(params=exp_mean_n(200, 1), statistic="nn",
                                  replicas=10000, seed=404))
    s2 = run_clt(ExperimentConfig(params=_const_params(120, 2, 2.0),
                                  statistic="isolated", replicas=10000,
                                  seed=405))
    _check("AC04 CLT Kolmogorov distances",
           s1.d_kolmogorov <= 0.05 and s2.d_kolmogorov <= 0.06,
           "nn d=1 n=200: d_K=%.4f (tol 0.05); isolated d=2 n=120 lam=2: "
           "d_K=%.4f (tol 0.06)" % (s1.d_kolmogorov, s2.d_kolmogorov))


def test_ac05_two_scale_gap_exactly_zero():
    params = ModelParams(10, 2, 0.3, WeightDistribution("exponential", 2.0))
    f = make_statistic("nn-alpha:1.5", params)
    e1 = estimate_delta_tilde(f, params, k=1, replicas=500, seed=505)
    g = make_statistic("local:cocycle-ratio:1", params)
    e2 = estimate_delta_tilde(g, params, k=2, replicas=500, seed=506)
    # The gap compares add_one_cost with local_add_one_cost, and both sum
    # the statistic's near terms.  On the same instances, add_one_cost must
    # also equal f(X + tau) - f(X - tau) on the two full complexes, so a
    # wrong near cannot pass.
    tau, tau_prime = (rank_colex(t) for t in canonical_tau_pair(10, 2))
    off = 0
    for stat, seed in ((f, 505), (g, 506)):
        for i in (0, 1):
            for r in range(500):
                s = PairedSample(params, rng.child_seed(seed, 2 * r + i),
                                 ForcedBits(b={tau_prime: i}))
                X = s.complex()
                w = float(s.weight_values(np.array([tau]))[0])
                off += add_one_cost(stat, X, tau, w) != \
                    ref_add_one_cost(stat, X, tau, w)
    _check("AC05 two-scale stabilization gap vanishes exactly",
           e1.point_estimate == 0.0 and e1.std_error == 0.0
           and e2.point_estimate == 0.0 and e2.std_error == 0.0
           and off == 0,
           "thresholded nn at k=1: (%r, %r); local M=1 at k=2M: (%r, %r); "
           "500 instances each; add_one_cost off the full two-complex "
           "difference on %d" % (e1.point_estimate, e1.std_error,
                                 e2.point_estimate, e2.std_error, off))


def _oracle_connection_histogram(n, d, kmax):
    """min-path-length histogram over every subset of d-simplices, by pure
    bitmask breadth-first search (independent of the library enumeration)."""
    N = math.comb(n, d + 1)
    sigma, sigma_prime = canonical_disjoint_pair(n, d)
    taus = [set(unrank_colex(r, d, n)) for r in range(N)]
    start = sum(1 << r for r in range(N) if set(sigma) <= taus[r])
    end = sum(1 << r for r in range(N) if set(sigma_prime) <= taus[r])
    adj = [sum(1 << j for j in range(N)
               if j != i and len(taus[i] & taus[j]) == d)
           for i in range(N)]
    lo = N // 2
    lo_mask = (1 << lo) - 1
    u_lo = [0] * (1 << lo)
    for m in range(1, 1 << lo):
        b = m & -m
        u_lo[m] = u_lo[m ^ b] | adj[b.bit_length() - 1]
    u_hi = [0] * (1 << (N - lo))
    for m in range(1, 1 << (N - lo)):
        b = m & -m
        u_hi[m] = u_hi[m ^ b] | adj[lo + b.bit_length() - 1]
    hist = {k: [0] * (N + 1) for k in range(1, kmax + 1)}
    for S in range(1 << N):
        cur = S & start
        if not cur:
            continue
        for step in range(1, kmax + 1):
            if cur & end:
                hist[step][S.bit_count()] += 1
                break
            grown = (cur | u_lo[cur & lo_mask] | u_hi[cur >> lo]) & S
            if grown == cur:
                break
            cur = grown
    return N, hist


def test_ac06_connection_probability_exact():
    worst = 0.0
    for d in (1, 2):
        for n in range(2 * d + 2, 7):
            N, hist = _oracle_connection_histogram(n, d, kmax=4)
            for k in range(1, 5):
                counts = [sum(hist[j][c] for j in range(1, k + 1))
                          for c in range(N + 1)]
                for p in (0.1, 0.5, 0.9):
                    want = sum(c * p ** i * (1 - p) ** (N - i)
                               for i, c in enumerate(counts))
                    got = gamma_exact(_const_params(n, d, n * p), k)
                    worst = max(worst, abs(got - want))
                    assert abs(got - want) <= 1e-12, (n, d, k, p)
                    gb = bounds.gamma_bound(n, d, n * p, k)
                    assert gb >= got - 1e-12, (n, d, k, p)
    params = _const_params(5, 1, 5 * 0.5)
    exact = gamma_exact(params, 2)
    est = estimate_gamma(params, 2, 4000, seed=606)
    mc_ok = abs(est.point_estimate - exact) <= 3 * est.std_error + 1e-9
    _check("AC06 <=k-path connection probability",
           worst <= 1e-12 and mc_ok,
           "exact vs exhaustive oracle, max |err| = %.2e over n<=6, d<=2, "
           "k<=4; MC within 3 se; analytic bound dominates" % worst)


def test_ac07_cocycle_dimension():
    random.seed(707)
    checked = 0
    while checked < 1000:
        n, d = random.choice([(6, 1), (7, 1), (6, 2), (7, 2)])
        N = math.comb(n, d + 1)
        ranks = sorted(random.sample(range(N), random.randrange(1, min(N, 9))))
        X = WeightedComplex(n, d, np.array(ranks, dtype=np.int64),
                            np.ones(len(ranks)))
        lab = components(X)
        for cid in range(len(lab.comp_faces)):
            C, lower = component_view(X, lab, cid)
            assert local_cocycle_dim(C, lower) == exact_cocycle_dim(C, lower)
            checked += 1
    # d = 1: full-skeleton cocycle dimension counts graph components
    graph_ok = True
    for seed in range(50):
        r = random.Random(seed)
        n = r.randrange(4, 9)
        edges = [e for e in itertools.combinations(range(n), 2)
                 if r.random() < 0.3]
        parent = list(range(n))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for a, b in edges:
            parent[find(a)] = find(b)
        ncomp = len({find(v) for v in range(n)})
        ranks = sorted(rank_colex(e) for e in edges)
        X = WeightedComplex(n, 1, np.array(ranks, dtype=np.int64),
                            np.ones(len(ranks)))
        graph_ok &= exact_cocycle_dim(X) == ncomp == \
            cocycle_count_bounded(X, n)
    # additivity over components plus singleton faces
    add_ok = True
    for seed in range(30):
        n, d = random.Random(1000 + seed).choice([(7, 1), (8, 1), (7, 2)])
        N = math.comb(n, d + 1)
        ranks = sorted(random.Random(seed).sample(range(N), min(N, 6)))
        X = WeightedComplex(n, d, np.array(ranks, dtype=np.int64),
                            np.ones(len(ranks)))
        lab = components(X)
        parts = sum(local_cocycle_dim(*component_view(X, lab, cid))
                    for cid in range(len(lab.comp_faces)))
        add_ok &= exact_cocycle_dim(X) == parts + lab.num_singletons == \
            cocycle_count_bounded(X, math.comb(n, d))
    # add-one cost of the bounded cocycle count is never positive, and is
    # exactly -1 when every face of the new simplex is uncovered
    params = _const_params(7, 2, 7 * 0.3)
    f = make_statistic("cocycle:3", params)
    mono_ok = True
    rr = random.Random(717)
    for i in range(10000):
        X = sample_complex(params, rng.child_seed(708, i))
        tau = tuple(sorted(rr.sample(range(7), 3)))
        cost = add_one_cost(f, X, tau, 1.0)
        mono_ok &= cost <= 0.0
        if not X.num_present:
            mono_ok &= cost == -1.0
    empty = WeightedComplex(7, 2, np.array([], dtype=np.int64), np.array([]))
    fresh = add_one_cost(f, empty, (1, 3, 5), 1.0) == -1.0
    _check("AC07 cocycle dimension",
           graph_ok and add_ok and mono_ok and fresh,
           "fast rank == exact rank on %d components; d=1 counts graph "
           "components; additive over components; add-one cost <= 0 on 1e4 "
           "perturbations, -1 on uncovered faces" % checked)


def test_ac08_mean_add_one_and_variance_lower():
    d, lam = 2, 1.0
    ok = True
    details = []
    for n, reps in ((50, 300), (100, 200), (200, 100)):
        params = _const_params(n, d, lam)
        f = make_statistic("cocycle:3", params)
        est = estimate_addone_mean(f, params, reps, seed=808)
        pa = bounds.prob_all_faces_uncovered(n, d, lam)
        ok &= est.point_estimate <= -pa + 3 * est.std_error
        details.append("n=%d: %.3f <= %.3f"
                       % (n, est.point_estimate, -pa + 3 * est.std_error))
    n = 200
    pa = bounds.prob_all_faces_uncovered(n, d, lam)
    scaled = bounds.variance_lower_unweighted(n, d, lam / n, -pa) \
        / float(n) ** d
    limit = bounds.variance_lower_limit(d, lam)
    ratio = scaled / limit
    ok &= abs(ratio - 1.0) <= 0.10
    _check("AC08 mean add-one cost and variance lower bound",
           ok, "; ".join(details)
           + "; scaled lower bound / limit = %.4f (tol 0.10)" % ratio)


def test_ac09_threshold_isolated_identity():
    params = exp_mean_n(20, 2)
    alpha = 0.8
    mismatches = 0
    for i in range(1000):
        s = PairedSample(params, rng.child_seed(909, i))
        nn = nn_all_faces(s)
        X = s.complex()
        keep = X.weights <= alpha
        Xa = WeightedComplex(X.n, X.d, X.present[keep], X.weights[keep])
        if int(np.sum(nn > alpha)) != isolated_count(Xa):
            mismatches += 1
    _check("AC09 threshold-isolated coupling identity",
           mismatches == 0,
           "#{NN(sigma) > alpha} == isolated(X restricted to w <= alpha) on "
           "1000 coupled samples, %d mismatches" % mismatches)


def test_ac10_truncation_level_suffices():
    n, d = 200, 1
    alpha = bounds.truncation_level(n, d, C2=3.0)
    params = exp_mean_n(n, d)
    mismatches = 0
    for i in range(10000):
        s = PairedSample(params, rng.child_seed(1010, i))
        if float(nn_all_faces(s).max()) > alpha:
            mismatches += 1
    _check("AC10 truncation level",
           mismatches == 0,
           "alpha = 64(C2+d) ln n = %.1f; nearest weight exceeded alpha in "
           "%d of 10000 replicas (so f == f^alpha throughout)"
           % (alpha, mismatches))


def _mp_corollary(i):
    n, d = mpmath.mpf(i.n), i.d
    nd = n ** d
    crude = (mpmath.mpf(i.k) ** 5
             * max(mpmath.mpf(1), d * mpmath.mpf(i.lam)) ** (2 * i.k) / n)
    first = (mpmath.mpf(i.C) * mpmath.mpf(i.J) ** mpmath.mpf("1/6")
             * max(mpmath.mpf(1), mpmath.mpf(i.lam)) ** mpmath.mpf("1/2")
             * (nd / mpmath.mpf(i.sigma_sq)) ** mpmath.mpf("1/2")
             * (mpmath.mpf(i.delta) ** mpmath.mpf("1/8")
                + crude ** (mpmath.mpf(1) / 12)))
    tail = ((nd / mpmath.mpf(i.sigma_sq)) ** mpmath.mpf("3/4")
            * mpmath.mpf(i.J) ** mpmath.mpf("1/4")
            * mpmath.mpf(i.lam) ** mpmath.mpf("1/2")
            / n ** (mpmath.mpf(d) / 4))
    return first + tail


def test_ac11_bound_oracle_and_monotonicity():
    ref = bounds.BoundInputs(n=10 ** 4, d=2, lam=0.4, k=3,
                             sigma_sq=float(10 ** 4) ** 2, J=1.0, delta=0.0)
    got = bounds.bound_corollary(ref)
    rel = abs(got - float(_mp_corollary(ref))) / float(_mp_corollary(ref))
    mono_ok = True
    r = random.Random(1111)
    for _ in range(60):
        base = bounds.BoundInputs(
            n=r.choice([50, 500, 5000]), d=r.choice([1, 2, 3]),
            lam=r.uniform(0, 3), k=r.randrange(1, 8),
            sigma_sq=r.uniform(0.5, 100.0), J=r.uniform(1.0, 40.0),
            delta=r.uniform(0, 1), rho=r.uniform(0, 1),
            gamma=r.uniform(0, 1))
        v = bounds.bound_corollary(base)
        for name in ("delta", "J", "lam"):
            up = replace(base, **{name: getattr(base, name) * 1.5 + 0.01})
            mono_ok &= bounds.bound_corollary(up) >= v - 1e-12
        mono_ok &= bounds.bound_corollary(
            replace(base, sigma_sq=2 * base.sigma_sq)) <= v + 1e-12
    _check("AC11 bound formula vs high-precision oracle",
           rel <= 1e-9 and got == 0.7399378438614895 and mono_ok,
           "reference point rel err %.2e (tol 1e-9), value %.16f; monotone "
           "in delta, J, lambda and in 1/sigma^2 on 60 random inputs"
           % (rel, got))


def test_ac12_deterministic_outputs(tmp_path):
    summaries, csvs = [], []
    for workers in (1, 4, 16):
        outdir = tmp_path / ("w%d" % workers)
        config = ExperimentConfig(
            params=_const_params(30, 1, 30 * 0.2), statistic="isolated",
            replicas=400, seed=1212, workers=workers, outputs=str(outdir))
        run_clt(config)
        record = json.loads((outdir / "summary.json").read_text())
        del record["meta"]
        record["config"]["workers"] = None
        record["config"]["outputs"] = None
        record["summary"]["csv_path"] = None
        summaries.append(record)
        csvs.append((outdir / "replicas.csv").read_bytes())
    workers_ok = summaries[0] == summaries[1] == summaries[2] \
        and csvs[0] == csvs[1] == csvs[2]
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    argv = ["generate", "--n", "25", "--d", "2", "--lambda", "1.5",
            "--seed", "6"]
    assert cli_main(argv + ["--out", str(a)]) == 0
    assert cli_main(argv + ["--out", str(b)]) == 0
    golden = tmp_path / "bound.json"
    assert cli_main(["bound", "--formula", "corollary", "--n", "10000",
                     "--d", "2", "--lambda", "0.4", "--k", "3",
                     "--out", str(golden)]) == 0
    value = json.loads(golden.read_text())["value"]
    cli_ok = a.read_bytes() == b.read_bytes() \
        and value == 0.7399378438614895
    _check("AC12 deterministic outputs and golden files",
           workers_ok and cli_ok,
           "summary/CSV identical for the inert workers field in {1, 4, "
           "16}, which selects nothing; generate is byte-identical across "
           "runs; CLI bound value %.16f" % value)
