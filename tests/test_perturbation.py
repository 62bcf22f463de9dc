import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rwcomplex import rng
from rwcomplex.perturbation import (_ball_change, _change,
                                    _mean_se, _resampled_states,
                                    add_one_cost, canonical_tau_pair,
                                    estimate_addone_mean,
                                    estimate_delta_tilde, estimate_gamma,
                                    estimate_rho_probe,
                                    estimate_variance_and_J,
                                    local_add_one_cost, randomized_derivative,
                                    StabilizationEstimate)
from rwcomplex.sampling import (ForcedBits, ModelParams, PairedSample,
                                WeightDistribution, sample_complex)
from rwcomplex.simplices import (WeightedComplex, faces, rank_colex,
                                 unrank_colex)
from rwcomplex.statistics import (LocalFunctional, Statistic,
                                  UncoveredFaceError, f_alpha_faces,
                                  local_statistic,
                                  local_statistic_near,
                                  local_statistic_terms, make_statistic,
                                  nn_terms)
from rwcomplex.topology import ball_k

from test_statistics import REFERENCE_LOCAL_G, reference_local_statistic


# ---------------------------------------------------------------------------
# the full two-complex reference the difference operators are pinned to

# an ungated, nonlinear g: unlike the built-in ones, it tells an M-ball cut
# short at the edge of tau's neighbourhood from the whole ball
TEST_LOCAL_G = {**REFERENCE_LOCAL_G,
                "num-lower": lambda M: lambda local: local.num_lower ** 2.0}


def local_stat(spec, params):
    """make_statistic, plus local:num-lower:<M> (g = f_{d-1}^2) built
    from the public local_statistic pieces as a user would."""
    if not spec.startswith("local:num-lower:"):
        return make_statistic(spec, params)
    M = int(spec.split(":")[2])
    lf = LocalFunctional("num-lower", TEST_LOCAL_G["num-lower"](M), M)
    return Statistic(spec, lambda X: local_statistic(X, lf), None,
                     near=lambda X, t, w: local_statistic_near(X, t, w, lf))


def reference_terms(f):
    """The per-face term list of a built-in statistic that has one."""
    head, *rest = f.name.split(":")
    if f.name == "nn":
        return nn_terms
    if head == "nn-alpha":
        return lambda X: f_alpha_faces(X, float(rest[0])).tolist()
    if head == "local":
        M = int(rest[1])
        lf = LocalFunctional(rest[0], TEST_LOCAL_G[rest[0]](M), M)
        return lambda X: local_statistic_terms(X, lf)
    return None


def full_difference(f, X_plus, X_minus):
    """f(X_plus) - f(X_minus) on two built complexes, with exact term
    multiset cancellation for statistics with per-face terms."""
    terms = reference_terms(f)
    if terms is not None:
        signed = list(terms(X_plus))
        signed.extend(-t for t in terms(X_minus))
        return math.fsum(signed)
    return f.evaluate(X_plus) - f.evaluate(X_minus)


def ref_add_one_cost(f, X, tau_rank, w):
    return full_difference(f, X.with_simplex(tau_rank, w),
                           X.without_simplex(tau_rank))


def ball_difference(f, X_plus, X_minus, verts, k):
    """full_difference on the two k-balls around verts; nn on a ball that
    leaves a face uncovered is refused with the ball's own error."""
    try:
        return full_difference(f, ball_k(X_plus, verts, k),
                               ball_k(X_minus, verts, k))
    except UncoveredFaceError:
        raise ValueError("nn undefined on B_k(tau, X) at k=%d: the ball "
                         "leaves a face uncovered; use a larger k or "
                         "nn-alpha:<a>" % k)


def ref_local_add_one_cost(f, X, tau_rank, w, k):
    return ball_difference(f, X.with_simplex(tau_rank, w),
                           X.without_simplex(tau_rank),
                           unrank_colex(tau_rank, X.d, X.n), k)


def ref_randomized_derivative(f, s, F, tau_rank):
    if tau_rank in F:
        raise ValueError("tau must not lie in F")
    return full_difference(f, s.resampled(F), s.resampled(F + [tau_rank]))


def local_randomized_derivative(f, s, F, tau_rank, k):
    """Delta_tau f on B_k(tau, X^F) against B_k(tau, X^{F + tau}): both
    balls from one walk of X^F, tau's two states read off the draws."""
    XF, a, b = _resampled_states(s, F, tau_rank)
    return _ball_change(f, XF, tau_rank,
                        unrank_colex(tau_rank, s.params.d, s.params.n), a, b,
                        k)


def ref_local_randomized_derivative(f, s, F, tau_rank, k):
    return ball_difference(f, s.resampled(F), s.resampled(F + [tau_rank]),
                           unrank_colex(tau_rank, s.params.d, s.params.n), k)


def ref_estimate_delta_tilde(f, params, k, replicas, seed, randomized):
    """estimate_delta_tilde as it was written with tau's bits forced too:
    b at tau forced by the coin and b' at tau to its complement in the
    randomized variant, the gaps taken on X^F through _resampled_states;
    D_tau through add_one_cost and local_add_one_cost otherwise."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    tau, tau_prime = canonical_tau_pair(params.n, params.d)
    tau_rank, tp_rank = rank_colex(tau), rank_colex(tau_prime)
    results = []
    for i in (0, 1):
        gaps = np.empty(replicas)
        for r in range(replicas):
            child = rng.child_seed(seed, 2 * r + i)
            forced = {tp_rank: i}
            if randomized:
                coin = rng.uniform_at(rng.stream_key(child, 17), 0) < 0.5
                b_tau = 1 if coin else 0
                fb = dict(forced)
                fb[tau_rank] = b_tau
                s = PairedSample(params, child, ForcedBits(
                    b=fb, b_prime={tau_rank: 1 - b_tau}))
                XF, a, b = _resampled_states(s, [], tau_rank)
                g_glob = _change(f, XF, tau_rank, a, b)
                g_loc = _ball_change(f, XF, tau_rank, unrank_colex(
                    tau_rank, params.d, params.n), a, b, k)
            else:
                s = PairedSample(params, child, ForcedBits(b=forced))
                X = s.complex()
                w_tau = float(s.weight_values(np.array([tau_rank]))[0])
                g_glob = add_one_cost(f, X, tau_rank, w_tau)
                g_loc = local_add_one_cost(f, X, tau_rank, w_tau, k)
            gaps[r] = (g_glob - g_loc) ** 2
        mean, se = _mean_se(gaps)
        results.append((mean, se, i))
    results.sort(key=lambda t: (t[0], t[1]))
    mean, se, i = results[-1]
    op = "Delta, {b+b'=1} at tau" if randomized else "D"
    return StabilizationEstimate(
        "delta_tilde", mean, se, replicas, params, k=k, seed=seed,
        conditioning="%s; b at tau'=%s forced to %d" % (op, tau_prime, i))


def _params(n=8, d=2, p=0.25, mean=2.0):
    return ModelParams(n, d, p, WeightDistribution("exponential", mean))


def test_randomized_derivative_zero_when_copies_agree():
    # if both presence copies at tau are 0 the resampled pair coincides
    params = _params()
    tau = (0, 1, 2)
    r = rank_colex(tau)
    s = PairedSample(params, 5, ForcedBits(b={r: 0}, b_prime={r: 0}))
    for spec in ("nn-alpha:1.0", "isolated", "cocycle:3"):
        f = make_statistic(spec, params)
        assert randomized_derivative(f, s, [], tau) == 0.0


def test_randomized_derivative_isolated_edge():
    # adding one edge to an empty graph un-isolates its two endpoints
    n = 7
    params = ModelParams(n, 1, 1e-9, WeightDistribution("constant", 1.0))
    tau = (0, 1)
    r = rank_colex(tau)
    s = PairedSample(params, 3, ForcedBits(b={r: 0}, b_prime={r: 1}))
    f = make_statistic("isolated", params)
    assert randomized_derivative(f, s, [], tau) == 2.0


def test_randomized_derivative_rejects_tau_in_F():
    params = _params()
    f = make_statistic("isolated", params)
    s = PairedSample(params, 1)
    with pytest.raises(ValueError):
        randomized_derivative(f, s, [0], 0)


def test_add_one_cost_isolated_on_empty():
    params = _params(n=7, d=2)
    f = make_statistic("isolated", params)
    empty = WeightedComplex(7, 2, np.array([], dtype=np.int64), np.array([]))
    assert add_one_cost(f, empty, (0, 1, 2), 1.0) == -(2 + 1)


def test_add_one_cost_cocycle_all_faces_maximal():
    # when every face of tau is uncovered, adding tau merges d+1 singleton
    # components into one simplex: cocycle count drops by exactly 1
    params = _params(n=8, d=2)
    f = make_statistic("cocycle:3", params)
    empty = WeightedComplex(8, 2, np.array([], dtype=np.int64), np.array([]))
    assert add_one_cost(f, empty, (2, 4, 6), 1.0) == -1.0


def test_add_one_cost_nn_alpha_saturated():
    # tau's weight above alpha and all its faces already covered below
    # alpha: the per-face minima cannot change
    n, d, alpha = 6, 1, 1.0
    params = ModelParams(n, d, 0.5, WeightDistribution("exponential", 1.0))
    f = make_statistic("nn-alpha:%g" % alpha, params)
    # a triangle of light edges covering vertices 0,1,2; heavy tau = (0,1)
    ranks = sorted(rank_colex(e) for e in [(0, 1), (0, 2), (1, 2)])
    X = WeightedComplex(n, d, np.array(ranks), np.array([0.1, 0.2, 0.3]))
    assert add_one_cost(f, X, (0, 1), 5.0) == 0.0


def test_local_equals_global_for_large_k():
    for seed in range(30):
        params = _params()
        X = sample_complex(params, seed)
        tau, _ = canonical_tau_pair(params.n, params.d)
        w = 1.3
        for spec in ("nn-alpha:2.0", "isolated", "cocycle:2",
                     "local:isolated:1"):
            f = make_statistic(spec, params)
            want = add_one_cost(f, X, tau, w)
            got = local_add_one_cost(f, X, tau, w, k=50)
            assert got == want, (seed, spec)


def test_local_add_one_cost_k0_vanishes():
    params = _params()
    f = make_statistic("nn-alpha:1.0", params)
    X = sample_complex(params, 11)
    tau, _ = canonical_tau_pair(params.n, params.d)
    assert local_add_one_cost(f, X, tau, 0.7, k=0) == 0.0


def test_lipschitz_envelopes():
    # |Delta_tau f| <= 1[b v b' = 1] H and |D_tau f| <= H for constant-H
    # statistics, over random instances
    params = _params(n=7, d=2, p=0.4)
    tau, _ = canonical_tau_pair(7, 2)
    r = rank_colex(tau)
    stats = [make_statistic(s, params)
             for s in ("nn-alpha:1.5", "isolated", "cocycle:2", "betti:2",
                       "local:isolated:1", "local:cocycle-ratio:2")]
    for seed in range(200):
        s = PairedSample(params, seed)
        at = np.array([r])
        b, bp = s.presence(at), s.presence(at, primed=True)
        w = s.weight_values(at)
        X = s.complex()
        for f in stats:
            H = f.lipschitz_H
            delta = abs(randomized_derivative(f, s, [], tau))
            if not (b[0] or bp[0]):
                assert delta == 0.0
            assert delta <= H + 1e-12
            assert abs(add_one_cost(f, X, tau, float(w[0]))) <= H + 1e-12


def test_two_scale_exact_zero():
    params = _params()
    f = make_statistic("nn-alpha:1.5", params)
    est = estimate_delta_tilde(f, params, k=1, replicas=60, seed=17)
    assert est.point_estimate == 0.0 and est.std_error == 0.0
    g = make_statistic("local:cocycle-ratio:1", params)
    est = estimate_delta_tilde(g, params, k=2, replicas=60, seed=17)
    assert est.point_estimate == 0.0 and est.std_error == 0.0


def test_delta_positive_at_k0():
    params = ModelParams(12, 2, 2.0 / 12.0,
                         WeightDistribution("constant", 1.0))
    f = make_statistic("cocycle:3", params)
    est = estimate_delta_tilde(f, params, k=0, replicas=200, seed=4)
    assert est.point_estimate - 3 * est.std_error > 0.0


def test_estimate_determinism():
    params = _params()
    f = make_statistic("cocycle:2", params)
    a = estimate_delta_tilde(f, params, k=1, replicas=40, seed=9)
    b = estimate_delta_tilde(f, params, k=1, replicas=40, seed=9)
    assert a == b
    g1 = estimate_gamma(params, 2, 100, 9)
    g2 = estimate_gamma(params, 2, 100, 9)
    assert g1 == g2


def test_delta_randomized_variant_runs():
    params = _params()
    f = make_statistic("isolated", params)
    est = estimate_delta_tilde(f, params, k=1, replicas=40, seed=2,
                               randomized=True)
    assert est.point_estimate >= 0.0
    assert "b+b'" in est.conditioning


@settings(derandomize=True, deadline=None, max_examples=60)
@pytest.mark.parametrize("randomized", (False, True))
@pytest.mark.parametrize("spec", ("nn", "nn-alpha:0.8", "isolated",
                                  "cocycle:2", "betti:2",
                                  "local:cocycle-ratio:2"))
@given(data=st.data())
def test_delta_tilde_matches_the_forced_bit_reference(spec, randomized,
                                                      data):
    # the estimate's JSON (floats by repr, so bit for bit), or the same
    # error: nn at p = 1 raises where the ball leaves a face uncovered
    d = data.draw(st.integers(1, 3))
    n = data.draw(st.integers(2 * d + 2, 2 * d + 4))
    p = data.draw(st.sampled_from((0.2, 0.5, 1.0)))
    dist = data.draw(st.sampled_from((
        WeightDistribution("exponential", float(n)),
        WeightDistribution("uniform", 2.0),
        WeightDistribution("constant", 1.0))))
    params = ModelParams(n, d, p, dist)
    f = make_statistic(spec, params)
    args = (f, params, data.draw(st.integers(0, 3)),
            data.draw(st.integers(2, 4)), data.draw(st.integers(0, 1 << 20)),
            randomized)

    def outcome(fn):
        try:
            return json.dumps(fn(*args).to_json(), sort_keys=True)
        except ValueError as exc:
            return "ValueError: %s" % exc
    assert outcome(estimate_delta_tilde) == outcome(ref_estimate_delta_tilde)


def test_rho_probe_zero_when_costs_vanish():
    params = _params()
    f = make_statistic("nn-alpha:1.0", params)
    est = estimate_rho_probe(f, params, k=0, F=[], F_prime=[], replicas=50,
                             seed=6)
    assert est.point_estimate == 0.0 and est.std_error == 0.0


def test_rho_probe_rejects_bad_F():
    params = _params()
    f = make_statistic("isolated", params)
    tau, _ = canonical_tau_pair(params.n, params.d)
    with pytest.raises(ValueError):
        estimate_rho_probe(f, params, 1, [rank_colex(tau)], [], 10, 0)


def test_estimates_sample_and_walk_each_complex_once(monkeypatch):
    # randomized delta_tilde: one X^F per replica serves both derivatives;
    # rho probe: with F (F') empty, one walk of X at tau (tau')
    import rwcomplex.perturbation as perturbation
    params = _params(n=10, p=0.4)
    f = make_statistic("cocycle:2", params)
    sweeps, walks = [], []
    real_resampled = PairedSample.resampled
    real_local = perturbation.local_add_one_cost

    def resampled(self, F):
        sweeps.append(list(F))
        return real_resampled(self, F)

    def local(*args):
        walks.append(args[2])
        return real_local(*args)
    monkeypatch.setattr(PairedSample, "resampled", resampled)
    monkeypatch.setattr(perturbation, "local_add_one_cost", local)
    estimate_delta_tilde(f, params, k=1, replicas=2, seed=3,
                         randomized=True)
    assert sweeps == [[]] * 4          # 2 replicas x 2 conditions
    estimate_rho_probe(f, params, 1, [], [], 2, 3)
    assert len(walks) == 4
    walks.clear()
    estimate_rho_probe(f, params, 1, [3], [9], 2, 3)
    assert len(walks) == 8


def test_forced_bits_match_rejection_sampling():
    # conditioning by forcing a presence bit must agree with rejection
    params = _params(n=7, d=2, p=0.5)
    f = make_statistic("isolated", params)
    target = 3  # condition on b at rank 3 being 1
    m = 400
    forced_vals = np.empty(m)
    for i in range(m):
        s = PairedSample(params, rng.child_seed(1000, i),
                         ForcedBits(b={target: 1}))
        forced_vals[i] = f.evaluate(s.complex())
    reject_vals = []
    i = 0
    while len(reject_vals) < m:
        s = PairedSample(params, rng.child_seed(2000, i))
        i += 1
        if bool(s.presence(np.array([target]))[0]):
            reject_vals.append(f.evaluate(s.complex()))
    reject_vals = np.array(reject_vals)
    se = math.sqrt(forced_vals.var(ddof=1) / m + reject_vals.var(ddof=1) / m)
    assert abs(forced_vals.mean() - reject_vals.mean()) < 3 * se


def test_variance_and_J():
    params = _params()
    f = make_statistic("nn-alpha:1.5", params)
    var_est, j_est = estimate_variance_and_J(f, params, 300, seed=8)
    assert var_est.point_estimate > 0
    assert j_est.point_estimate == max(1.0, (3 * 1.5) ** 6)
    assert j_est.std_error == 0.0
    # a constant statistic has zero variance
    const = Statistic("const", lambda X: 4.2, 0.0)
    var_est, j_est = estimate_variance_and_J(const, params, 50, seed=8)
    assert var_est.point_estimate == 0.0
    assert j_est.point_estimate == 1.0


def test_estimate_addone_mean_runs():
    params = _params()
    f = make_statistic("cocycle:3", params)
    est = estimate_addone_mean(f, params, 100, seed=12)
    assert est.quantity == "addone_mean"
    assert est.point_estimate <= 0.0  # adding a simplex never adds cocycles


def test_stabilization_estimate_validation():
    params = _params()
    with pytest.raises(ValueError):
        StabilizationEstimate("gamma", 0.0, 0.0, 1, params)


# ---------------------------------------------------------------------------
# the near-term differences against the full two-complex reference

BUILTIN_SPECS = ("nn", "nn-alpha:0.8", "isolated", "cocycle:1", "cocycle:3",
                 "cocycle:1000000", "betti:2", "local:isolated:1",
                 "local:isolated:2", "local:cocycle-ratio:2",
                 "local:cocycle-ratio:4", "local:num-lower:2",
                 "local:num-lower:3")


def _outcome(fn, *args):
    """The result bit for bit, or the error it raised."""
    try:
        return float(fn(*args)).hex()
    except ValueError as exc:
        return "ValueError: %s" % exc


@settings(derandomize=True, deadline=None, max_examples=25)
@pytest.mark.parametrize("d", (1, 2, 3))
@pytest.mark.parametrize("spec", BUILTIN_SPECS)
@given(data=st.data())
def test_differences_match_the_two_complex_reference(spec, d, data):
    # every operator, with tau present or absent (forced or not), its
    # weight replaced, in or out of F, k = 0 included; nn at p < 1 checks
    # the uncovered-face error
    n = data.draw(st.integers(d + 2, 8))
    nd = math.comb(n, d + 1)
    p = data.draw(st.sampled_from((0.2, 0.5, 0.9, 1.0)))
    params = ModelParams(n, d, p, WeightDistribution("exponential", 1.0))
    f = local_stat(spec, params)
    tau = data.draw(st.integers(0, nd - 1))
    bits = st.one_of(st.just({}), st.builds(lambda v: {tau: v},
                                            st.integers(0, 1)))
    s = PairedSample(params, data.draw(st.integers(0, 1 << 20)),
                     ForcedBits(b=data.draw(bits), b_prime=data.draw(bits)))
    F = data.draw(st.lists(st.integers(0, nd - 1), max_size=3))
    k = data.draw(st.integers(0, 3))
    X = s.resampled(data.draw(st.lists(st.integers(0, nd - 1),
                                       max_size=2)))
    w = data.draw(st.floats(0.0, 3.0))
    assert _outcome(add_one_cost, f, X, tau, w) == \
        _outcome(ref_add_one_cost, f, X, tau, w)
    assert _outcome(local_add_one_cost, f, X, tau, w, k) == \
        _outcome(ref_local_add_one_cost, f, X, tau, w, k)
    assert _outcome(randomized_derivative, f, s, F, tau) == \
        _outcome(ref_randomized_derivative, f, s, F, tau)
    assert _outcome(local_randomized_derivative, f, s, F, tau, k) == \
        _outcome(ref_local_randomized_derivative, f, s, F, tau, k)


@pytest.mark.parametrize("w, message", [
    (math.nan, "weights must be finite"), (math.inf, "weights must be finite"),
    (-math.inf, "weights must be finite"), (-1.0, "negative weight")])
def test_add_one_costs_refuse_a_bad_weight_as_x_plus_tau_does(w, message):
    params = ModelParams(7, 2, 0.5, WeightDistribution("exponential", 1.0))
    f = make_statistic("isolated", params)
    X = sample_complex(params, 3)
    for tau in (int(X.present[0]), rank_colex((0, 1, 6))):
        for run in (lambda: X.with_simplex(tau, w),
                    lambda: add_one_cost(f, X, tau, w),
                    lambda: local_add_one_cost(f, X, tau, w, 2)):
            with pytest.raises(ValueError) as err:
                run()
            assert str(err.value) == message


def test_add_one_cost_refuses_a_rank_out_of_range_as_x_plus_tau_does():
    params = ModelParams(7, 2, 0.5, WeightDistribution("exponential", 1.0))
    f = make_statistic("isolated", params)
    X = sample_complex(params, 3)
    for tau in (-1, math.comb(7, 3)):
        for run in (lambda: X.with_simplex(tau, 1.0),
                    lambda: add_one_cost(f, X, tau, 1.0)):
            with pytest.raises(ValueError) as err:
                run()
            assert str(err.value) == "rank out of range for k=2, n=7"


@pytest.mark.parametrize("spec", BUILTIN_SPECS)
def test_differences_never_toggle_the_full_complex(spec, monkeypatch):
    # neither X + tau, X - tau nor X^{F + tau} may be built: each
    # difference reads the one complex it is given
    params = ModelParams(8, 2, 1.0 if spec == "nn" else 0.4,
                         WeightDistribution("exponential", 1.0))
    f = local_stat(spec, params)
    tau = rank_colex((0, 1, 2))
    full = []

    def resampled(self, F):
        if tau in list(F):
            raise AssertionError("X^{F + tau} built")
        full.append(real_resampled(self, F))
        return full[-1]

    def refuse(name):
        method = getattr(WeightedComplex, name)

        def wrapped(self, *args):
            if any(self is Y for Y in full):
                raise AssertionError("%s on the full complex" % name)
            return method(self, *args)
        return wrapped
    real_resampled = PairedSample.resampled
    monkeypatch.setattr(PairedSample, "resampled", resampled)
    for name in ("with_simplex", "without_simplex"):
        monkeypatch.setattr(WeightedComplex, name, refuse(name))
    for b, bp in ((0, 0), (0, 1), (1, 0), (1, 1)):
        s = PairedSample(params, 5, ForcedBits(b={tau: b}, b_prime={tau: bp}))
        X = s.complex()
        add_one_cost(f, X, tau, 0.7)
        add_one_cost(f, X, tau + 1, 0.7)
        local_add_one_cost(f, X, tau, 0.7, 50)
        randomized_derivative(f, s, [], tau)
        randomized_derivative(f, s, [3, 40], tau)
        local_randomized_derivative(f, s, [3], tau, 50)


# ---------------------------------------------------------------------------
# the built-in local statistics against the per-face reference

@settings(derandomize=True, deadline=None, max_examples=60)
@pytest.mark.parametrize("d", (1, 2, 3))
@given(data=st.data())
def test_builtin_local_statistics_match_the_per_face_reference(d, data):
    # component sums against g on the M-ball of every face, lambda from
    # sub- to supercritical (a giant component): the value's bytes, and D,
    # Delta and their ball versions bit for bit, or the same error
    gname = data.draw(st.sampled_from(("isolated", "cocycle-ratio")))
    M = data.draw(st.sampled_from((1, 2, 3, 6)))
    spec = "local:%s:%d" % (gname, M)
    n = data.draw(st.integers(d + 2, (24, 13, 10)[d - 1]))
    lam = data.draw(st.floats(0.2, 4.0))
    params = ModelParams(n, d, min(1.0, lam / n),
                         WeightDistribution("exponential", 1.0))
    f, ref = make_statistic(spec, params), reference_local_statistic(spec,
                                                                      params)
    assert f.lipschitz_H == ref.lipschitz_H
    nd = math.comb(n, d + 1)
    tau = data.draw(st.integers(0, nd - 1))
    s = PairedSample(params, data.draw(st.integers(0, 1 << 20)))
    F = data.draw(st.lists(st.integers(0, nd - 1), max_size=3))
    k = data.draw(st.sampled_from((0, 1, 2, 2 * M, 50)))
    w = data.draw(st.floats(0.0, 3.0))
    X = s.complex()
    assert f.evaluate(X).hex() == ref.evaluate(X).hex()
    for op, args in ((add_one_cost, (X, tau, w)),
                     (local_add_one_cost, (X, tau, w, k)),
                     (randomized_derivative, (s, F, tau)),
                     (local_randomized_derivative, (s, F, tau, k))):
        assert _outcome(op, f, *args) == _outcome(op, ref, *args), op
