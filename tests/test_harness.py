import json
import math
import re
import statistics as pystats
import sys

import numpy as np
import pytest

from rwcomplex import harness, rng
from rwcomplex.cli import main
from rwcomplex.harness import (ExperimentConfig, RunSummary,
                               kolmogorov_distance, normal_cdf,
                               read_replicas_csv, run_clt, run_cov_nn,
                               run_nn_face_moments, run_stabilization,
                               run_variance_check, write_replicas_csv,
                               _summarize)
from rwcomplex.sampling import (ModelParams, PairedSample, WeightDistribution,
                                exp_mean_n, sample_complex)
from rwcomplex.statistics import Statistic, isolated_count, nn_total


def _config(**kw):
    base = dict(params=exp_mean_n(20, 1), statistic="nn", replicas=200,
                seed=5, workers=1)
    base.update(kw)
    return ExperimentConfig(**base)


# ---------------------------------------------------------------------------
# normal CDF and Kolmogorov distance

def test_normal_cdf_values():
    assert normal_cdf(0.0) == 0.5
    # reference from a high-precision oracle
    assert abs(normal_cdf(1.96) - 0.9750021048517795) < 1e-12
    oracle = pystats.NormalDist()
    for x in (-3.7, -1.0, -0.1, 0.3, 2.2, 5.0):
        assert abs(normal_cdf(x) - oracle.cdf(x)) < 1e-12


def test_normal_cdf_symmetry_exact():
    for x in np.linspace(-6, 6, 41):
        assert normal_cdf(float(x)) + normal_cdf(float(-x)) == 1.0


def test_normal_cdf_rejects_nan():
    with pytest.raises(ValueError):
        normal_cdf(float("nan"))


def test_kolmogorov_three_points():
    d = kolmogorov_distance([-1.0, 0.0, 1.0])
    assert d == pytest.approx(1.0 / 3.0 - normal_cdf(-1.0), abs=1e-12)
    assert d == pytest.approx(0.17468, abs=5e-4)


def test_kolmogorov_point_mass():
    assert kolmogorov_distance([0.0] * 10) == pytest.approx(0.5)


def test_kolmogorov_stratified_normal():
    m = 2000
    inv = pystats.NormalDist().inv_cdf
    xs = [inv((i - 0.5) / m) for i in range(1, m + 1)]
    assert kolmogorov_distance(xs) <= 1.0 / m + 1e-9


def test_kolmogorov_empty():
    with pytest.raises(ValueError):
        kolmogorov_distance([])


# ---------------------------------------------------------------------------
# experiment engine

def test_config_validation():
    with pytest.raises(ValueError):
        _config(replicas=1)
    with pytest.raises(ValueError):
        _config(statistic="nope")
    with pytest.raises(ValueError):
        _config(mode="weird")
    with pytest.raises(ValueError):
        _config(workers=0)


def test_worker_determinism():
    summaries = []
    for workers in (1, 4, 16):
        s = run_clt(_config(workers=workers))
        summaries.append((s.mean, s.variance, s.skew_proxy, s.d_kolmogorov))
    assert summaries[0] == summaries[1] == summaries[2]


def test_standardization_and_band():
    s = run_clt(_config(replicas=500))
    assert 0.0 <= s.d_kolmogorov <= 1.0
    assert s.d_k_band == pytest.approx(1.36 / math.sqrt(500))
    assert not s.degenerate


def test_csv_round_trip(tmp_path):
    config = _config(outputs=str(tmp_path / "run"))
    summary = run_clt(config)
    values = read_replicas_csv(summary.csv_path)
    assert values.size == config.replicas
    again = _summarize(values, config)
    assert again.mean == summary.mean
    assert again.variance == summary.variance
    assert again.skew_proxy == summary.skew_proxy
    assert again.d_kolmogorov == summary.d_kolmogorov
    record = json.loads((tmp_path / "run" / "summary.json").read_text())
    assert record["summary"]["mean"] == summary.mean
    assert "wall_time" in record["meta"]
    assert record["meta"]["version"] == "0.1.0"


def test_csv_rejects_bad_header(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("a,b\n0,1\n")
    with pytest.raises(ValueError):
        read_replicas_csv(p)


def test_variance_check_requires_nn():
    with pytest.raises(ValueError):
        run_variance_check(_config(statistic="isolated",
                                   params=ModelParams(
                                       20, 1, 0.5,
                                       WeightDistribution("constant", 1.0))))


def test_variance_check_fields():
    s = run_variance_check(_config(params=exp_mean_n(30, 1), replicas=400))
    assert "variance_ratio" in s.extra
    assert s.extra["variance_target"] == pytest.approx(1.5 * 30)


def test_nn_face_moments():
    out = run_nn_face_moments(20, 2, 2000, seed=3)
    assert out["mean_exact"] == pytest.approx(20 / 18)
    se = math.sqrt(out["variance"] / 2000)
    assert abs(out["mean"] - out["mean_exact"]) < 4 * se


def test_run_stabilization_record():
    params = ModelParams(8, 2, 0.25, WeightDistribution("exponential", 2.0))
    config = _config(params=params, statistic="nn-alpha:1.5", replicas=40,
                     mode="stabilization")
    record = run_stabilization(config, k=1)
    assert record["estimates"]["delta_tilde"]["point_estimate"] == 0.0
    assert record["bound_corollary"] > 0
    assert set(record["estimates"]) == {"delta_tilde", "gamma", "rho_probe",
                                        "variance", "J", "addone_mean"}


def test_run_cov_nn_matches_exact():
    out = run_cov_nn(50, 1, replicas=4000, inner=64, seed=11)
    assert abs(out["cov"] - out["cov_exact"]) <= 3.5 * out["std_error"]
    # determinism
    again = run_cov_nn(50, 1, replicas=4000, inner=64, seed=11)
    assert again == out


def test_degenerate_statistic_flagged():
    params = ModelParams(6, 1, 1.0, WeightDistribution("constant", 1.0))
    config = ExperimentConfig(params=params, statistic="isolated",
                              replicas=50, seed=1)
    s = run_clt(config)
    assert s.degenerate and s.d_kolmogorov is None
    assert s.variance == 0.0


def test_replica_fn_is_row_i_of_the_replica_csv(tmp_path):
    # the benchmark's tracer wraps _replica_fn(config) and calls the result
    # once per replica index; this pins that seam
    cocycle = ModelParams(20, 2, 1.5 / 20, WeightDistribution("constant", 1.0))
    for name, params in (("nn", exp_mean_n(12, 2)), ("cocycle:3", cocycle)):
        config = _config(params=params, statistic=name, replicas=8,
                         outputs=str(tmp_path / name))
        values = read_replicas_csv(run_clt(config).csv_path)
        fn = harness._replica_fn(config)
        assert [fn(i) for i in range(config.replicas)] == values.tolist()


def _forbid_simplex_table(monkeypatch):
    def forbidden(n, d):
        raise AssertionError("simplex_table(%d, %d) built" % (n, d))
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("rwcomplex") \
                and hasattr(mod, "simplex_table"):
            monkeypatch.setattr(mod, "simplex_table", forbidden)


def test_isolated_replicas_never_build_the_simplex_table(monkeypatch):
    _forbid_simplex_table(monkeypatch)
    params = ModelParams(30, 2, 2.0 / 30, WeightDistribution("constant", 1.0))
    config = _config(params=params, statistic="isolated", replicas=6)
    s = run_clt(config)
    want = [isolated_count(sample_complex(params, rng.child_seed(5, i)))
            for i in range(6)]
    assert s.mean == float(np.sum(np.array(want, dtype=float)) / 6)


def test_nn_replicas_never_build_the_simplex_table(monkeypatch):
    _forbid_simplex_table(monkeypatch)
    config = _config(params=exp_mean_n(14, 2), replicas=4)
    s = run_clt(config)
    want = [nn_total(PairedSample(config.params, rng.child_seed(5, i)))
            for i in range(4)]
    assert s.mean == float(np.sum(np.array(want)) / 4)


def test_nan_replica_is_reported_at_the_replica(monkeypatch, capsys):
    params = ModelParams(12, 2, 0.2, WeightDistribution("constant", 1.0))

    def odd_is_nan(X):
        return float("nan") if X.num_present % 2 else 0.0
    monkeypatch.setattr(harness, "make_statistic",
                        lambda spec, p: Statistic("odd", odd_is_nan, None))
    seeds = [rng.child_seed(5, i) for i in range(20)]
    i = next(i for i, c in enumerate(seeds)
             if sample_complex(params, c).num_present % 2)
    message = "replica %d (seed %d) is NaN" % (i, seeds[i])
    config = _config(params=params, statistic="cocycle:3", replicas=20)
    with pytest.raises(ValueError, match=re.escape(message)):
        run_clt(config)
    assert main(["clt", "--n", "12", "--d", "2", "--p", "0.2", "--stat",
                 "cocycle:3", "--replicas", "20", "--seed", "5"]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["error: " + message]
