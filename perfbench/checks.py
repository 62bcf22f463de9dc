"""Checks on the outputs the timed jobs left behind.

They run after the timed region.  A job fails if it raised or exited
nonzero, or if its output fails a check here.  At the default workload
seed, job 0's output must also match the digest recorded in
`digests.json` when this machine has the float environment it was
recorded in; that file changes only in a change that changes only the
benchmark (`run.py --record-digests`).
"""
from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np
from numpy.lib.introspect import opt_func_info

from rwcomplex import bounds, rng
from rwcomplex.harness import read_replicas_csv
from rwcomplex.sampling import sample_complex
from rwcomplex.simplices import read_complex
from rwcomplex.statistics import make_statistic

import workloads

DIGESTS = Path(__file__).with_name("digests.json")
SPOT_JOBS = 8          # jobs per run whose values are recomputed
REL_TOL = 1e-12        # summation order may differ from the harness path
NN_MEAN_SIGMAS = 5.0


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0)


def _moments(values: np.ndarray):
    m = values.size
    mean = float(np.sum(values) / m)
    centered = values - mean if np.any(values != values[0]) \
        else np.zeros(m)
    return mean, float(np.sum(centered ** 2) / (m - 1))


def _value(sp: dict, seed: int) -> float:
    """Reference value of one replica through the generic public path."""
    params = workloads.params(sp)
    return make_statistic(sp["stat"], params).evaluate(
        sample_complex(params, seed))


def check_clt(sp, jobdir: Path, seed: int, spot: bool) -> list:
    record = json.loads((jobdir / "summary.json").read_text())
    summary = record["summary"]
    values = read_replicas_csv(jobdir / "replicas.csv")
    m = sp["replicas"]
    problems = []
    if values.size != m or summary["replicas"] != m \
            or summary["seed"] != seed:
        return ["replica count or seed differs from the config"]
    if not np.all(np.isfinite(values)):
        return ["non-finite replica value"]
    mean, var = _moments(values)
    if not (_close(summary["mean"], mean)
            and _close(summary["variance"], var)):
        problems.append("summary moments disagree with the replica values")
    if spot:
        i = seed % m
        want = _value(sp, rng.child_seed(seed, i))
        if not _close(values[i], want):
            problems.append("replica %d is %r, recomputed %r"
                            % (i, values[i], want))
    return problems


def check_nn_mean(sp, outdir: Path, jobs: list) -> list:
    """The mean over every replica of the run lies within NN_MEAN_SIGMAS
    standard errors of C(n, d) E[NN(sigma)].  Pooling the run keeps the
    chance of a false alarm near 1e-6 per run."""
    values = np.concatenate([
        read_replicas_csv(outdir / ("job%d" % job["index"]) / "replicas.csv")
        for job in jobs])
    mean, var = _moments(values)
    target = math.comb(sp["n"], sp["d"]) * bounds.nn_mean_face(sp["n"],
                                                               sp["d"])
    if abs(mean - target) > NN_MEAN_SIGMAS * math.sqrt(var / values.size):
        return ["nn mean %r of %d replicas is more than %g standard errors "
                "from %r" % (mean, values.size, NN_MEAN_SIGMAS, target)]
    return []


ESTIMATES = ("delta_tilde", "gamma", "rho_probe", "variance", "J",
             "addone_mean")


def check_stabilization(sp, path: Path, seed: int, spot: bool) -> list:
    record = json.loads(path.read_text())
    m = sp["replicas"]
    if record["config"]["seed"] != seed or record["k"] != sp["k"]:
        return ["seed or k differs from the config"]
    est = record["estimates"]
    if sorted(est) != sorted(ESTIMATES):
        return ["estimates %s, want %s" % (sorted(est), sorted(ESTIMATES))]
    problems = []
    for name in ESTIMATES:
        e = est[name]
        if e["replicas"] != m or not math.isfinite(e["point_estimate"]) \
                or not e["std_error"] >= 0.0:
            problems.append("bad %s estimate %r" % (name, e))
    if not 0.0 <= est["gamma"]["point_estimate"] <= 1.0:
        problems.append("gamma outside [0, 1]")
    for key in ("bound_add_one", "bound_corollary"):
        if not (math.isfinite(record[key]) and record[key] > 0.0):
            problems.append("%s is %r" % (key, record[key]))
    if spot:
        # The variance estimate uses child seed 4 of the job seed.
        base = rng.child_seed(seed, 4)
        values = np.array([_value(sp, rng.child_seed(base, r))
                           for r in range(m)])
        if not _close(est["variance"]["point_estimate"], _moments(values)[1]):
            problems.append("variance estimate differs from recomputation")
    return problems


def _uncovered_faces(verts: np.ndarray, n: int, d: int) -> int:
    """(d-1)-faces of the full skeleton not covered by any listed simplex,
    from colex ranks of the faces (independent of the package's tables)."""
    if verts.size == 0:
        return math.comb(n, d)
    comb = np.array([[math.comb(v, j) for j in range(d + 1)]
                     for v in range(n)], dtype=np.int64)
    ranks = []
    for drop in range(d + 1):
        face = np.delete(verts, drop, axis=1)
        ranks.append(comb[face, np.arange(1, d + 1)].sum(axis=1))
    return math.comb(n, d) - np.unique(np.concatenate(ranks)).size


def check_cli(sp, txt: Path, stat_json: Path, seed: int) -> list:
    want = sample_complex(workloads.params(sp), seed)
    got = read_complex(txt)
    problems = []
    if (got.n, got.d) != (want.n, want.d) \
            or got.present.tobytes() != want.present.tobytes() \
            or got.weights.tobytes() != want.weights.tobytes():
        problems.append("generated file differs from sample_complex")
    lines = txt.read_text().splitlines()[1:]
    verts = np.array([[int(v) for v in line.split(",")[:-1]]
                      for line in lines], dtype=np.int64).reshape(
                          -1, sp["d"] + 1)
    out = json.loads(stat_json.read_text())
    expect = float(_uncovered_faces(verts, sp["n"], sp["d"]))
    if out["statistic"] != sp["stat"] or out["value"] != expect:
        problems.append("stat output %r, expected value %r" % (out, expect))
    return problems


def digest(sp, outdir: Path, label: str) -> str:
    h = hashlib.sha256()
    if sp["kind"] == "clt":
        summary = json.loads((outdir / label / "summary.json").read_text())
        summary = dict(summary["summary"])
        summary.pop("csv_path")
        h.update(json.dumps(summary, sort_keys=True).encode())
    elif sp["kind"] == "stabilization":
        h.update((outdir / (label + ".json")).read_bytes())
    else:
        h.update((outdir / (label + ".txt")).read_bytes())
        value = json.loads((outdir / (label + ".stat.json")).read_text())
        h.update(repr(value["value"]).encode())
    return h.hexdigest()


def float_env() -> str:
    """What the digests depend on besides the code: exponential weights go
    through numpy's float64 `log`, whose last bits depend on the SIMD
    kernel numpy picks for this CPU."""
    kernel = opt_func_info(func_name="^log$", signature="float64")
    return "numpy %s, log %s" % (np.__version__,
                                 kernel["log"]["dd"]["current"])


def recorded_digest(sp):
    """The recorded digest, or None where none was recorded for this
    seed and float environment (then only the content checks apply)."""
    table = json.loads(DIGESTS.read_text())
    if table.get("seed") != workloads.DEFAULT_SEED \
            or table.get("float_env") != float_env():
        return None
    return table.get(sp["size"], {}).get(sp["name"])


def check_job(sp, outdir: Path, job: dict, workload_seed: int,
              spot: bool) -> list:
    """Problems with one job's output; empty when it passes."""
    if "error" in job:
        return [job["error"]]
    label = "job%d" % job["index"]
    seed = job["seed"]
    try:
        if sp["kind"] == "clt":
            problems = check_clt(sp, outdir / label, seed, spot)
        elif sp["kind"] == "stabilization":
            problems = check_stabilization(sp, outdir / (label + ".json"),
                                           seed, spot)
        else:
            problems = check_cli(sp, outdir / (label + ".txt"),
                                 outdir / (label + ".stat.json"), seed)
        if job["index"] == 0 and workload_seed == workloads.DEFAULT_SEED:
            want = recorded_digest(sp)
            if want is not None and want != digest(sp, outdir, label):
                problems.append("job 0 output digest differs from the "
                                "recorded one")
    except (OSError, ValueError, KeyError, TypeError) as exc:
        problems = ["unreadable output: %r" % (exc,)]
    return problems


def check_jobs(sp, outdir: Path, jobs: list, workload_seed: int) -> list:
    """Per job, its list of problems.  Values are recomputed for up to
    SPOT_JOBS jobs spread over the run."""
    step = max(1, -(-len(jobs) // SPOT_JOBS))
    problems = [check_job(sp, outdir, job, workload_seed, k % step == 0)
                for k, job in enumerate(jobs)]
    passed = [job for job, p in zip(jobs, problems) if not p]
    if sp["stat"] == "nn" and len(passed) >= 2:
        # A biased mean indicts every job that contributed to it.
        pooled = check_nn_mean(sp, outdir, passed)
        for p in problems:
            p.extend(pooled)
    return problems
