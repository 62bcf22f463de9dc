"""The four benchmark workloads and the jobs they send.

A job is one call into a public entry point of the package: `run_clt`,
`run_stabilization`, or a `generate` + `stat` pair of fresh CLI processes.
Job `j` of a run with workload seed `s` uses seed `rng.child_seed(s, j)`;
the package only ever sees the resulting configs.  Two sizes exist: `full`
(what `--workload` measures) and `smoke` (tiny, for `--smoke`).
"""
from __future__ import annotations

import math

from rwcomplex import rng
from rwcomplex.harness import ExperimentConfig
from rwcomplex.sampling import ModelParams, WeightDistribution

DEFAULT_SEED = 1

# Warm-up and set-up jobs use child indices no timed job reaches.
SETUP_JOB = 1 << 40

# kind: clt | stabilization | cli.  `replicas` is per job; `jobs_per_s`
# sets the fixed job count of a traced run (jobs per second of --seconds,
# split over its untraced and traced passes).
WORKLOADS = {
    "clt-nn": {
        "kind": "clt", "n": 120, "d": 2, "p": 1.0, "dist": "exp",
        "stat": "nn", "replicas": 36, "workers": 1, "jobs_per_s": 1.6,
    },
    "clt-cocycle": {
        "kind": "clt", "n": 120, "d": 2, "lam": 0.5, "dist": "constant",
        "stat": "cocycle:30", "replicas": 4, "workers": 2,
        "jobs_per_s": 1.2,
    },
    "stabilization-cocycle": {
        "kind": "stabilization", "n": 40, "d": 2, "lam": 1.0,
        "dist": "constant", "stat": "cocycle:3", "replicas": 2, "k": 2,
        "workers": 1, "jobs_per_s": 1.0,
    },
    "generate-stat": {
        "kind": "cli", "n": 160, "d": 2, "lam": 2.0, "dist": "exp",
        "stat": "isolated", "replicas": 1, "workers": 1, "jobs_per_s": 0.2,
    },
}

SMOKE_SIZES = {
    "clt-nn": {"n": 16, "replicas": 32},
    "clt-cocycle": {"n": 16, "replicas": 4},
    "stabilization-cocycle": {"n": 12},
    "generate-stat": {"n": 16},
}


def spec(name: str, size: str = "full") -> dict:
    """The resolved workload description at one size."""
    if name not in WORKLOADS:
        raise KeyError("unknown workload %r" % name)
    out = dict(WORKLOADS[name])
    if size == "smoke":
        out.update(SMOKE_SIZES[name])
    elif size != "full":
        raise ValueError("unknown size %r" % size)
    out["name"] = name
    out["size"] = size
    return out


def params(sp: dict) -> ModelParams:
    n = sp["n"]
    p = sp["p"] if "p" in sp else sp["lam"] / n
    if sp["dist"] == "exp":
        dist = WeightDistribution("exponential", float(n))
    else:
        dist = WeightDistribution("constant", 1.0)
    return ModelParams(n, sp["d"], p, dist)


def job_seed(workload_seed: int, j: int) -> int:
    return rng.child_seed(workload_seed, j)


def experiment_config(sp: dict, seed: int, replicas: int,
                      outputs=None) -> ExperimentConfig:
    mode = "stabilization" if sp["kind"] == "stabilization" else "clt"
    return ExperimentConfig(params(sp), sp["stat"], replicas, seed,
                            workers=sp["workers"], outputs=outputs,
                            mode=mode)


def cli_argv(sp: dict, seed: int, complex_path: str):
    """Arguments of the `generate` and `stat` processes of one job."""
    gen = ["generate", "--n", str(sp["n"]), "--d", str(sp["d"]),
           "--lambda", repr(float(sp["lam"])), "--seed", str(seed),
           "--out", complex_path]
    stat = ["stat", "--in", complex_path, "--stat", sp["stat"]]
    return gen, stat


def describe(sp: dict) -> dict:
    """JSON-ready resolved config, for provenance."""
    out = {k: v for k, v in sp.items() if k != "jobs_per_s"}
    out["params"] = params(sp).to_json()
    out["num_d_simplices"] = math.comb(sp["n"], sp["d"] + 1)
    out["job_seed"] = "rng.child_seed(workload_seed, job_index)"
    return out
