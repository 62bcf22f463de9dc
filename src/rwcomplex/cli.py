"""Batch command-line front-end.

Subcommands: generate, stat, clt, variance, stabilization, gamma, bound,
cov-nn.  Configs are JSON, bulk replica data is CSV, and every run echoes
its fully resolved configuration for reproducibility.  Exit codes: 0 on
success, 1 on usage errors, 2 on runtime failures.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import TYPE_CHECKING, List, Optional

# Each command imports the package modules it runs inside its own body, so
# a command loads only what it uses (`bound` loads no numpy).
if TYPE_CHECKING:
    from .harness import ExperimentConfig
    from .sampling import WeightDistribution


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# flag head -> (law, the text before its number)
_LAWS = {"exp": ("exponential", "mean="), "uniform": ("uniform", "bound="),
         "constant": ("constant", "")}


def parse_weights(spec: str, n: int) -> WeightDistribution:
    """Weight law flag: exp:mean=<m> | uniform:bound=<b> | constant:<c>."""
    from .sampling import WeightDistribution
    if spec == "default":
        return WeightDistribution("exponential", float(n))
    head, _, rest = spec.partition(":")
    kind, key = _LAWS.get(head, (None, None))
    if kind and rest.startswith(key):
        try:
            return WeightDistribution(kind, float(rest[len(key):]))
        except ValueError:
            pass
    raise UsageError("cannot parse weight distribution %r" % spec)


def _resolve_p(n: int, p: Optional[float], lam: Optional[float]) -> float:
    """p and lambda = n p are interchangeable; if both appear they must
    agree."""
    if p is None and lam is None:
        raise UsageError("one of --p or --lambda is required")
    if lam is not None and n < 1:       # lambda / n has no value
        raise ValueError("need 1 <= d < n")
    if p is not None and lam is not None and abs(p - lam / n) > 1e-12:
        raise UsageError("inconsistent --p and --lambda: p != lambda/n")
    return p if p is not None else lam / n


def _int_field(obj: dict, key: str) -> int:
    """obj[key] read by int(), refusing what int() would fail on or change
    (a fraction, a bool) with a usage error that names the field."""
    value = obj[key]
    try:
        if isinstance(value, bool) or (isinstance(value, float)
                                       and not value.is_integer()):
            raise ValueError
        return int(value)
    except (TypeError, ValueError, OverflowError):
        raise UsageError("field %s must be an integer, got %s"
                         % (key, json.dumps(value)))


def parse_config(text: str, overrides: Optional[dict] = None
                 ) -> ExperimentConfig:
    """Build an ExperimentConfig from a JSON document plus flag overrides.

    Recognized fields: n, d, p or lambda, stat, replicas, seed, dist and
    out.  Unknown fields are rejected; every offending field is listed.
    n, d, replicas and seed are read by int(); a value it would refuse or
    change (20.7, true, "x") is a usage error naming the field.
    """
    from .harness import ExperimentConfig
    from .sampling import ModelParams, WeightDistribution
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError("config is not valid JSON: %s" % exc)
    if not isinstance(obj, dict):
        raise UsageError("config must be a JSON object")
    obj = dict(obj)
    obj.update({k: v for k, v in (overrides or {}).items() if v is not None})
    known = {"n", "d", "p", "lambda", "stat", "replicas", "seed", "dist",
             "out"}
    bad = sorted(set(obj) - known)
    missing = sorted(k for k in ("n", "d", "stat", "replicas", "seed")
                     if k not in obj)
    if bad or missing:
        msgs = []
        if bad:
            msgs.append("unknown fields: %s" % ", ".join(bad))
        if missing:
            msgs.append("missing fields: %s" % ", ".join(missing))
        raise UsageError("; ".join(msgs))
    n, d, replicas, seed = (_int_field(obj, k)
                            for k in ("n", "d", "replicas", "seed"))
    for key in ("p", "lambda"):
        if type(obj.get(key)) not in (int, float, type(None)):
            raise UsageError("field %s must be a number, got %s"
                             % (key, json.dumps(obj[key])))
    p = _resolve_p(n, obj.get("p"), obj.get("lambda"))
    if "dist" in obj and obj["dist"] is not None:
        dist = obj["dist"]
        dist = WeightDistribution.from_json(dist) if isinstance(dist, dict) \
            else parse_weights(str(dist), n)
    elif str(obj["stat"]).startswith("nn"):
        dist = WeightDistribution("exponential", float(n))
    else:
        dist = WeightDistribution("constant", 1.0)
    params = ModelParams(n, d, p, dist)
    return ExperimentConfig(
        params=params, statistic=str(obj["stat"]), replicas=replicas,
        seed=seed, outputs=obj.get("out"))


def _emit(record: dict, out: Optional[str]) -> None:
    text = json.dumps(record, indent=2, sort_keys=True,
                      allow_nan=False) + "\n"
    if out:
        Path(out).parent.mkdir(parents=True, exist_ok=True)
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _model_flags(sub: argparse.ArgumentParser, required: bool) -> None:
    sub.add_argument("--n", type=int, required=required)
    sub.add_argument("--d", type=int, required=required)
    sub.add_argument("--p", type=float)
    sub.add_argument("--lambda", type=float, dest="lam",
                     help="lambda = n p, alternative to --p")


def _experiment_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON config file; flags override it")
    sub.add_argument("--stat", help="statistic selection string")
    _model_flags(sub, False)
    sub.add_argument("--weights", help="exp:mean=<m> | uniform:bound=<b> | "
                                       "constant:<c>")
    sub.add_argument("--replicas", type=int)
    sub.add_argument("--seed", type=int)
    sub.add_argument("--out", help="output directory")


def _config_from_args(args) -> ExperimentConfig:
    base = "{}"
    if args.config:
        base = Path(args.config).read_text()
    overrides = {"stat": args.stat, "n": args.n, "d": args.d, "p": args.p,
                 "lambda": args.lam, "replicas": args.replicas,
                 "seed": args.seed, "out": args.out, "dist": args.weights}
    return parse_config(base, overrides)


def build_parser() -> _Parser:
    parser = _Parser(prog="rwcomplex",
                     description="Monte Carlo toolkit for randomly weighted "
                                 "d-complexes")
    subs = parser.add_subparsers(dest="command", required=True)

    g = subs.add_parser("generate", help="sample one complex and write it "
                        "in the text format")
    _model_flags(g, True)
    g.add_argument("--weights", default="default")
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--out", required=True)

    s = subs.add_parser("stat", help="evaluate a statistic on a complex file")
    s.add_argument("--in", dest="infile", required=True)
    s.add_argument("--stat", required=True)
    s.add_argument("--out")

    c = subs.add_parser("clt", help="replicate a statistic and measure the "
                        "Kolmogorov distance to N(0,1)")
    _experiment_flags(c)

    v = subs.add_parser("variance", help="nn variance against the "
                        "(1 + d/2) C(n, d) asymptote")
    _experiment_flags(v)

    st = subs.add_parser("stabilization", help="estimate stabilization "
                         "inputs and run the bound pipeline")
    _experiment_flags(st)
    st.add_argument("--k", type=int, required=True)

    ga = subs.add_parser("gamma", help="<=k-path connection probability")
    _model_flags(ga, True)
    ga.add_argument("--k", type=int, required=True)
    ga.add_argument("--replicas", type=int, required=True)
    ga.add_argument("--seed", type=int, required=True)
    ga.add_argument("--exact", action="store_true",
                    help="also compute the exact value (small instances)")
    ga.add_argument("--out")

    b = subs.add_parser("bound", help="evaluate a bound formula")
    b.add_argument("--formula", required=True,
                   choices=["main", "add-one", "corollary"])
    b.add_argument("--n", type=int, required=True)
    b.add_argument("--d", type=int, required=True)
    b.add_argument("--lambda", type=float, dest="lam", required=True)
    b.add_argument("--k", type=int, required=True)
    b.add_argument("--J", type=float, default=1.0)
    b.add_argument("--sigma-sq", default="auto:n^d",
                   help="a number, or auto:n^d")
    b.add_argument("--delta", type=float, default=0.0)
    b.add_argument("--rho", type=float, default=0.0)
    b.add_argument("--gamma", type=float, default=0.0)
    b.add_argument("--C", type=float, default=1.0)
    b.add_argument("--out")

    cv = subs.add_parser("cov-nn", help="covariance of nearest face-weights "
                         "at an adjacent pair")
    cv.add_argument("--n", type=int, required=True)
    cv.add_argument("--d", type=int, required=True)
    cv.add_argument("--replicas", type=int, required=True)
    cv.add_argument("--inner", type=int, default=256)
    cv.add_argument("--seed", type=int, required=True)
    cv.add_argument("--out")
    return parser


def _cmd_generate(args) -> int:
    from .sampling import ModelParams, sample_complex
    from .simplices import write_complex
    p = _resolve_p(args.n, args.p, args.lam)
    dist = parse_weights(args.weights, args.n)
    params = ModelParams(args.n, args.d, p, dist)
    X = sample_complex(params, args.seed)
    write_complex(args.out, X)
    return 0


def _cmd_stat(args) -> int:
    from .sampling import ModelParams, WeightDistribution
    from .simplices import read_complex
    from .statistics import make_statistic
    X = read_complex(args.infile)
    # the model parameters only carry (n, d) context for the grammar here
    params = ModelParams(X.n, X.d, 1.0,
                         WeightDistribution("constant", 1.0))
    stat = make_statistic(args.stat, params)
    _emit({"statistic": args.stat, "n": X.n, "d": X.d,
           "value": stat.evaluate(X)}, args.out)
    return 0


def _cmd_clt(args) -> int:
    """clt and variance: one summary of replicated values."""
    from . import harness
    config = _config_from_args(args)
    run = harness.run_variance_check if args.command == "variance" \
        else harness.run_clt
    _emit({"config": config.to_json(), "summary": run(config).to_json()},
          None)
    return 0


def _cmd_stabilization(args) -> int:
    from . import harness
    config = _config_from_args(args)
    record = harness.run_stabilization(config, args.k)
    _emit(record, args.out)
    return 0


def _cmd_gamma(args) -> int:
    from . import bounds, topology
    from .perturbation import estimate_gamma
    from .sampling import ModelParams, WeightDistribution
    p = _resolve_p(args.n, args.p, args.lam)
    params = ModelParams(args.n, args.d, p,
                         WeightDistribution("constant", 1.0))
    # a bad k, then an --exact past the enumeration guard, before replicas
    record = {"analytic_bound": bounds.gamma_bound(args.n, args.d,
                                                   params.lam, args.k)}
    if args.exact:
        record["exact"] = topology.gamma_exact(params, args.k)
    record["estimate"] = estimate_gamma(params, args.k, args.replicas,
                                        args.seed).to_json()
    _emit(record, args.out)
    return 0


def _cmd_bound(args) -> int:
    from dataclasses import asdict
    from . import bounds
    if args.sigma_sq == "auto:n^d":
        sigma_sq = float(args.n) ** args.d
    else:
        sigma_sq = float(args.sigma_sq)
    inputs = bounds.BoundInputs(n=args.n, d=args.d, lam=args.lam, k=args.k,
                                sigma_sq=sigma_sq, J=args.J,
                                delta=args.delta, rho=args.rho,
                                gamma=args.gamma, C=args.C)
    fn = {"main": bounds.bound_main, "add-one": bounds.bound_add_one,
          "corollary": bounds.bound_corollary}[args.formula]
    record = asdict(inputs)
    record["lambda"] = record.pop("lam")
    _emit({"formula": args.formula, "inputs": record, "value": fn(inputs),
           "note": "bound up to universal constant C"}, args.out)
    return 0


def _cmd_cov_nn(args) -> int:
    from . import harness
    record = harness.run_cov_nn(args.n, args.d, args.replicas, args.inner,
                                args.seed)
    _emit(record, args.out)
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "stat": _cmd_stat,
    "clt": _cmd_clt,
    "variance": _cmd_clt,
    "stabilization": _cmd_stabilization,
    "gamma": _cmd_gamma,
    "bound": _cmd_bound,
    "cov-nn": _cmd_cov_nn,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 1
    try:
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 1
    except (ValueError, KeyError, OSError, MemoryError,
            OverflowError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
