import json
import re
from pathlib import Path

import pytest

from rwcomplex.cli import (UsageError, build_parser, main, parse_config,
                           parse_weights)
from rwcomplex.sampling import ModelParams, WeightDistribution, sample_complex
from rwcomplex.simplices import read_complex
from rwcomplex.statistics import make_statistic

README = Path(__file__).resolve().parents[1] / "README.md"


def test_generate_round_trip(tmp_path):
    out = tmp_path / "c.txt"
    rc = main(["generate", "--n", "12", "--d", "2", "--lambda", "3.0",
               "--seed", "7", "--out", str(out)])
    assert rc == 0
    X = read_complex(out)
    params = ModelParams(12, 2, 3.0 / 12.0,
                         WeightDistribution("exponential", 12.0))
    want = sample_complex(params, 7)
    assert (X.present == want.present).all()
    assert (X.weights == want.weights).all()


def test_generate_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    argv = ["generate", "--n", "10", "--d", "1", "--p", "0.4", "--seed", "3"]
    main(argv + ["--out", str(a)])
    main(argv + ["--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_stat_on_file(tmp_path, capsys):
    out = tmp_path / "c.txt"
    main(["generate", "--n", "10", "--d", "1", "--p", "0.5",
          "--weights", "constant:1", "--seed", "1", "--out", str(out)])
    rc = main(["stat", "--in", str(out), "--stat", "isolated"])
    assert rc == 0
    record = json.loads(capsys.readouterr().out)
    X = read_complex(out)
    params = ModelParams(10, 1, 1.0, WeightDistribution("constant", 1.0))
    assert record["value"] == make_statistic("isolated", params).evaluate(X)


def test_exit_codes(tmp_path, capsys):
    # usage error: unknown flag
    assert main(["generate", "--n", "5", "--d", "1", "--p", "0.5",
                 "--seed", "1", "--out", "x", "--bogus"]) == 1
    # usage error: inconsistent p and lambda
    assert main(["generate", "--n", "10", "--d", "1", "--p", "0.5",
                 "--lambda", "9.0", "--seed", "1",
                 "--out", str(tmp_path / "y")]) == 1
    # runtime error: missing input file
    assert main(["stat", "--in", str(tmp_path / "nope.txt"),
                 "--stat", "nn"]) == 2
    err = capsys.readouterr().err
    assert all(line.startswith("error: ")
               for line in err.strip().splitlines())


def test_out_of_memory_is_a_runtime_error(tmp_path, capsys, monkeypatch):
    import rwcomplex.cli

    def exhausted(params, seed):
        raise MemoryError("Unable to allocate 24.5 TiB")
    monkeypatch.setattr(rwcomplex.cli, "sample_complex", exhausted)
    assert main(["generate", "--n", "3000", "--d", "3", "--lambda", "1",
                 "--seed", "1", "--out", str(tmp_path / "c.txt")]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


def test_parse_weights():
    w = parse_weights("exp:mean=2.5", 10)
    assert (w.kind, w.param) == ("exponential", 2.5)
    w = parse_weights("uniform:bound=3", 10)
    assert (w.kind, w.param) == ("uniform", 3.0)
    w = parse_weights("constant:2", 10)
    assert (w.kind, w.param) == ("constant", 2.0)
    assert parse_weights("default", 7).param == 7.0
    for bad in ("exp", "exp:m=1", "gauss:1", "uniform:bound=x"):
        with pytest.raises(UsageError):
            parse_weights(bad, 10)


def test_parse_config_defaults_and_rejects():
    text = json.dumps({"n": 20, "d": 1, "lambda": 2.0, "stat": "nn",
                       "replicas": 10, "seed": 1})
    config = parse_config(text)
    assert config.params.p == pytest.approx(0.1)
    assert config.params.dist.kind == "exponential"
    assert config.params.dist.param == 20.0
    assert config.mode == "clt"
    # non-nn statistics default to constant unit weights
    text2 = json.dumps({"n": 20, "d": 1, "p": 0.1, "stat": "isolated",
                        "replicas": 10, "seed": 1})
    assert parse_config(text2).params.dist.kind == "constant"
    with pytest.raises(UsageError) as exc:
        parse_config(json.dumps({"n": 20, "foo": 1, "bar": 2}))
    msg = str(exc.value)
    assert "foo" in msg and "bar" in msg and "stat" in msg
    with pytest.raises(UsageError):
        parse_config("not json")


def test_parse_config_flag_overrides():
    text = json.dumps({"n": 20, "d": 1, "p": 0.1, "stat": "nn",
                       "replicas": 10, "seed": 1})
    config = parse_config(text, {"replicas": 50, "seed": None})
    assert config.replicas == 50 and config.seed == 1


def test_bound_golden_value(tmp_path):
    out = tmp_path / "bound.json"
    rc = main(["bound", "--formula", "corollary", "--n", "10000", "--d", "2",
               "--lambda", "0.4", "--k", "3", "--out", str(out)])
    assert rc == 0
    record = json.loads(out.read_text())
    assert record["value"] == 0.7399378438614895
    assert record["inputs"]["sigma_sq"] == 10000.0 ** 2


def test_gamma_command_exact(capsys):
    rc = main(["gamma", "--n", "4", "--d", "1", "--p", "0.5", "--k", "2",
               "--replicas", "200", "--seed", "5", "--exact"])
    assert rc == 0
    record = json.loads(capsys.readouterr().out)
    assert record["exact"] == pytest.approx(0.71875)
    est = record["estimate"]["point_estimate"]
    assert abs(est - 0.71875) <= 3 * record["estimate"]["std_error"] + 1e-12
    assert record["analytic_bound"] >= record["exact"] - 1e-12


def test_clt_outputs_reproducible(tmp_path, capsys):
    def run(outdir, workers):
        rc = main(["clt", "--n", "15", "--d", "1", "--p", "0.3",
                   "--stat", "isolated", "--replicas", "60", "--seed", "2",
                   "--workers", str(workers), "--out", str(outdir)])
        assert rc == 0
        capsys.readouterr()
        record = json.loads((outdir / "summary.json").read_text())
        del record["meta"]  # wall time varies run to run
        return record, (outdir / "replicas.csv").read_bytes()

    r1, csv1 = run(tmp_path / "a", 1)
    r2, csv2 = run(tmp_path / "b", 4)
    r1["config"]["workers"] = r2["config"]["workers"] = None
    r1["config"]["outputs"] = r2["config"]["outputs"] = None
    r1["summary"]["csv_path"] = r2["summary"]["csv_path"] = None
    assert csv1 == csv2
    assert r1 == r2


def test_stabilization_command(tmp_path):
    out = tmp_path / "stab.json"
    rc = main(["stabilization", "--n", "8", "--d", "2", "--p", "0.25",
               "--stat", "nn-alpha:1.5", "--replicas", "30", "--seed", "4",
               "--k", "1", "--out", str(out)])
    assert rc == 0
    record = json.loads(out.read_text())
    assert record["estimates"]["delta_tilde"]["point_estimate"] == 0.0
    assert record["bound_add_one"] >= record["bound_corollary"] * 0  # present


def test_cov_nn_command(capsys):
    rc = main(["cov-nn", "--n", "30", "--d", "1", "--replicas", "200",
               "--inner", "16", "--seed", "9"])
    assert rc == 0
    record = json.loads(capsys.readouterr().out)
    assert abs(record["cov"] - record["cov_exact"]) <= \
        4 * record["std_error"]


def _all_cli_flags():
    parser = build_parser()
    flags = set()
    for action in parser._actions:
        if isinstance(action, type(parser._subparsers._group_actions[0])):
            for sub in action.choices.values():
                for a in sub._actions:
                    for s in a.option_strings:
                        if s.startswith("--"):
                            flags.add(s)
    return flags


def test_readme_documents_every_flag():
    text = README.read_text()
    missing = sorted(f for f in _all_cli_flags()
                     if f not in text and f != "--help")
    assert not missing, "flags absent from README: %s" % missing
    # and every subcommand is mentioned
    for cmd in ("generate", "stat", "clt", "variance", "stabilization",
                "gamma", "bound", "cov-nn"):
        assert re.search(r"\b%s\b" % re.escape(cmd), text), cmd
