import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from rwcomplex.cli import (UsageError, build_parser, main, parse_config,
                           parse_weights)
from rwcomplex.harness import ExperimentConfig
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
    import rwcomplex.sampling

    def exhausted(params, seed):
        raise MemoryError("Unable to allocate 24.5 TiB")
    # generate looks sample_complex up in sampling when it runs
    monkeypatch.setattr(rwcomplex.sampling, "sample_complex", exhausted)
    assert main(["generate", "--n", "3000", "--d", "3", "--lambda", "1",
                 "--seed", "1", "--out", str(tmp_path / "c.txt")]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


def test_oversized_instance_fails_fast(tmp_path):
    import rwcomplex
    env = dict(os.environ,
               PYTHONPATH=str(Path(rwcomplex.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "rwcomplex.cli", "generate", "--n", "3000",
         "--d", "3", "--lambda", "1", "--seed", "1",
         "--out", str(tmp_path / "c.txt")],
        capture_output=True, text=True, timeout=30, env=env)
    assert proc.returncode == 2
    err = proc.stderr.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: C(3000, 4) = ")
    assert not (tmp_path / "c.txt").exists()


@pytest.mark.parametrize("argv", [
    "gamma --n 10 --d 2 --lambda 1 --k 2 --replicas 0 --seed 1",
    "gamma --n 10 --d 2 --lambda 1 --k 2 --replicas 1 --seed 1",
    "cov-nn --n 12 --d 2 --replicas 0 --seed 1",
    "cov-nn --n 12 --d 2 --replicas 1 --seed 1",
    "bound --formula main --n 10 --d 400 --lambda 1 --k 1",
    "bound --formula corollary --n 1000 --d 2 --lambda 10 --k 200",
    "gamma --n 10 --d 2 --lambda 10 --k 400 --replicas 2 --seed 1"])
def test_too_few_replicas_and_overflow_fail_with_one_error_line(argv):
    # a fresh process, so a traceback or a numpy warning on stderr shows
    import rwcomplex
    env = dict(os.environ,
               PYTHONPATH=str(Path(rwcomplex.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-m", "rwcomplex.cli"]
                          + argv.split(), capture_output=True, text=True,
                          timeout=60, env=env)
    assert proc.returncode == 2
    err = proc.stderr.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert proc.stdout == ""
    if "--replicas 0" in argv or "--replicas 1" in argv:
        assert err == ["error: need at least 2 replicas"]


IMPORT_BUDGET = """
import json, sys
import rwcomplex.cli
loaded = [sorted(sys.modules)]
for argv in json.loads(sys.argv[1]):
    assert rwcomplex.cli.main(argv) == 0, argv
    loaded.append(sorted(sys.modules))
print(json.dumps(loaded))
"""


def test_each_command_imports_only_what_it_runs(tmp_path):
    # fresh processes: one for `bound`, one for `generate` then `stat`
    import rwcomplex
    env = dict(os.environ,
               PYTHONPATH=str(Path(rwcomplex.__file__).resolve().parents[1]))

    def loaded(*argvs):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_BUDGET, json.dumps(argvs)],
            capture_output=True, text=True, timeout=60, env=env)
        assert proc.returncode == 0, proc.stderr
        return [set(m) for m in json.loads(proc.stdout.splitlines()[-1])]
    path = str(tmp_path / "c.txt")
    on_import, bound = loaded(["bound", "--formula", "main", "--n", "100",
                               "--d", "2", "--lambda", "1", "--k", "2",
                               "--out", str(tmp_path / "b.json")])
    assert "numpy" not in on_import
    assert "numpy" not in bound and "rwcomplex.bounds" in bound
    _, generate, stat = loaded(
        ["generate", "--n", "30", "--d", "2", "--lambda", "2", "--seed", "1",
         "--out", path],
        ["stat", "--in", path, "--stat", "isolated", "--out",
         str(tmp_path / "s.json")])
    assert "rwcomplex.sampling" in generate
    assert not generate & {"rwcomplex.harness", "rwcomplex.perturbation",
                           "rwcomplex.statistics", "rwcomplex.bounds",
                           "numpy.ma"}
    assert "rwcomplex.statistics" in stat
    assert not stat & {"rwcomplex.harness", "rwcomplex.perturbation",
                       "rwcomplex.bounds"}


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


def test_non_finite_inputs_fail_with_one_error_line(tmp_path, capsys):
    def fails(argv, code):
        assert main(argv) == code, argv
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err
        assert captured.out == ""
    gen = ["generate", "--n", "10", "--d", "2", "--lambda", "1", "--seed",
           "1", "--out", str(tmp_path / "c.txt")]
    for spec in ("exp:mean=nan", "exp:mean=inf", "uniform:bound=inf",
                 "constant:nan"):
        with pytest.raises(UsageError):
            parse_weights(spec, 10)
        fails(gen + ["--weights", spec], 1)
    assert not (tmp_path / "c.txt").exists()
    path = tmp_path / "nan.txt"
    path.write_text("n=5 d=1\n0,1,1.0\n0,2,nan\n")
    fails(["stat", "--in", str(path), "--stat", "isolated"], 2)
    fails(["bound", "--formula", "main", "--n", "100", "--d", "2",
           "--lambda", "nan", "--k", "2"], 2)


def test_non_finite_alpha_fails_with_one_error_line(tmp_path, capsys):
    path = str(tmp_path / "c.txt")
    assert main(["generate", "--n", "8", "--d", "2", "--lambda", "1",
                 "--seed", "1", "--out", path]) == 0
    capsys.readouterr()
    run = ["--n", "8", "--d", "2", "--lambda", "1", "--replicas", "4",
           "--seed", "1", "--out", str(tmp_path / "out")]
    for alpha in ("nan", "inf", "-inf"):
        spec = "nn-alpha:" + alpha
        for argv in (["stat", "--in", path, "--stat", spec],
                     ["clt", "--stat", spec] + run,
                     ["stabilization", "--stat", spec, "--k", "1"] + run):
            assert main(argv) == 2, argv
            captured = capsys.readouterr()
            assert captured.err.strip().splitlines() == \
                ["error: alpha must be finite and positive"], argv
            assert captured.out == ""
    assert not (tmp_path / "out").exists()


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
    def run(outdir):
        rc = main(["clt", "--n", "15", "--d", "1", "--p", "0.3",
                   "--stat", "isolated", "--replicas", "60", "--seed", "2",
                   "--out", str(outdir)])
        assert rc == 0
        capsys.readouterr()
        record = json.loads((outdir / "summary.json").read_text())
        del record["meta"]  # wall time varies run to run
        return record, (outdir / "replicas.csv").read_bytes()

    r1, csv1 = run(tmp_path / "a")
    r2, csv2 = run(tmp_path / "b")
    r1["config"]["outputs"] = r2["config"]["outputs"] = None
    r1["summary"]["csv_path"] = r2["summary"]["csv_path"] = None
    assert csv1 == csv2
    assert r1 == r2


def _fails_once(argv, capsys, code, *words):
    assert main(argv) == code, argv
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert all(w in err[0] for w in words), (err, words)
    assert captured.out == ""


def test_workers_flag_and_field_are_refused(tmp_path, capsys):
    # replicas run serially; the knob is gone from the CLI and the config
    run = ["clt", "--n", "15", "--d", "1", "--p", "0.3", "--stat",
           "isolated", "--replicas", "4", "--seed", "2"]
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"workers": 2}))
    _fails_once(run + ["--workers", "2"], capsys, 1, "--workers")
    _fails_once(run + ["--config", str(config)], capsys, 1,
                "unknown fields: workers")


@pytest.mark.parametrize("spec", ["cocycle:0", "betti:-1", "local:isolated:0",
                                  "local:cocycle-ratio:0"])
def test_bound_below_one_is_refused_when_parsed(tmp_path, capsys, spec):
    # refused with the statistic, not in the first replica
    params = ModelParams(15, 1, 0.3, WeightDistribution("constant", 1.0))
    with pytest.raises(ValueError, match="^M must be >= 1$"):
        ExperimentConfig(params=params, statistic=spec, replicas=4, seed=2)
    _fails_once(["clt", "--n", "15", "--d", "1", "--p", "0.3", "--stat",
                 spec, "--replicas", "4", "--seed", "2", "--out",
                 str(tmp_path / "out")], capsys, 2, "M must be >= 1")
    assert not (tmp_path / "out").exists()


CONFIG = {"n": 20, "d": 1, "p": 0.1, "stat": "isolated", "replicas": 4,
          "seed": 1}


@pytest.mark.parametrize("mode", ["variance", "bogus"])
def test_config_mode_field_is_refused(tmp_path, capsys, mode):
    # the field selected nothing: a valid name ran the CLT all the same
    path = tmp_path / "c.json"
    path.write_text(json.dumps({**CONFIG, "mode": mode}))
    _fails_once(["clt", "--config", str(path)], capsys, 1,
                "unknown fields: mode")


@pytest.mark.parametrize("field, value", [
    ("n", 20.7), ("replicas", True), ("n", "x"), ("d", 1.5),
    ("seed", None), ("replicas", [4]), ("seed", float("inf"))])
def test_config_integers_name_the_field(tmp_path, capsys, field, value):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({**CONFIG, field: value}))
    _fails_once(["clt", "--config", str(path)], capsys, 1,
                "field %s must be an integer" % field)


def test_config_integers_keep_integral_values():
    config = parse_config(json.dumps(
        {**CONFIG, "n": 20.0, "d": "1", "replicas": 4, "seed": 2 ** 64 - 1}))
    assert (config.params.n, config.params.d, config.replicas,
            config.seed) == (20, 1, 4, 2 ** 64 - 1)
    assert all(type(v) is int for v in (config.params.n, config.params.d,
                                        config.replicas, config.seed))


def test_stabilization_command(tmp_path):
    out = tmp_path / "stab.json"
    rc = main(["stabilization", "--n", "8", "--d", "2", "--p", "0.25",
               "--stat", "nn-alpha:1.5", "--replicas", "30", "--seed", "4",
               "--k", "1", "--out", str(out)])
    assert rc == 0
    record = json.loads(out.read_text())
    assert record["estimates"]["delta_tilde"]["point_estimate"] == 0.0
    assert record["bound_add_one"] >= record["bound_corollary"] * 0  # present


NN_STABILIZATION = ["stabilization", "--n", "12", "--d", "2", "--p", "1.0",
                    "--replicas", "3", "--seed", "1"]


def test_stabilization_nn_refuses_a_ball_that_leaves_a_face_uncovered(
        tmp_path, capsys):
    # B_1(tau, X) leaves faces of the complete complex uncovered, where nn
    # has no value: one error line that says so and what to use instead
    out = tmp_path / "stab.json"
    _fails_once(NN_STABILIZATION + ["--stat", "nn", "--k", "1", "--out",
                                    str(out)], capsys, 2,
                "B_k(tau, X) at k=1", "leaves a face uncovered",
                "use a larger k or nn-alpha:<a>")
    assert not out.exists()


@pytest.mark.parametrize("stat, k", [("nn", "3"), ("nn-alpha:5", "1")])
def test_stabilization_nn_runs_where_the_ball_covers_or_caps(tmp_path, stat,
                                                              k):
    out = tmp_path / "stab.json"
    assert main(NN_STABILIZATION + ["--stat", stat, "--k", k, "--out",
                                    str(out)]) == 0
    assert json.loads(out.read_text())["k"] == int(k)


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
