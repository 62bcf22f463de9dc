"""The error contract of `rwcomplex`, checked as a whole over cli.main(argv).

Argument vectors are drawn for every subcommand from each flag's grammar,
with near-miss and boundary values, malformed config files and malformed
complex files, at sizes small enough that each example runs in
milliseconds.  Every run must exit 0, 1 or 2 without raising.  A failure
writes exactly one stderr line, starting with `error:`, and no `--out`
file; a success writes only strict JSON (no NaN or Infinity)."""
import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from rwcomplex.cli import main
from rwcomplex.simplices import read_complex


def _strict(text):
    def refuse(const):
        raise ValueError("non-finite JSON constant %s" % const)
    return json.loads(text, parse_constant=refuse)


# Each flag has a pool of valid values and a pool of near misses.  An
# example is all valid, valid but for one flag, or a free mix, so that the
# runs that succeed are exercised as well as the ones that fail.

_OMIT = object()        # a flag left out (a near miss of a required one)


def _pools(m):
    """flag -> (valid values, near misses), m being the drawn n."""
    lam_edge = ["0", "1e-12", repr(m - 1e-9), str(m), repr(m + 0.5), "-1",
                "nan"]
    return {
        "--n": (["6", "8"], ["0", "1", "2", "-1", "x", "2.5", ""]),
        "--d": (["1", "2"], ["0", str(m - 1), str(m), str(m + 1)]),
        "--p": (["0.3", "1"], ["0", "1e-12", "1.5", "-0.1", "inf"]),
        "--lambda": (["1", "2.5"], lam_edge),
        "--k": (["1", "2"], [str(k) for k in (-1, 0, m, m + 1)]),
        "--replicas": (["2", "3"], ["0", "1", "-1"]),
        "--seed": (["0", "7", "-1", str(2 ** 64 + 3)], ["x", ""]),
        "--stat": (["isolated", "nn", "nn-alpha:0.5", "cocycle:2",
                    "betti:1", "local:isolated:1", "local:cocycle-ratio:2"],
                   ["nn-alpha:0", "nn-alpha:inf", "cocycle:0", "cocycle:x",
                    "local:bogus:1", "bogus", ""]),
        "--weights": (["exp:mean=1", "uniform:bound=2", "constant:1",
                       "default"],
                      ["exp:mean=1e-300", "exp:mean=1e308", "exp:mean=0",
                       "uniform:bound=0", "constant:-1", "constant:1e308",
                       "gauss:mean=1", ""]),
        "--inner": (["1", "3"], ["0", "-2"]),
        "--formula": (["main", "add-one", "corollary"], ["bogus"]),
        "--number": (["0", "1", "0.5"], ["1e308", "1e-300", "-1", "nan",
                                         "inf"]),
        "--sigma-sq": (["auto:n^d", "1", "0.5"], ["0", "-1", "nan", "x"]),
    }


# command -> (required flags, optional flags); --p/--lambda are handled
# apart, as one of them is needed
_COMMANDS = {
    "generate": (["--n", "--d", "--seed"], ["--weights"]),
    "stat": (["--stat"], []),
    "clt": (["--n", "--d", "--stat", "--replicas", "--seed"], ["--weights"]),
    "variance": (["--n", "--d", "--stat", "--replicas", "--seed"],
                 ["--weights"]),
    "stabilization": (["--n", "--d", "--stat", "--replicas", "--seed",
                       "--k"], ["--weights"]),
    "gamma": (["--n", "--d", "--k", "--replicas", "--seed"], []),
    "bound": (["--formula", "--n", "--d", "--lambda", "--k"],
              ["--J", "--delta", "--rho", "--gamma", "--C", "--sigma-sq"]),
    "cov-nn": (["--n", "--d", "--replicas", "--seed"], ["--inner"]),
}
_DENSITY = ("generate", "clt", "variance", "stabilization", "gamma")

_CONFIG = st.one_of(
    st.fixed_dictionaries({}, optional={
        "n": st.sampled_from([6, 0, 2.5, True, "x", None, 10 ** 30]),
        "d": st.sampled_from([1, 2, 6, -1, 1.0, "1"]),
        "p": st.sampled_from([0.5, 1, 0, 2, "x", None, [0.5]]),
        "lambda": st.sampled_from([1, 0, 6, "1", None]),
        "stat": st.sampled_from(["isolated", "cocycle:2", "nn", 5, None]),
        "replicas": st.sampled_from([2, 3, 0, 1, 2.0, "2", None]),
        "seed": st.sampled_from([1, -1, 2 ** 70, 1.5, "1", None]),
        "dist": st.sampled_from([
            "constant:1", "exp:mean=2", "bogus", 3, [1],
            {"kind": "exponential", "param": 1.0},
            {"kind": "exponential"}, {"kind": "gauss", "param": 1.0},
            {"kind": "uniform", "param": "x"},
            {"kind": "constant", "param": 1.0, "cap": "x"}]),
        "out": st.sampled_from([None, 3]),
        "workers": st.just(2),
        "bogus": st.just(1)}).map(json.dumps),
    st.sampled_from(["", "{", "[]", "3", "null", '"x"', "{\"n\": 4,}",
                     "\xff"]))

_COMPLEX = st.one_of(
    st.tuples(
        st.sampled_from(["n=5 d=1", "n=5 d=2", "n=4", "n=x d=1", "",
                         "n=5 d=0", "n=3 d=3", "d=1 n=5", "n=5d=1"]),
        st.lists(st.sampled_from([
            "0,1,1.0", "1,2,0.5", "0,2,2.0", "0,1,2,1.0", "2,3,4,0.5",
            "0,0,1.0", "1,0,1.0", "0,9,1.0", "-1,2,1.0", "0,1,-1",
            "0,1,nan", "0,1,inf", "0,1", "a,b,c", "0,1,1.0,2", "",
            " 0 , 3 , 1e-300 "]), max_size=4))
    .map(lambda t: "\n".join((t[0],) + tuple(t[1])) + "\n"),
    st.sampled_from(["\xff\xfe", "n=5 d=1\n" + "0,1,1.0\n" * 2]))


@st.composite
def argv_and_files(draw):
    """(argv with {tmp} placeholders, {file name: text}, the --out path
    or None)."""
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    required, optional = _COMMANDS[command]
    mode = draw(st.sampled_from(["valid", "one-off", "mixed"]))
    m = draw(st.sampled_from([6, 8]))
    flags = required + [f for f in optional if draw(st.booleans())]
    if command in _DENSITY:
        flags += draw(st.sampled_from([["--p"], ["--lambda"],
                                       ["--p", "--lambda"]]))
    off = draw(st.integers(0, len(flags) - 1)) if mode == "one-off" else -1
    pools = _pools(m)
    argv, files = [command], {}
    for i, flag in enumerate(flags):
        valid, edge = pools[flag if flag in pools else "--number"]
        near = i == off or (mode == "mixed" and draw(st.booleans()))
        if flag == "--n" and not near:
            value = str(m)
        else:
            value = draw(st.sampled_from(
                edge + ([_OMIT] if flag in required else []) if near
                else valid))
        if value is not _OMIT:
            argv += [flag, value]
    if command == "stat":
        source = draw(st.sampled_from(["file"] * 3 + ["missing", "dir"]))
        if source == "file":
            files["c.txt"] = draw(st.one_of(
                st.builds(lambda d, seed: ("generate", d, seed),
                          st.sampled_from([1, 2]), st.integers(0, 9)),
                st.builds(lambda d, seed: ("generate", d, seed),
                          st.sampled_from([1, 2]), st.integers(0, 9)),
                _COMPLEX))
        argv += ["--in", {"file": "{tmp}/c.txt", "missing": "{tmp}/none.txt",
                          "dir": "{tmp}"}[source]]
    if command in ("clt", "variance", "stabilization") and \
            draw(st.integers(0, 3)) == 0:
        files["config.json"] = draw(_CONFIG)
        argv += ["--config", "{tmp}/config.json"]
    if command == "gamma" and draw(st.booleans()):
        argv.append("--exact")
    out = None
    if command == "generate" or draw(st.booleans()):
        # generate writes into an existing directory; the others make it
        out = "{tmp}/" + ("c-out.txt" if command == "generate"
                          else "out/result")
        argv += ["--out", out]
    return argv, files, out


@settings(max_examples=500, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=argv_and_files())
def test_every_command_keeps_the_error_contract(case):
    template, files, out_template = case
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in files.items():
            if isinstance(text, tuple):     # a complex that generate wrote
                _, d, seed = text
                assert main(["generate", "--n", "7", "--d", str(d), "--p",
                             "0.5", "--seed", str(seed), "--out",
                             str(Path(tmp, name))]) == 0
            else:
                Path(tmp, name).write_text(text)
        argv = [a.replace("{tmp}", tmp) for a in template]
        out = out_template and Path(out_template.replace("{tmp}", tmp))
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            code = main(argv)
        err = stderr.getvalue().splitlines()
        assert code in (0, 1, 2), (argv, code)
        if code:
            assert len(err) == 1 and err[0].startswith("error: "), (argv,
                                                                  err)
            assert stdout.getvalue() == "", argv
            assert out is None or not out.exists(), argv
            return
        assert err == [], argv
        if stdout.getvalue():
            _strict(stdout.getvalue())
        if argv[0] == "generate":
            read_complex(out)
        elif out is not None:
            outputs = [out] if out.is_file() else sorted(out.glob("*.json"))
            assert outputs, argv
            for path in outputs:
                _strict(path.read_text())
