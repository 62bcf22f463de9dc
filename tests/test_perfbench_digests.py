"""Job 0 of every benchmark workload, run in-process at both sizes, must
reproduce the output digest recorded in perfbench/digests.json: the bytes
the benchmark pins, checked without its timed processes."""
import importlib.util
import json
import sys
from pathlib import Path
from unittest import mock

import pytest

from rwcomplex import harness
from rwcomplex.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location("perfbench_" + name,
                                                  PERFBENCH / (name + ".py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


workloads = _load("workloads")
# checks.py imports its sibling as the top-level module `workloads`
with mock.patch.dict(sys.modules, {"workloads": workloads}):
    checks = _load("checks")


def run_job(sp, seed, outdir, label, capsys):
    """perfbench/worker.py's run_job, its two CLI processes run as
    in-process calls of cli.main; the outputs land where it puts them."""
    if sp["kind"] == "cli":
        gen, stat = workloads.cli_argv(sp, seed,
                                       str(outdir / (label + ".txt")))
        assert main(gen) == 0
        capsys.readouterr()
        assert main(stat) == 0
        (outdir / (label + ".stat.json")).write_text(capsys.readouterr().out)
    elif sp["kind"] == "clt":
        harness.run_clt(workloads.experiment_config(
            sp, seed, sp["replicas"], outputs=str(outdir / label)))
    else:
        record = harness.run_stabilization(
            workloads.experiment_config(sp, seed, sp["replicas"]), sp["k"])
        with open(outdir / (label + ".json"), "w") as fh:
            json.dump(record, fh, sort_keys=True)


@pytest.mark.parametrize("size", ("smoke", "full"))
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_job0_reproduces_the_recorded_digest(name, size, tmp_path, capsys):
    sp = workloads.spec(name, size)
    want = checks.recorded_digest(sp)
    if want is None:
        pytest.skip("no digest recorded for this float environment: %s"
                    % checks.float_env())
    seed = workloads.job_seed(workloads.DEFAULT_SEED, 0)
    run_job(sp, seed, tmp_path, "job0", capsys)
    assert checks.digest(sp, tmp_path, "job0") == want
    assert checks.check_job(sp, tmp_path, {"index": 0, "seed": seed},
                            workloads.DEFAULT_SEED, True) == []
