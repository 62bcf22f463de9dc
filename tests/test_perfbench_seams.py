"""Every package name that perfbench/tracing.py wraps or counts by name
must exist where it looks for it: a renamed or deleted function would
otherwise zero a per-layer metric without any error."""
import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


tracing = _load_tracing()

NAMES = sorted(
    {"topology." + f for f in tracing.TOPOLOGY_CALLS}
    | {"topology." + f for f in tracing.ADJACENCY_BUILDERS}
    | set(tracing.HOOKS) | set(tracing.COUNTED)
    | {"perturbation." + f for f in tracing.PERTURBATION_ESTIMATES.values()}
    | {"harness._replica_fn"})


@pytest.mark.parametrize("name", NAMES)
def test_traced_name_exists(name):
    # `install` wraps a layer module's own functions and the methods a
    # class defines itself, so look the name up in those namespaces
    layer, *path = name.split(".")
    owner = importlib.import_module("rwcomplex." + layer)
    for attr in path[:-1]:
        owner = vars(owner)[attr]
    fn = vars(owner).get(path[-1])
    assert callable(fn), name
    assert fn.__module__ == "rwcomplex." + layer, name


def test_simplex_table_keeps_the_fields_the_tracer_reads():
    # the tracer's table hook reads these fields of every table built; a
    # lost field would crash a traced run, not just zero a metric
    from rwcomplex.simplices import simplex_table
    tbl = simplex_table(6, 2)
    for field in ("n", "d", "verts", "face_ranks", "cofacet_ranks"):
        assert hasattr(tbl, field), field
    fake = {}
    tracing._count_table(fake, 0, (6, 2), {}, tbl)
    assert list(fake.values()) == [tbl.verts.nbytes + tbl.face_ranks.nbytes
                                   + tbl.cofacet_ranks.nbytes]


def test_rank_hook_counts_a_coboundary_matrix():
    # the rank hook reads rank_pm1's first argument, by position or by the
    # name `matrix`, as the coboundary rows the statistics build
    import inspect
    from rwcomplex.cohomology import coboundary_rows, rank_pm1
    assert next(iter(inspect.signature(rank_pm1).parameters)) == "matrix"
    m = coboundary_rows([[0, 1, 3], [0, 2, 4]], range(5))
    for args, kwargs in (((m,), {}), ((), {"matrix": m})):
        fake = {}
        tracing._count_rank(fake, 0, args, kwargs, rank_pm1(m))
        assert fake == {(0, "cohomology.rank_calls"): 1,
                        (0, "cohomology.matrix_entries"): 10}


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", TRACING.parent / "workloads.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


workloads = _load_workloads()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_jobs_can_be_built(name):
    # the benchmark builds its jobs through these calls; a change to the
    # package that breaks them would otherwise surface only when it runs
    from rwcomplex.cli import build_parser
    from rwcomplex.harness import ExperimentConfig
    sp = workloads.spec(name, "smoke")
    seed = workloads.job_seed(workloads.DEFAULT_SEED, 0)
    if sp["kind"] == "cli":
        for argv in workloads.cli_argv(sp, seed, "complex.txt"):
            build_parser().parse_args(argv)
        return
    cfg = workloads.experiment_config(sp, seed, sp["replicas"])
    assert isinstance(cfg, ExperimentConfig)
    assert (cfg.workers, cfg.statistic) == (sp["workers"], sp["stat"])


def test_config_record_keeps_workers_and_mode():
    # the recorded stabilization-cocycle digest hashes the whole record,
    # config included, and workloads.py sets workers and mode: dropping
    # either key fails that check until the digest is recorded again
    from rwcomplex.harness import ExperimentConfig
    from rwcomplex.sampling import ModelParams, WeightDistribution
    params = ModelParams(40, 2, 1 / 40, WeightDistribution("constant", 1.0))
    cfg = ExperimentConfig(params=params, statistic="cocycle:3", replicas=2,
                           seed=1, workers=2, mode="stabilization")
    record = cfg.to_json()
    assert (record["workers"], record["mode"]) == (2, "stabilization")
