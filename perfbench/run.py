"""rwcomplex benchmark: one workload per invocation.

    python3 perfbench/run.py --workload clt-nn --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload clt-nn --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --smoke
    python3 perfbench/run.py --record-digests

Run from the root of a source tree; the package is imported from `src/`.
The last line of standard output is the result object; the line before it
holds failures, job counts and provenance.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_RUNS = 5
MIN_JOBS = 21          # so that job_tail_s is at least the median
WORKER_TIMEOUT_S = 150
SETUP_TIMEOUT_S = 60

E2E_UNITS = {"setup_s": "s", "replicas_per_s": "1/s", "job_p50_s": "s",
             "job_tail_s": "s", "peak_rss_mb": "MB"}
LAYER_UNITS = {"_s": "s", "_ms": "ms", "_mb": "MB", "_frac": "ratio",
               "utilization": "ratio", "per_draw": "ratio"}


class BenchError(Exception):
    pass


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


def _worker(args, timeout) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "worker.py")] + args,
                          capture_output=True, text=True, env=_env(),
                          timeout=timeout)
    if proc.returncode != 0:
        raise BenchError("worker %s exited %d:\n%s"
                         % (args[0], proc.returncode, proc.stderr[-4000:]))
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise BenchError("worker %s printed no result" % args[0])


def _run_pass(sp, seed, outdir, seconds, min_jobs, max_jobs, trace):
    return _worker(["run", sp["name"], sp["size"], str(seed), str(outdir),
                    repr(float(seconds)), str(min_jobs), str(max_jobs),
                    "1" if trace else "0"], WORKER_TIMEOUT_S)


def _unit(name: str) -> str:
    for suffix, unit in LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def provenance(sp, seed) -> dict:
    import numpy
    import workloads
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    src = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src.update(path.relative_to(SRC).as_posix().encode())
        src.update(path.read_bytes())
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "cpu": cpu, "git_commit": commit,
            "src_sha256": src.hexdigest(), "workload_seed": seed,
            "config": workloads.describe(sp)}


def _check(sp, outdir, result, seed):
    import checks
    problems = checks.check_jobs(sp, outdir, result["jobs"], seed)
    return [(job["index"], p) for job, p in zip(result["jobs"], problems)
            if p]


def _rescaled(jobs) -> list:
    """Job wall times at the reference task's nominal speed."""
    import reference
    return [reference.rescale(j["wall_s"], *j["ref_s"]) for j in jobs]


def _timings(sp, setups, walls) -> dict:
    import tracing
    walls = sorted(walls)
    n = len(walls)
    return {
        "setup_s": statistics.median(setups),
        "replicas_per_s": n * sp["replicas"] / sum(walls),
        "job_p50_s": statistics.median(walls),
        "job_tail_s": walls[tracing.tail_index(n)],
    }


def measure(sp, seed, seconds):
    """End-to-end metrics from untraced fresh processes.  Each set-up
    process is bracketed by reference processes and each job by runs of
    the reference task, and its time is rescaled to their nominal speed
    (reference.py)."""
    import reference
    outdir = OUT / sp["name"]
    raw_setups, setups = [], []
    before = reference.measure_process()
    for k in range(SETUP_RUNS):
        raw = _worker(["setup", sp["name"], sp["size"], str(seed), str(k)],
                      SETUP_TIMEOUT_S)["setup_s"]
        after = reference.measure_process()
        raw_setups.append(raw)
        setups.append(reference.rescale(raw, before, after,
                                        reference.NOMINAL_PROCESS_S))
        before = after
    res = _run_pass(sp, seed, outdir, seconds, MIN_JOBS, 10 ** 6, False)
    failures = _check(sp, outdir, res, seed)
    n = len(res["jobs"])
    metrics = _timings(sp, setups, _rescaled(res["jobs"]))
    metrics["peak_rss_mb"] = res["peak_rss_mb"]
    refs = [r for j in res["jobs"] for r in j["ref_s"]]
    info = {"jobs": n, "job_tail_percentile": 100.0 * (n - 10) / n,
            "setup_runs": setups,
            "wall_clock": _timings(sp, raw_setups,
                                   [j["wall_s"] for j in res["jobs"]]),
            "reference_s": {"nominal": reference.NOMINAL_S,
                            "median": statistics.median(refs),
                            "min": min(refs), "max": max(refs)}}
    return metrics, n, failures, info


def measure_traced(sp, seed, seconds):
    """Per-layer metrics: the same fixed job list untraced, then traced."""
    import tracing
    jobs = max(2, round(seconds * sp["jobs_per_s"]))
    plain_dir, traced_dir = OUT / (sp["name"] + "-plain"), OUT / sp["name"]
    plain = _run_pass(sp, seed, plain_dir, 0, jobs, jobs, False)
    traced = _run_pass(sp, seed, traced_dir, 0, jobs, jobs, True)
    failures = _check(sp, plain_dir, plain, seed) \
        + _check(sp, traced_dir, traced, seed)
    spans, names, counts = tracing.load(str(traced_dir / "trace.npz"))
    metrics = tracing.layer_metrics(spans, names, counts, jobs,
                                    sp["workers"])
    metrics["trace.overhead_frac"] = \
        sum(_rescaled(traced["jobs"])) / sum(_rescaled(plain["jobs"])) - 1.0
    mismatches = tracing.repeat_mismatches(counts, 0, traced["replay_job"])
    if "replay_error" in traced:
        mismatches.append(("replay", traced["replay_error"], None))
    info = {"jobs": jobs, "repeat_mismatches": mismatches}
    return metrics, 2 * jobs, failures, info


def run_workload(name, size, seed, seconds, trace):
    """(info line, result line) of one workload."""
    import checks
    import workloads
    try:
        sp = workloads.spec(name, size)
    except KeyError as exc:
        raise BenchError(str(exc))
    for stale in (OUT / name, OUT / (name + "-plain")):
        shutil.rmtree(stale, ignore_errors=True)
    if trace:
        metrics, attempted, failures, extra = measure_traced(sp, seed,
                                                             seconds)
        units = {k: _unit(k) for k in metrics}
    else:
        metrics, attempted, failures, extra = measure(sp, seed, seconds)
        units = E2E_UNITS
    correct = not failures and not extra.get("repeat_mismatches")
    result = {"correct": correct, "attempted": attempted,
              "failed": len(failures),
              "metrics": {k: {"value": v, "unit": units[k]}
                          for k, v in metrics.items()}}
    info = {"workload": name, "size": size, "seed": seed, "trace": trace,
            "failed_frac": len(failures) / attempted,
            "failures": failures[:10],
            "digest_checked": seed == workloads.DEFAULT_SEED
            and checks.recorded_digest(sp) is not None}
    info.update(extra)
    info["provenance"] = provenance(sp, seed)
    return info, result


def corrupt(sp, outdir: Path, label: str) -> None:
    """Damage one output of a finished job, as a faulty program might."""
    if sp["kind"] == "clt":
        path = outdir / label / "replicas.csv"
        lines = path.read_text().splitlines()
        index, value = lines[1].split(",")
        lines[1] = "%s,%r" % (index, float(value) + 1.0)
    elif sp["kind"] == "stabilization":
        path = outdir / (label + ".json")
        record = json.loads(path.read_text())
        record["estimates"]["variance"]["point_estimate"] += 1.0
        lines = [json.dumps(record, sort_keys=True)]
    else:
        path = outdir / (label + ".txt")
        lines = path.read_text().splitlines()
        parts = lines[1].split(",")
        parts[-1] = repr(float(parts[-1]) * 1.5)
        lines[1] = ",".join(parts)
    path.write_text("\n".join(lines) + "\n")


def smoke() -> bool:
    """Every workload at tiny sizes, untraced and traced, then the checker
    self-test: one corrupted output per workload must count as failed."""
    import checks
    import workloads
    ok = True
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            info, result = run_workload(name, "smoke", workloads.DEFAULT_SEED,
                                        0.5, trace)
            ok &= result["correct"]
            print(json.dumps({"workload": name, "trace": trace,
                              "correct": result["correct"],
                              "attempted": result["attempted"],
                              "failures": info["failures"],
                              "repeat_mismatches":
                                  info.get("repeat_mismatches")}))
        sp = workloads.spec(name, "smoke")
        job0 = {"index": 0,
                "seed": workloads.job_seed(workloads.DEFAULT_SEED, 0)}
        corrupt(sp, OUT / name, "job0")
        # No digest here: the content checks alone must catch it.
        caught = checks.check_job(sp, OUT / name, job0, None, True)
        ok &= bool(caught)
        print(json.dumps({"workload": name, "self_test": "corrupted job 0",
                          "counted_failed": bool(caught),
                          "problems": caught}))
    return ok


def record_digests() -> None:
    """Write digests.json from job 0 at the default seed, both sizes."""
    import checks
    import workloads
    table = {"seed": workloads.DEFAULT_SEED,
             "float_env": checks.float_env()}
    for size in ("full", "smoke"):
        table[size] = {}
        for name in workloads.WORKLOADS:
            sp = workloads.spec(name, size)
            outdir = OUT / ("digest-" + name)
            shutil.rmtree(outdir, ignore_errors=True)
            res = _run_pass(sp, workloads.DEFAULT_SEED, outdir, 0, 1, 1,
                            False)
            problems = checks.check_job(sp, outdir, res["jobs"][0], None,
                                        True)
            if problems:
                raise BenchError("%s/%s job 0 fails its checks: %s"
                                 % (size, name, problems))
            table[size][name] = checks.digest(sp, outdir, "job0")
    checks.DIGESTS.write_text(json.dumps(table, indent=2, sort_keys=True)
                              + "\n")
    print(json.dumps(table))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes, every workload, checker self-test")
    ap.add_argument("--record-digests", action="store_true",
                    help="rewrite digests.json from this source tree")
    args = ap.parse_args(argv)
    try:
        if not (SRC / "rwcomplex" / "__init__.py").is_file():
            raise BenchError("no package source under %s" % SRC)
        sys.path.insert(0, str(SRC))
        if args.smoke:
            return 0 if smoke() else 1
        if args.record_digests:
            record_digests()
            return 0
        if not args.workload:
            raise BenchError("--workload is required")
        info, result = run_workload(args.workload, "full", args.seed,
                                    args.seconds, args.trace)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
