"""One fresh process of the benchmark.

    worker.py setup WORKLOAD SIZE SEED K
        Import the package and finish the workload's first job at the
        minimum size (2 replicas), with the seed of set-up run K; print the
        seconds it took.  For the CLI workload, time the import of
        `rwcomplex.cli` only.
    worker.py run WORKLOAD SIZE SEED OUTDIR SECONDS MIN_JOBS MAX_JOBS TRACE
        Run one warm-up job, then jobs 0, 1, ... back to back until
        SECONDS of job time have passed and at least MIN_JOBS ran (at most
        MAX_JOBS); save each job's outputs under OUTDIR and print the job
        times, the reference-task times around each job (reference.py)
        and the peak RSS less the reference task's data, as JSON.  With
        TRACE=1, trace every layer, run job 0 once more, and write the
        spans to OUTDIR/trace.npz.
    worker.py cli TRACEFILE ARG...
        Run `rwcomplex ARG...` traced and dump its spans to TRACEFILE.
"""
import json
import os
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path

# Set-up time starts here, before the package is imported.
T_START = time.perf_counter()

CLI_TIMEOUT_S = 120


def setup(name: str, size: str, seed: int, k: int) -> None:
    import workloads
    sp = workloads.spec(name, size)
    if sp["kind"] == "cli":
        import rwcomplex.cli  # noqa: F401
    else:
        from rwcomplex import harness
        cfg = workloads.experiment_config(
            sp, workloads.job_seed(seed, workloads.SETUP_JOB + k), 2)
        if sp["kind"] == "clt":
            harness.run_clt(cfg)
        else:
            harness.run_stabilization(cfg, sp["k"])
    print(json.dumps({"setup_s": time.perf_counter() - T_START}))


def _cli(tracer, argv, label):
    """Run one CLI process; traced, it runs under this file's `cli` mode."""
    if tracer is None:
        cmd = [sys.executable, "-m", "rwcomplex.cli"] + argv
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=CLI_TIMEOUT_S)
    else:
        child_trace = label + ".npz"
        cmd = [sys.executable, os.path.abspath(__file__), "cli",
               child_trace] + argv
        with tracer.span("cli.process") as sp:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=CLI_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError("%s exited %d: %s" % (argv[0], proc.returncode,
                                                 proc.stderr.strip()))
    if tracer is not None:
        tracer.merge(child_trace, sp.sid)
        os.remove(child_trace)
    return proc.stdout


def run_job(sp, seed, outdir: Path, label: str, tracer, replicas=None):
    """Send one job; return its wall time.  Outputs land under outdir."""
    import workloads
    from rwcomplex import harness
    replicas = replicas or sp["replicas"]
    if sp["kind"] == "cli":
        gen, stat = workloads.cli_argv(sp, seed,
                                       str(outdir / (label + ".txt")))
        t0 = time.perf_counter()
        _cli(tracer, gen, str(outdir / (label + ".gen")))
        out = _cli(tracer, stat, str(outdir / (label + ".stat")))
        wall = time.perf_counter() - t0
        (outdir / (label + ".stat.json")).write_text(out)
        return wall
    if sp["kind"] == "clt":
        cfg = workloads.experiment_config(sp, seed, replicas,
                                          outputs=str(outdir / label))
        t0 = time.perf_counter()
        harness.run_clt(cfg)
        return time.perf_counter() - t0
    cfg = workloads.experiment_config(sp, seed, replicas)
    t0 = time.perf_counter()
    record = harness.run_stabilization(cfg, sp["k"])
    wall = time.perf_counter() - t0
    with open(outdir / (label + ".json"), "w") as fh:
        json.dump(record, fh, sort_keys=True)
    return wall


def run(name, size, seed, outdir, seconds, min_jobs, max_jobs, trace):
    import reference
    import workloads
    sp = workloads.spec(name, size)
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    tracer = None
    if trace:
        import tracing as tr
        tracer = tr.Tracer()
        tr.install(tracer)
    # The reference task's data stays resident for the whole run; what it
    # adds to the resident set is taken off the peak RSS below.
    rss0 = reference.resident_bytes()
    ref_data = reference.task_data()
    reference.measure(ref_data)
    ref_bytes = reference.resident_bytes() - rss0

    def one(j, label, replicas=None):
        seed_j = workloads.job_seed(seed, j)
        if tracer is None:
            return run_job(sp, seed_j, outdir, label, None, replicas)
        with tracer.span("bench.job"):
            return run_job(sp, seed_j, outdir, label, tracer, replicas)

    one(workloads.SETUP_JOB, "warmup", replicas=2)
    jobs = []
    busy = 0.0
    ref_before = reference.measure(ref_data)
    while (busy < seconds or len(jobs) < min_jobs) and len(jobs) < max_jobs:
        j = len(jobs)
        if tracer is not None:
            tracer.job = j
        entry = {"index": j, "seed": workloads.job_seed(seed, j)}
        t0 = time.perf_counter()
        try:
            entry["wall_s"] = one(j, "job%d" % j)
        except Exception as exc:   # a failed job is counted, not fatal
            entry["wall_s"] = time.perf_counter() - t0
            entry["error"] = "".join(
                traceback.format_exception_only(type(exc), exc)).strip()
        ref_after = reference.measure(ref_data)
        entry["ref_s"] = [ref_before, ref_after]
        ref_before = ref_after
        busy += entry["wall_s"]
        jobs.append(entry)
    result = {"jobs": jobs}
    if tracer is not None:
        # Job 0 once more, so its counts can be compared.
        tracer.job = len(jobs)
        try:
            one(0, "replay")
        except Exception as exc:
            result["replay_error"] = repr(exc)
        tracer.dump(str(outdir / "trace.npz"))
        result["replay_job"] = len(jobs)
    if sp["kind"] == "cli":
        peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss * 1024
    else:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 \
            - ref_bytes
    result["peak_rss_mb"] = peak / 1e6
    print(json.dumps(result))


def cli(trace_file, argv):
    t0 = time.perf_counter_ns()
    import rwcomplex.cli
    t1 = time.perf_counter_ns()
    import tracing as tr
    tracer = tr.Tracer()
    tr.install(tracer)
    tracer.job = 0
    tracer.add_span("cli.import", t0, t1)
    code = rwcomplex.cli.main(argv)
    tracer.dump(trace_file)
    sys.exit(code)


def main(argv):
    mode = argv[0]
    if mode == "setup":
        setup(argv[1], argv[2], int(argv[3]), int(argv[4]))
    elif mode == "run":
        run(argv[1], argv[2], int(argv[3]), argv[4], float(argv[5]),
            int(argv[6]), int(argv[7]), argv[8] == "1")
    elif mode == "cli":
        cli(argv[1], argv[2:])
    else:
        raise SystemExit("unknown mode %r" % mode)


if __name__ == "__main__":
    main(sys.argv[1:])
