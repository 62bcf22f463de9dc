"""A fixed reference task that gauges how fast the host runs right now.

The benchmark runs on shared virtual machines whose speed drifts by 25% and
more over minutes, for Python and numpy code alike (see README.md, "Host
speed").  Every job is therefore bracketed by measurements of this task in
the same process, and every set-up process by reference processes, and
times are reported rescaled to a host on which a measurement takes its
nominal time:

    time * nominal / mean(reference before, reference after)

The task does a fixed amount of the two kinds of work the package does:
numpy arithmetic on 1-MB arrays, and building dicts and sets of 9,000
tuples.  It does not touch the package and must never change: changing it
rescales every end-to-end time.  The raw wall-clock times are reported
alongside.  Run as a script, this file is the reference process.
"""
from __future__ import annotations

import resource
import subprocess
import sys
import time

import numpy as np

# About the medians of `measure()` between jobs and of `measure_process()`,
# on the machine in README.md.
NOMINAL_S = 0.006
NOMINAL_PROCESS_S = 0.3


def task_data():
    """The task's fixed inputs, resident for as long as they live."""
    # Golden-ratio sequences in (0, 1); numpy.random is not imported, since
    # the package does not use it and its modules would add to the RSS.
    k = np.arange(1 << 17) + 0.5
    a = (k * 0.6180339887498949) % 1.0 * 0.999 + 0.0005
    b = (k * 0.7548776662466927) % 1.0 * 0.999 + 0.0005
    pairs = [((i * 7919) % 65521, (i, i + 1)) for i in range(9000)]
    return a, b, np.empty_like(a), pairs


def measure(data) -> float:
    """The fastest of three back-to-back runs of the task, in seconds.

    The first run after the process has sat idle (while a CLI job or a
    set-up process ran) is slower and more erratic than the next ones.
    """
    return min(run_once(data) for _ in range(3))


def run_once(data) -> float:
    """Seconds one run of the reference task takes now."""
    a, b, out, pairs = data
    t0 = time.perf_counter()
    for _ in range(8):
        np.minimum(a, b, out=out)
        np.log(out, out=out)
        out.sum()
    for _ in range(3):
        table = dict(pairs)
        values = set(table.values())
        del table, values
    return time.perf_counter() - t0


def measure_process() -> float:
    """Seconds a fresh interpreter takes to start, import numpy and run
    `measure()`: the reference for set-up processes, whose time is mostly
    interpreter start-up and imports, which `measure()` alone does not
    track."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, __file__], check=True, timeout=60)
    return time.perf_counter() - t0


def rescale(seconds: float, before: float, after: float,
            nominal: float = NOMINAL_S) -> float:
    """`seconds` measured between two reference runs, at nominal speed."""
    return seconds * nominal / (0.5 * (before + after))


def resident_bytes() -> int:
    """Resident set size of this process now (Linux)."""
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * resource.getpagesize()


if __name__ == "__main__":
    measure(task_data())
