"""Spans and counts taken around the package's public functions.

`install` replaces every public function and public method of each module
(layer) with a wrapper that records a span, and rebinds every module-level
name that refers to a wrapped function, so calls are traced in the
namespaces that make them.  Nothing under `src/` changes.

Scalar helpers that run once per simplex inside Python loops are not
given spans: a span would cost more than the call.  Their time stays with
the calling layer.  `unrank_colex` is one of them but is still counted.

A span is (id, parent, name, start ns, end ns, job).  Spans and counts
stay in per-thread buffers in memory and are written out by `dump`.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import threading
import time

import numpy as np

LAYERS = ("rng", "simplices", "sampling", "topology", "cohomology",
          "statistics", "perturbation", "bounds", "harness", "cli")

UNTRACED = {"simplices.rank_colex", "simplices.faces",
            "simplices.check_simplex", "simplices.WeightedComplex.has",
            "simplices.WeightedComplex.weight_of"}
COUNTED = {"simplices.unrank_colex": "simplices.unrank_calls"}

# Counts that must repeat exactly for a fixed job.
REPEATING = ("rng.draws", "sampling.sweeps", "topology.present_scanned",
             "cohomology.matrix_entries", "simplices.unrank_calls")

SPAN_FIELDS = 6   # id, parent, name index, start ns, end ns, job


class _ThreadState:
    def __init__(self):
        self.stack = []
        self.spans = []
        self.counts = {}


# Gauges hold one size per key (a table's bytes); other counts add up.
GAUGE = "simplices.table_bytes"


def _add(counts, key, value):
    if key[1].startswith(GAUGE):
        counts[key] = value
    else:
        counts[key] = counts.get(key, 0) + value


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


class Tracer:
    """In-memory span and count recorder.  `job` tags everything recorded
    until it is changed; jobs run one after another."""

    def __init__(self):
        self.names = []
        self._name_index = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads = []
        self.job = -1
        self._main = self._state()

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = _ThreadState()
            self._local.st = st
            with self._lock:
                self._threads.append(st)
        return st

    def intern(self, name: str) -> int:
        idx = self._name_index.get(name)
        if idx is None:
            idx = self._name_index[name] = len(self.names)
            self.names.append(name)
        return idx

    def _parent(self, stack) -> int:
        # A worker thread's outermost span hangs under the span the main
        # thread is blocked in (the harness call that started the pool).
        if stack:
            return stack[-1]
        return self._main.stack[-1] if self._main.stack else 0

    def wrap(self, fn, name: str, count=None):
        idx = self.intern(name)
        ids = self._ids
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st = self._state()
            stack = st.stack
            parent = self._parent(stack)
            sid = next(ids)
            stack.append(sid)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                st.spans.append((sid, parent, idx, t0, t1, self.job))
            if count is not None:
                count(st.counts, self.job, args, kwargs, out)
            return out
        return traced

    def counter(self, fn, key: str):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            _add(self._state().counts, (self.job, key), 1)
            return fn(*args, **kwargs)
        return counted

    def span(self, name: str):
        """Context manager for a span opened by the benchmark itself."""
        return _Span(self, name)

    def add_span(self, name: str, t0: int, t1: int) -> None:
        """Record a span measured before the tracer existed."""
        st = self._state()
        st.spans.append((next(self._ids), self._parent(st.stack),
                         self.intern(name), t0, t1, self.job))

    def merge(self, path: str, parent: int) -> None:
        """Adopt the spans and counts a traced child process dumped, under
        the current job; its outermost spans are re-parented under
        `parent`."""
        spans, names, counts = load(path)
        st = self._state()
        rows = spans.tolist()
        remap = {row[0]: next(self._ids) for row in rows}
        for sid, par, idx, t0, t1, _ in rows:
            st.spans.append((remap[sid], remap.get(par, parent),
                             self.intern(names[idx]), t0, t1, self.job))
        for (_, key), value in counts.items():
            _add(st.counts, (self.job, key), value)

    def dump(self, path: str) -> None:
        rows = []
        counts = {}
        for st in self._threads:
            rows.extend(st.spans)
            for k, v in st.counts.items():
                _add(counts, k, v)
        spans = np.array(rows, dtype=np.int64).reshape(-1, SPAN_FIELDS)
        np.savez(path, spans=spans, names=np.array(self.names, dtype=str),
                 counts=json.dumps([[j, k, v] for (j, k), v
                                    in counts.items()]))


def load(path: str):
    """(spans, names, counts) as `Tracer.dump` wrote them."""
    with np.load(path) as z:
        spans = z["spans"]
        names = [str(s) for s in z["names"]]
        counts = {(j, k): v for j, k, v in json.loads(str(z["counts"]))}
    return spans, names, counts


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.idx = tracer.intern(name)

    def __enter__(self):
        tr = self.tracer
        st = tr._state()
        self.parent = tr._parent(st.stack)
        self.sid = next(tr._ids)
        st.stack.append(self.sid)
        self.t0 = time.perf_counter_ns()
        return self

    def __exit__(self, *exc):
        t1 = time.perf_counter_ns()
        st = self.tracer._state()
        st.stack.pop()
        st.spans.append((self.sid, self.parent, self.idx, self.t0, t1,
                         self.tracer.job))
        return False


# ---------------------------------------------------------------------------
# counts taken at the wrappers

def _count_draws(counts, job, args, kwargs, out):
    _add(counts, (job, "rng.draws"), int(np.size(_arg(args, kwargs, 1,
                                                       "counters"))))


def _count_presence(counts, job, args, kwargs, out):
    _add(counts, (job, "sampling.presence_draws"),
         int(np.size(_arg(args, kwargs, 1, "ranks"))))
    _add(counts, (job, "sampling.present"), int(np.count_nonzero(out)))


def _count_calls(key):
    def count(counts, job, args, kwargs, out):
        _add(counts, (job, key), 1)
    return count


def _count_table(counts, job, args, kwargs, out):
    nbytes = (out.verts.nbytes + out.face_ranks.nbytes
              + out.cofacet_ranks.nbytes)
    _add(counts, (job, "%s[%d,%d]" % (GAUGE, out.n, out.d)), nbytes)


def _count_rank(counts, job, args, kwargs, out):
    m = _arg(args, kwargs, 0, "matrix")
    _add(counts, (job, "cohomology.rank_calls"), 1)
    _add(counts, (job, "cohomology.matrix_entries"),
         len(m) * len(m[0]) if m else 0)


# Public topology functions that rebuild the face adjacency of their
# complex argument, one pass over its present simplices each.
ADJACENCY_BUILDERS = {"bfs_distances", "ball_k", "m_ball", "components"}


def _count_topology(fname):
    calls = _count_calls("topology.calls." + fname)
    if fname not in ADJACENCY_BUILDERS:
        return calls

    def count(counts, job, args, kwargs, out):
        calls(counts, job, args, kwargs, out)
        _add(counts, (job, "topology.present_scanned"),
             _arg(args, kwargs, 0, "X").num_present)
    return count


HOOKS = {
    "rng.uniforms": _count_draws,
    "sampling.PairedSample.presence": _count_presence,
    "sampling.PairedSample.resampled": _count_calls("sampling.sweeps"),
    "simplices.simplex_table": _count_table,
    "cohomology.rank_pm1": _count_rank,
    "perturbation.local_add_one_cost":
        _count_calls("perturbation.local_add_one_calls"),
}


def install(tracer: Tracer) -> None:
    """Wrap every public function and method of every layer module."""
    mods = {layer: importlib.import_module("rwcomplex." + layer)
            for layer in LAYERS}
    wrapped = {}   # id(original) -> (original, wrapper)
    for layer, mod in mods.items():
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or \
                    getattr(obj, "__module__", None) != mod.__name__:
                continue
            name = "%s.%s" % (layer, attr)
            if inspect.isclass(obj):
                for mname, meth in list(vars(obj).items()):
                    full = "%s.%s" % (name, mname)
                    if mname.startswith("_") or full in UNTRACED \
                            or not inspect.isfunction(meth):
                        continue
                    setattr(obj, mname,
                            tracer.wrap(meth, full, HOOKS.get(full)))
            elif callable(obj) and name not in UNTRACED:
                if name in COUNTED:
                    w = tracer.counter(obj, COUNTED[name])
                else:
                    hook = HOOKS.get(name)
                    if layer == "topology":
                        hook = _count_topology(attr)
                    w = tracer.wrap(obj, name, hook)
                wrapped[id(obj)] = (obj, w)
    import rwcomplex
    for mod in [rwcomplex] + list(mods.values()):
        for attr, obj in list(vars(mod).items()):
            hit = wrapped.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, attr, hit[1])
    # Replica spans: the harness builds one callable per run and calls it
    # once per replica index, on the worker threads.
    harness = mods["harness"]
    make_fn = harness._replica_fn

    def replica_fn(config):
        return tracer.wrap(make_fn(config), "harness.replica")
    harness._replica_fn = replica_fn


# ---------------------------------------------------------------------------
# analysis

def self_times(spans: np.ndarray) -> np.ndarray:
    """Per span: its duration minus the time its child spans cover (the
    union of the children's intervals, since children on worker threads
    may overlap)."""
    ids = spans[:, 0]
    dur = spans[:, 4] - spans[:, 3]
    order = np.lexsort((spans[:, 3], spans[:, 1]))
    covered = {}
    cur_parent = None
    reach = 0
    for i in order.tolist():
        par, t0, t1 = int(spans[i, 1]), int(spans[i, 3]), int(spans[i, 4])
        if par != cur_parent:
            cur_parent, reach = par, t0
        lo = max(t0, reach)
        if t1 > lo:
            covered[par] = covered.get(par, 0) + (t1 - lo)
            reach = t1
    cov = np.array([covered.get(int(s), 0) for s in ids], dtype=np.int64)
    return dur - cov


def tail_index(n: int) -> int:
    """Index, in ascending order, of the highest percentile that has at
    least ten samples beyond it (needs n >= 11)."""
    return n - 11


TOPOLOGY_CALLS = ("bfs_distances", "connected_within", "ball_k", "m_ball",
                  "components", "component_view")
PERTURBATION_ESTIMATES = {"delta_tilde": "estimate_delta_tilde",
                          "gamma": "estimate_gamma",
                          "rho_probe": "estimate_rho_probe",
                          "variance_J": "estimate_variance_and_J",
                          "addone_mean": "estimate_addone_mean"}


def layer_metrics(spans: np.ndarray, names, counts, jobs: int,
                  workers: int) -> dict:
    """Per-layer metrics of the timed jobs 0..jobs-1, as values per job
    (ratios and percentiles excepted).  Job -1 is the warm-up job."""
    selfs = self_times(spans)
    dur = spans[:, 4] - spans[:, 3]
    name_of = np.array(names, dtype=object)[spans[:, 2]]
    layer_of = np.array([n.split(".")[0] for n in name_of], dtype=object)
    job = spans[:, 5]
    timed = (job >= 0) & (job < jobs)

    def total(key):
        return sum(v for (j, k), v in counts.items()
                   if 0 <= j < jobs and k == key)

    def busy(layer):
        return float(selfs[timed & (layer_of == layer)].sum()) / 1e9 / jobs

    def inclusive(name, mask=timed):
        return float(dur[mask & (name_of == name)].sum()) / 1e9

    out = {}
    for layer in ("rng", "sampling", "topology", "cohomology", "statistics"):
        out[layer + ".busy_s"] = busy(layer)
    out["rng.draws"] = total("rng.draws") / jobs
    out["sampling.sweeps"] = total("sampling.sweeps") / jobs
    draws = total("sampling.presence_draws")
    out["sampling.present_per_draw"] = \
        total("sampling.present") / draws if draws else 0.0

    out["simplices.table_s"] = inclusive("simplices.simplex_table") / jobs
    out["simplices.setup_table_s"] = inclusive("simplices.simplex_table",
                                               job == -1)
    tables = {k: v for (_, k), v in counts.items() if k.startswith(GAUGE)}
    out["simplices.table_mb"] = sum(tables.values()) / 1e6
    out["simplices.unrank_calls"] = total("simplices.unrank_calls") / jobs
    out["simplices.io_s"] = (inclusive("simplices.read_complex")
                             + inclusive("simplices.write_complex")) / jobs

    calls = {f: total("topology.calls." + f) for f in TOPOLOGY_CALLS}
    out["topology.calls"] = sum(
        v for (j, k), v in counts.items()
        if 0 <= j < jobs and k.startswith("topology.calls.")) / jobs
    for f, v in calls.items():
        out["topology.calls." + f] = v / jobs
    out["topology.present_scanned"] = \
        total("topology.present_scanned") / jobs

    out["cohomology.rank_calls"] = total("cohomology.rank_calls") / jobs
    out["cohomology.matrix_entries"] = \
        total("cohomology.matrix_entries") / jobs

    # An evaluation is an entry into the statistics layer from another
    # layer; parsing a statistic string is not one.
    layer_by_id = dict(zip(spans[:, 0].tolist(), layer_of.tolist()))
    parent_layer = np.array([layer_by_id.get(p) for p in
                             spans[:, 1].tolist()], dtype=object)
    entry = timed & (layer_of == "statistics") \
        & (parent_layer != "statistics") \
        & (name_of != "statistics.make_statistic")
    out["statistics.evaluations"] = float(entry.sum()) / jobs

    for key, fname in PERTURBATION_ESTIMATES.items():
        out["perturbation.%s_s" % key] = \
            inclusive("perturbation." + fname) / jobs
    out["perturbation.local_add_one_calls"] = \
        total("perturbation.local_add_one_calls") / jobs

    job_walls = dur[timed & (name_of == "bench.job")]
    replica = np.sort(dur[timed & (name_of == "harness.replica")]) / 1e9
    out["harness.self_s"] = busy("harness")
    out["harness.reduce_s"] = inclusive("harness.kolmogorov_distance") / jobs
    clt_wall = float(dur[timed & (name_of == "harness.run_clt")].sum()) / 1e9
    out["harness.worker_utilization"] = \
        float(replica.sum()) / (workers * clt_wall) if clt_wall else 0.0
    out["harness.replica_p50_ms"] = \
        float(np.median(replica)) * 1e3 if replica.size else 0.0
    out["harness.replica_tail_ms"] = \
        float(replica[tail_index(replica.size)]) * 1e3 \
        if replica.size >= 11 else 0.0

    out["cli.import_s"] = inclusive("cli.import") / jobs
    out["cli.process_s"] = inclusive("cli.process") / jobs

    in_layers = timed & np.isin(layer_of, LAYERS)
    out["trace.accounted_frac"] = \
        float(selfs[in_layers].sum()) / float(job_walls.sum())
    return out


def repeat_mismatches(counts, first: int, again: int) -> list:
    """Repeating counts that differ between two runs of the same job."""
    return [(key, counts.get((first, key), 0), counts.get((again, key), 0))
            for key in REPEATING
            if counts.get((first, key), 0) != counts.get((again, key), 0)]
