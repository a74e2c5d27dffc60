"""Per-layer tracing from outside the program.

Two sources, neither of which edits the program:

- Driver-side spans. ``Tracer.install`` replaces module attributes of
  the program's public functions (including names bound by
  ``from ... import``) with wrappers that time each call. Spans nest on
  one stack; a span's self time is its duration minus the time its
  child spans cover. Every span opened inside ``Tracer.op`` belongs to
  that operation, so an operation's self time can be split by layer.
  Executor code is unaffected: tasks import the program afresh.
- Spark's own stores, read after the traced pass: job, stage and task
  counts per operation (each operation runs under its own job group),
  stage ``executorRunTime`` grouped by the call site's module, and the
  SQL plan-node metrics of every ``MapInPandas`` node, keyed by the
  Python function the plan names.
"""
from __future__ import annotations

import functools
import pickle
import re
import time
from collections import defaultdict
from contextlib import contextmanager

# (module path, attribute, span name). Names bound by ``from x import f``
# are patched in the importing module too, because calls there bypass x.
SPANS = [
    ("repro.graphs.adjacency", "collect_out_adjacency", "adjacency.collect"),
    ("repro.core.scores", "collect_scores", "scores.collect"),
    ("repro.core.lp", "collect_scores", "scores.collect"),
    ("repro.core.clique_listing", "count_kcliques", "clique_listing.count_kcliques"),
    ("repro.core.kernels", "find_min_clique", "kernels.find_min"),
    ("repro.core.kernels", "find_first_clique", "kernels.find_first"),
    ("repro.core.kernels", "cliques_in_subset", "kernels.subset"),
    ("repro.core.gc", "greedy_by_score", "gc.greedy"),
    ("repro.core.gc", "select_distributed", "gc.select_distributed"),
    ("repro.core.hg", "hg_driver_from_oriented", "hg.driver"),
    ("repro.core.opt", "exact_mis", "mis.exact"),
    ("repro.dynamic.index", "build_index_spark", "index.build"),
    ("repro.dynamic.index", "candidates_for", "index.candidates_for"),
    ("repro.dynamic.index", "settle_free", "index.settle_free"),
    ("repro.dynamic.swap", "refresh_candidates", "swap.refresh"),
    ("repro.dynamic.updates", "refresh_candidates", "swap.refresh"),
    ("repro.dynamic.swap", "try_swap", "swap.try_swap"),
    ("repro.dynamic.updates", "try_swap", "swap.try_swap"),
    ("repro.dynamic.updates", "insert_edge", "updates.insert"),
    ("repro.dynamic.updates", "delete_edge", "updates.delete"),
]


def _on_result(name, ret, counters):
    """Counters taken from a traced call's return value."""
    if name == "adjacency.collect":
        counters["adjacency.broadcast_bytes"] += len(pickle.dumps(ret))
    elif name == "gc.select_distributed":
        counters["gc.rounds"] += ret[1]
    elif name == "swap.refresh":
        counters["swap.refresh.gained"] += len(ret)
    elif name == "swap.try_swap":
        counters["swap.grown"] += ret
    elif name == "index.build":
        counters["index.size"] += ret


class Tracer:
    """In-memory span recorder; see the module docstring."""

    def __init__(self) -> None:
        self.stack: list[list] = []  # [name, start, child_time]
        self.total: dict[str, float] = defaultdict(float)
        self.self_: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.child_calls: dict[tuple[str, str], int] = defaultdict(int)
        self.counters: dict[str, float] = defaultdict(float)
        self.op_self: dict[str, float] | None = None
        self.bookkeeping_s = 0.0  # time spent in _on_result hooks
        self._patched: list[tuple[object, str, object]] = []

    def _enter(self, name: str) -> None:
        if self.stack:
            self.child_calls[(self.stack[-1][0], name)] += 1
        self.stack.append([name, time.perf_counter(), 0.0])

    def _exit(self) -> None:
        name, t0, child = self.stack.pop()
        dur = time.perf_counter() - t0
        if self.stack:
            self.stack[-1][2] += dur
        self.total[name] += dur
        self.self_[name] += dur - child
        self.calls[name] += 1
        if self.op_self is not None:
            self.op_self[name] += dur - child

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._enter(name)
            try:
                ret = fn(*args, **kwargs)
            finally:
                self._exit()
            t = time.perf_counter()
            _on_result(name, ret, self.counters)
            self.bookkeeping_s += time.perf_counter() - t
            return ret

        return traced

    @contextmanager
    def op(self, name: str):
        """Root span of one operation; yields its self-time-by-layer dict."""
        self.op_self = defaultdict(float)
        self._enter(name)
        try:
            yield self.op_self
        finally:
            self._exit()
            self.op_self = None

    def install(self) -> None:
        import importlib

        for mod_name, attr, name in SPANS:
            mod = importlib.import_module(mod_name)
            orig = getattr(mod, attr)
            self._patched.append((mod, attr, orig))
            setattr(mod, attr, self.wrap(name, orig))

    def uninstall(self) -> None:
        while self._patched:
            mod, attr, orig = self._patched.pop()
            setattr(mod, attr, orig)

    def overhead_per_span_s(self, n: int = 20000) -> float:
        """Cost of one traced call over a plain one, by calibration."""

        def noop():
            return None

        traced = self.wrap("trace.calibrate", noop)
        t = time.perf_counter()
        for _ in range(n):
            noop()
        plain = time.perf_counter() - t
        t = time.perf_counter()
        for _ in range(n):
            traced()
        cost = (time.perf_counter() - t - plain) / n
        for d in (self.total, self.self_, self.calls):
            d.pop("trace.calibrate", None)
        return max(cost, 0.0)


# ---- Spark stores ---------------------------------------------------------

MODULES = ("adjacency", "scores", "clique_listing", "lp", "gc", "hg", "opt", "index")

MODULE_OF_OP = {"gc_rounds": "gc", "index_build": "index"}

# MapInPandas function name (as the plan prints it) -> kernel. Both
# LP's FindMin fan-out and the index build name their function ``run``,
# so those are told apart by the operation.
KERNEL_OF = {"count_batches": "count", "enum_batches": "enumerate"}
RUN_KERNEL_OF_OP = {"lp": "find_min", "index_build": "index"}

_UNIT_S = {"ms": 1e-3, "s": 1.0, "m": 60.0, "h": 3600.0}


def _metric_total(text: str) -> float:
    """Total of a formatted SQL metric: a plain number, or
    ``total (min, med, max ...)\\n8.9 s (...)`` for timings."""
    line = text.strip().splitlines()[-1]
    m = re.match(r"([\d.,]+)\s*([a-zA-Z]*)", line)
    if m is None:
        return 0.0
    value = float(m.group(1).replace(",", ""))
    return value * _UNIT_S.get(m.group(2), 1.0)


def _seq(jseq) -> list:
    it = jseq.iterator()
    out = []
    while it.hasNext():
        out.append(it.next())
    return out


def spark_metrics(spark, groups: dict[str, list[str]]) -> dict[str, float]:
    """Spark metrics summed per operation; ``groups`` maps an operation
    name to the job groups its calls ran under."""
    sc = spark.sparkContext
    tracker = sc.statusTracker()
    store = sc._jsc.sc().statusStore()
    sql = spark._jsparkSession.sharedState().statusStore()
    executions = _seq(sql.executionsList())
    # A job's call site is the one of the SQL execution it ran for; jobs
    # that adaptive execution submits carry no Python call site themselves.
    job_site = {
        int(j): e.description() for e in executions for j in _seq(e.jobs().keySet().toList())
    }
    out: dict[str, float] = defaultdict(float)
    job_op: dict[int, str] = {}
    for op, names in groups.items():
        for jid in [j for g in names for j in tracker.getJobIdsForGroup(g)]:
            job_op[jid] = op
            job = store.job(jid)
            out[f"spark.{op}.jobs"] += 1
            out[f"spark.{op}.stages"] += job.numCompletedStages()
            out[f"spark.{op}.tasks"] += job.numCompletedTasks()
            if job.submissionTime().isDefined() and job.completionTime().isDefined():
                ms = job.completionTime().get().getTime() - job.submissionTime().get().getTime()
                out[f"spark.{op}.job_s"] += ms / 1e3
            info = tracker.getJobInfo(jid)
            for sid in info.stageIds if info else ():
                stage = store.lastStageAttempt(sid)
                if str(stage.status()) != "COMPLETE":
                    continue
                # Actions Python reaches through Java (localCheckpoint, count)
                # have a Java call site; they belong to the operation's module.
                site = re.search(r"(\w+)\.py:\d+", job_site.get(jid, stage.name()))
                module = site.group(1) if site else MODULE_OF_OP.get(op, op)
                module = module if module in MODULES else "other"
                out[f"executor.run_s.{module}"] += stage.executorRunTime() / 1e3

    for execution in executions:
        jobs = [int(j) for j in _seq(execution.jobs().keySet().toList())]
        ops = {job_op[j] for j in jobs if j in job_op}
        if len(ops) != 1:
            continue
        op = ops.pop()
        values = sql.executionMetrics(execution.executionId())
        for node in _seq(sql.planGraph(execution.executionId()).allNodes()):
            if node.name() != "MapInPandas":
                continue
            fn = re.match(r"MapInPandas (\w+)\(", node.desc())
            fn = fn.group(1) if fn else "?"
            kernel = KERNEL_OF.get(fn, RUN_KERNEL_OF_OP.get(op, "other"))
            metric = {}
            for m in _seq(node.metrics()):
                v = values.get(m.accumulatorId())
                if v.isDefined():
                    metric[m.name()] = _metric_total(v.get())
            run_s = metric.get("time to run Python workers", 0.0)
            if run_s <= 0:
                continue  # node not executed (its stage was reused)
            out[f"kernels.{kernel}.runs"] += 1
            out[f"kernels.{kernel}.runs.{op}"] += 1
            out[f"kernels.{kernel}.py_s"] += run_s
            out[f"kernels.{kernel}.rows"] += metric.get("number of output rows", 0.0)
            out["kernels.py_start_s"] += metric.get("time to start Python workers", 0.0)
            out["kernels.py_init_s"] += metric.get("time to initialize Python workers", 0.0)
    return out
