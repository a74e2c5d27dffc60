"""Repository benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload dynamic-mixed --seed 0 --seconds 20 --trace 0

Run from the repository root. Workloads (see ``workloads.py``):

- ``static``: HG, LP and GC on the FB stand-in at k=5; then, on the HST
  stand-in, GC forced through its distributed rounds at k=4 and OPT at
  k=5.
- ``dynamic-mixed``: the candidate-index build and a seeded stream of
  1000 deletions and 1000 insertions on HST at k=4, starting from the
  graph without the inserted edges.

A run starts one local Spark session (``local[nproc]``, the session
settings of ``conftest.py``), sets up its inputs five times from the
seed, makes one untimed warm-up call, then repeats passes over the
workload's operations while the next pass, at the median pass time so
far, still ends within ``--seconds`` (at least one pass). Every
operation is checked outside its timed region; an operation whose check
fails, or that trips its budget, is counted in ``failed``.

``--trace 0`` reports the end-to-end metrics: ``setup_s``, the median
set-up time, and ``request_p50_ms``, the median latency of a request
(a whole pass on ``static``, one update on ``dynamic-mixed``; see
``Workload.requests``). ``--trace 1`` makes the same run with
driver-side spans around the program's public functions and Spark's own
job, stage and plan-node metrics, and reports the per-layer metrics,
with the tracing overhead. The line before the result records the Spark
configuration, why the workload was chosen, per-operation times, |S|
per algorithm and why any operation failed.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 5
DRIVER_MEMORY = "4g"
SHUFFLE_PARTITIONS = 64


def start_spark(work: Path):
    """Local session configured like the test fixture in conftest.py;
    every file Spark or Python writes stays under ``work``."""
    tmp = work / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    os.environ["SPARK_LOCAL_DIRS"] = str(tmp)
    # Every JVM the launcher starts: no hsperfdata file in the system /tmp.
    os.environ["JAVA_TOOL_OPTIONS"] = f"-XX:-UsePerfData -Djava.io.tmpdir={tmp}"
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    )
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master local[{os.cpu_count()}] --driver-memory {DRIVER_MEMORY} "
        "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false "
        "--conf spark.ui.showConsoleProgress=false "
        f"--conf spark.local.dir={tmp} pyspark-shell"
    )
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", str(SHUFFLE_PARTITIONS))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.sql.warehouse.dir", str(work / "warehouse"))
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop the session and wait for the JVM it launched to exit."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    if gateway is None:
        return
    proc = getattr(gateway, "proc", None)
    gateway.shutdown()
    if proc is not None:
        proc.stdin.close()  # the JVM exits on end of its standard input
        try:
            proc.wait(timeout=60)
        except Exception:
            proc.kill()
            proc.wait()


def run(args, work: Path) -> tuple[dict, dict]:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    t0 = time.perf_counter()
    spark = start_spark(work)
    session_s = time.perf_counter() - t0
    try:
        import spans
        from workloads import WORKLOADS

        wl = WORKLOADS[args.workload]
        setup_times, setup_parts = [], []
        for _ in range(SETUP_REPS):
            t = time.perf_counter()
            inputs, parts = wl.setup(spark, args.seed)
            setup_times.append(time.perf_counter() - t)
            setup_parts.append(parts)
        t = time.perf_counter()
        wl.warm_up(spark, inputs)
        warmup_s = time.perf_counter() - t

        tracer = spans.Tracer() if args.trace else None
        if tracer is not None:
            tracer.install()
        passes, pass_times = [], []
        t_start = time.perf_counter()
        try:
            while not passes or (
                time.perf_counter() - t_start + statistics.median(pass_times) <= args.seconds
            ):
                t = time.perf_counter()
                ops = wl.run_pass(spark, inputs, tracer, len(passes))
                pass_times.append(time.perf_counter() - t)
                passes.append(ops)
        finally:
            if tracer is not None:
                tracer.uninstall()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        for ops in passes:
            wl.check(inputs, ops, args.seed)
        all_ops = [op for ops in passes for op in ops]
        failed = [op for op in all_ops if op.errors]

        detail = {
            "workload": wl.name,
            "why": wl.why,
            "seed": args.seed,
            "spark": {
                "master": spark.sparkContext.master,
                "nproc": os.cpu_count(),
                "driver_memory": DRIVER_MEMORY,
                "shuffle_partitions": SHUFFLE_PARTITIONS,
                "version": spark.version,
            },
            "passes": len(passes),
            "pass_s": pass_times,
            "op_s": {
                name: statistics.median(op.seconds for op in all_ops if op.name == name)
                for name in dict.fromkeys(op.name for op in all_ops)
            },
            "setup_s": setup_times,
            "session_s": session_s,
            "warmup_s": warmup_s,
            "sizes": {
                op.name: op.result.size
                for op in passes[0]
                if not op.errors and hasattr(op.result, "size")
            },
            "failures": sorted({f"{op.name}: {e}" for op in failed for e in op.errors})[:20],
        }
        if args.trace:
            metrics = layer_metrics(spark, tracer, passes, pass_times)
            metrics["setup.session_s"] = (session_s, "s")
            metrics["setup.warmup_s"] = (warmup_s, "s")
            metrics["driver.peak_rss_mb"] = (peak_rss_mb, "MB")
            for part in SETUP_PARTS:
                values = [p.get(part, 0.0) for p in setup_parts]
                metrics[part] = (statistics.median(values), "s")
        else:
            if wl.requests:
                latencies = [op.seconds for op in all_ops if op.name in wl.requests]
            else:
                latencies = pass_times
            metrics = {
                "setup_s": (statistics.median(setup_times), "s"),
                "request_p50_ms": (1000 * statistics.median(latencies), "ms"),
            }
        result = {
            "correct": not failed,
            "attempted": len(all_ops),
            "failed": len(failed),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
        return detail, result
    finally:
        stop_spark(spark)


# Self-time layers that make up a deletion's latency.
DELETE_LAYERS = (
    "updates.delete",
    "index.settle_free",
    "swap.try_swap",
    "swap.refresh",
    "index.candidates_for",
    "kernels.subset",
)
SETUP_PARTS = ("graphs.generate_s", "graphs.ingest_s", "state.build_s")
SPARK_OPS = ("hg", "lp", "gc", "gc_rounds", "opt", "index_build")


def layer_metrics(spark, tracer, passes, pass_times):
    """Per-layer metrics of a traced run, as ``{name: (value, unit)}``.
    Every name is reported on every workload; a layer a workload does
    not reach reads 0."""
    import spans

    ops = [op for p in passes for op in p]
    by_name: dict[str, list] = {}
    for op in ops:
        by_name.setdefault(op.name, []).append(op)

    t = time.perf_counter()
    spark_m = spans.spark_metrics(spark, {
        name: [f"pb-{name}-{p}" for p in range(len(passes))]
        for name in SPARK_OPS if name in by_name
    })
    store_read_s = time.perf_counter() - t
    n_pass = len(passes)
    out: dict[str, tuple[float, str]] = {}

    def put(name, value, unit):
        out[name] = (float(value), unit)

    put("trace.pass_s", statistics.median(pass_times), "s")

    def per_call(name):
        return statistics.median(op.seconds for op in by_name[name]) if name in by_name else 0.0

    for name in SPARK_OPS:
        put(f"op.{name}_s", per_call(name), "s")
        calls = len(by_name.get(name, ())) or 1
        for what, unit in (("jobs", "count"), ("stages", "count"), ("tasks", "count"), ("job_s", "s")):
            put(f"spark.{name}.{what}", spark_m.get(f"spark.{name}.{what}", 0.0) / calls, unit)

    for module in spans.MODULES + ("other",):
        put(f"executor.run_s.{module}", spark_m.get(f"executor.run_s.{module}", 0.0) / n_pass, "s")
    for kernel in ("count", "enumerate", "find_min", "index"):
        put(f"kernels.{kernel}.runs", spark_m.get(f"kernels.{kernel}.runs", 0.0) / n_pass, "count")
        put(f"kernels.{kernel}.py_s", spark_m.get(f"kernels.{kernel}.py_s", 0.0) / n_pass, "s")
    put("kernels.enumerate.rows", spark_m.get("kernels.enumerate.rows", 0.0) / n_pass, "count")
    for name in ("lp", "gc", "gc_rounds", "opt"):
        calls = len(by_name.get(name, ())) or 1
        put(f"kernels.count.runs.{name}", spark_m.get(f"kernels.count.runs.{name}", 0.0) / calls, "count")
    put("kernels.py_start_s", spark_m.get("kernels.py_start_s", 0.0) / n_pass, "s")
    put("kernels.py_init_s", spark_m.get("kernels.py_init_s", 0.0) / n_pass, "s")

    total, self_, calls, counters = tracer.total, tracer.self_, tracer.calls, tracer.counters

    def per_pass(d, key):
        return d.get(key, 0.0) / n_pass

    put("adjacency.collect_s", per_pass(total, "adjacency.collect"), "s")
    put("adjacency.calls", per_pass(calls, "adjacency.collect"), "count")
    put("adjacency.broadcast_bytes", per_pass(counters, "adjacency.broadcast_bytes"), "B")
    put("scores.collect_s", per_pass(total, "scores.collect"), "s")
    put("clique_listing.count_kcliques_s", per_pass(total, "clique_listing.count_kcliques"), "s")

    def result_stat(name, fn):
        vals = [fn(op.result) for op in by_name.get(name, ()) if not op.errors]
        return statistics.median(vals) if vals else 0.0

    put("lp.n_heap_init", result_stat("lp", lambda r: r.n_heap_init), "count")
    put("lp.n_recomputes", result_stat("lp", lambda r: r.n_recomputes), "count")
    put("lp.visited", result_stat("lp", lambda r: r.visited), "count")
    put("lp.accept_ratio", result_stat("lp", lambda r: r.size / max(1, r.n_heap_init + r.n_recomputes)), "ratio")
    put("lp.calc_find_min_s", per_pass(total, "kernels.find_min"), "s")
    put("gc.greedy_s", per_pass(total, "gc.greedy"), "s")
    put("gc.n_cliques", max(result_stat("gc", lambda r: r.n_cliques), result_stat("gc_rounds", lambda r: r.n_cliques)), "count")
    put("gc.select_distributed_s", per_pass(total, "gc.select_distributed"), "s")
    put("gc.rounds", per_pass(counters, "gc.rounds"), "count")
    put("hg.driver_s", per_pass(total, "hg.driver"), "s")
    put("hg.find_first_s", per_pass(total, "kernels.find_first"), "s")
    put("hg.accept_ratio", result_stat("hg", lambda r: r.size / max(1, r.n_inspected)), "ratio")
    put("opt.n_cliques", result_stat("opt", lambda r: r.n_cliques), "count")
    put("opt.n_cg_edges", result_stat("opt", lambda r: r.n_cg_edges), "count")
    put("mis.exact_s", per_pass(total, "mis.exact"), "s")

    build = by_name.get("index_build", [])
    put("index.build_driver_s", per_call("index_build") - spark_m.get("spark.index_build.job_s", 0.0) / max(1, len(build)), "s")
    put("index.size", per_pass(counters, "index.size"), "count")
    for name, key in (
        ("index.candidates_for", "index.candidates_for"),
        ("kernels.subset", "kernels.subset"),
        ("swap.try_swap", "swap.try_swap"),
        ("swap.refresh", "swap.refresh"),
        ("index.settle_free", "index.settle_free"),
    ):
        put(f"{name}_s", per_pass(total, key), "s")
        put(f"{name}.calls", per_pass(calls, key), "count")
    put("swap.grown", per_pass(counters, "swap.grown"), "count")
    recomputed = tracer.child_calls.get(("swap.refresh", "index.candidates_for"), 0)
    put("swap.refresh.gain_ratio", counters.get("swap.refresh.gained", 0.0) / max(1, recomputed), "ratio")
    put("updates.delete.self_s", per_pass(self_, "updates.delete"), "s")
    put("updates.insert.self_s", per_pass(self_, "updates.insert"), "s")

    for kind in ("delete", "insert"):
        lat = [op.seconds * 1e6 for op in by_name.get(kind, ())]
        put(f"updates.{kind}_us_p50", np.quantile(lat, 0.5) if lat else 0.0, "us")
        put(f"updates.{kind}_us_p99", np.quantile(lat, 0.99) if lat else 0.0, "us")
    lat = [op.seconds * 1e6 for k in ("delete", "insert") for op in by_name.get(k, ())]
    put("updates.mean_us", statistics.fmean(lat) if lat else 0.0, "us")

    # Which layer holds the slowest 1% of deletions: self-time shares.
    dels = by_name.get("delete", [])
    tail = [op for op in dels if op.seconds >= np.quantile([o.seconds for o in dels], 0.99)] if dels else []
    tail_total = sum(sum(op.layers.values()) for op in tail) or 1.0
    for layer in DELETE_LAYERS:
        share = sum(op.layers.get(layer, 0.0) for op in tail) / tail_total
        put(f"updates.delete_p99.share.{layer}", share, "ratio")

    n_spans = sum(calls.values())
    overhead = n_spans * tracer.overhead_per_span_s() + tracer.bookkeeping_s
    put("trace.spans", n_spans / n_pass, "count")
    put("trace.overhead_s", overhead / n_pass, "s")
    put("trace.overhead_frac", overhead / max(1e-9, sum(pass_times)), "ratio")
    put("trace.store_read_s", store_read_s, "s")
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    names = ("static", "dynamic-mixed")
    if args.workload not in names:
        print(f"perfbench: unknown workload {args.workload!r}; one of {names}", file=sys.stderr)
        return 2
    work = ROOT / "perfbench" / ".work" / str(os.getpid())
    try:
        detail, result = run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(detail, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
