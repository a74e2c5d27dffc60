"""L / LP — Algorithm 3, the lightweight implementation.

Produces the same S as GC (Theorem 4 — exactly, because we fix the
total clique order to ``(s_c(C), member tuple)`` everywhere) without
ever storing the full clique set:

1. the prepared graph (``clique_listing.prepare``): node scores from
   one counting fan-out (no cliques stored), the score-based total
   ordering and the DAG it orients;
2. ``HeapInit``: for every source node in parallel (Spark
   ``mapInPandas``), ``FindMin`` — the minimum-score clique rooted
   there, with the score-driven pruning strategy (LP) or without (L);
3. ``Calculation``: driver min-heap — pop the global minimum; if its
   members are still valid add it to S, otherwise re-run ``FindMin``
   for its source over the remaining valid nodes and push the result.

Step 3's correctness: scores are static, so a still-valid stored local
minimum remains the minimum over the shrinking candidate set; the heap
top is therefore always the global minimum remaining clique.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterator

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.core import clique_listing, kernels
from repro.core.budgets import Budget, SimulatedOOM, SimulatedOOT, translate_spark_error
from repro.core.clique_listing import PreparedGraph
from repro.core.scores import collect_scores  # noqa: F401  only for perfbench/spans.py


@dataclass
class LPResult:
    status: str
    S: list[tuple[int, ...]]
    n_heap_init: int = 0
    n_recomputes: int = 0
    visited: int = 0  # FindMin recursion candidates — pruning metric

    @property
    def size(self) -> int:
        return len(self.S)


def lp(
    spark: SparkSession,
    edges_df: DataFrame,
    k: int,
    prune: bool = True,
    budget: Budget | None = None,
) -> LPResult:
    """Run Algorithm 3 (LP when ``prune``, L otherwise)."""
    try:
        pg = clique_listing.prepare(clique_listing.collect_edges(edges_df), k, spark, budget)
        if budget is not None:
            budget.check_time()
        heap_rows = _heap_init_spark(spark, pg.adj, pg.scores, k, prune, budget)
    except (SimulatedOOM, SimulatedOOT):
        raise
    except Exception as exc:
        raise translate_spark_error(exc) from exc
    return _calculation(pg.adj, pg.scores, heap_rows, k, prune)


def _heap_init_spark(
    spark: SparkSession,
    adj: dict[int, np.ndarray],
    scores: dict[int, int],
    k: int,
    prune: bool,
    budget: Budget | None,
) -> list[tuple[int, tuple[int, ...], int, int]]:
    """Parallel ``HeapInit`` (Algorithm 3 lines 10-14): one FindMin per
    source node, fanned out with mapInPandas. Returns
    ``(score, members, source, visited)`` rows."""
    sc = spark.sparkContext
    bc_adj = sc.broadcast(adj)
    bc_scores = sc.broadcast(scores)
    deadline = budget.epoch_deadline if budget is not None else None
    cols = clique_listing.member_cols(k)
    schema = "source long, score long, visited long, " + ", ".join(
        f"{c} long" for c in cols
    )

    def run(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        a, s = bc_adj.value, bc_scores.value
        rows = []
        for batch in batches:
            for src in batch["source"].to_numpy(np.int64):
                import time as _t

                if deadline is not None and _t.time() > deadline:
                    from repro.core.budgets import OOT_MARKER

                    raise SimulatedOOT(f"{OOT_MARKER}: HeapInit deadline")
                st: dict = {}
                got = kernels.find_min_clique(
                    a, s, int(src), k, valid=None, prune=prune, stats=st
                )
                if got is not None:
                    rows.append((int(src), got[0], st.get("visited", 0)) + got[1])
        columns = ["source", "score", "visited"] + cols
        yield (
            pd.DataFrame(rows, columns=columns, dtype="int64")
            if rows
            else pd.DataFrame({c: pd.Series(dtype="int64") for c in columns})
        )

    sources = clique_listing._sources_df(spark, adj, k)
    pdf = sources.mapInPandas(run, schema=schema).toPandas()
    out = []
    for r in pdf.itertuples(index=False):
        members = tuple(int(getattr(r, c)) for c in cols)
        out.append((int(r.score), members, int(r.source), int(r.visited)))
    return out


def _calculation(
    adj: dict[int, np.ndarray],
    scores: dict[int, int],
    heap_rows: list[tuple[int, tuple[int, ...], int, int]],
    k: int,
    prune: bool,
) -> LPResult:
    """Driver ``Calculation`` (Algorithm 3 lines 31-39)."""
    visited = sum(r[3] for r in heap_rows)
    heap = [(score, members, src) for score, members, src, _ in heap_rows]
    heapq.heapify(heap)
    n_max = 0
    for u, nb in adj.items():
        n_max = max(n_max, u + 1, int(nb.max()) + 1 if len(nb) else 0)
    valid = np.ones(n_max, dtype=bool)
    S: list[tuple[int, ...]] = []
    recomputes = 0
    while heap:
        score, members, src = heapq.heappop(heap)
        if all(valid[list(members)]):
            S.append(members)
            valid[list(members)] = False
            continue
        # Stale entry: its source may still root other cliques.
        if not valid[src]:
            continue
        recomputes += 1
        st: dict = {}
        got = kernels.find_min_clique(adj, scores, src, k, valid, prune, st)
        visited += st.get("visited", 0)
        if got is not None:
            heapq.heappush(heap, (got[0], got[1], src))
    return LPResult("OK", S, n_heap_init=len(heap_rows), n_recomputes=recomputes, visited=visited)


def lp_driver(pg: PreparedGraph, prune: bool = True) -> LPResult:
    """Algorithm 3 on a prepared graph, ``HeapInit`` as a driver loop —
    the same ordering, scoring and tie-breaks as the Spark path."""
    heap_rows = []
    for u in sorted(pg.adj):
        st: dict = {}
        got = kernels.find_min_clique(pg.adj, pg.scores, u, pg.k, None, prune, st)
        if got is not None:
            heap_rows.append((got[0], got[1], u, st.get("visited", 0)))
    return _calculation(pg.adj, pg.scores, heap_rows, pg.k, prune)


def lp_numpy(edges: np.ndarray, k: int, prune: bool = True) -> LPResult:
    """Spark-free Algorithm 3 on a canonical edge array. Used by fast
    unit tests and as the dynamic module's from-scratch baseline."""
    return lp_driver(clique_listing.prepare(edges, k), prune)
