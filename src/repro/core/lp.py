"""L / LP — Algorithm 3, the lightweight implementation.

Produces the same S as GC (Theorem 4 — exactly, because we fix the
total clique order to ``(s_c(C), member tuple)`` everywhere) without
ever storing the full clique set:

1. the prepared graph (``clique_listing.prepare``): node scores from
   one counting fan-out (no cliques stored), the score-based total
   ordering and the DAG it orients;
2. ``HeapInit``: ``FindMin`` for every source node in parallel — the
   minimum-score clique rooted there, with the score-driven pruning
   strategy (LP) or without (L). It is one batch function fanned out
   by ``clique_listing.fan_out``: in Spark tasks for :func:`lp`, in one
   driver call for :func:`lp_driver`;
3. ``Calculation``: driver min-heap — pop the global minimum; if its
   members are still valid add it to S, otherwise re-run ``FindMin``
   for its source over the remaining valid nodes and push the result.

Step 3's correctness: scores are static, so a still-valid stored local
minimum remains the minimum over the shrinking candidate set; the heap
top is therefore always the global minimum remaining clique.
"""
from __future__ import annotations

import heapq
import time
from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.core import clique_listing, kernels
from repro.core.budgets import OOT_MARKER, Budget, SimulatedOOT, budget_errors
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
    with budget_errors():
        pg = clique_listing.prepare(clique_listing.collect_edges(edges_df), k, spark, budget)
        if budget is not None:
            budget.check_time()
        return _lp(spark, pg, prune, budget)


def heap_init_batches(
    adj: dict[int, np.ndarray],
    sources: np.ndarray,
    k: int,
    deadline: float | None,
    scores: dict[int, int],
    prune: bool,
) -> pd.DataFrame:
    """``HeapInit`` batch (Algorithm 3 lines 10-14): one FindMin per
    source, as ``(source, score, visited, m0..)`` rows."""
    rows = []
    for src in sources.tolist():
        if deadline is not None and time.time() > deadline:
            raise SimulatedOOT(f"{OOT_MARKER}: HeapInit deadline exceeded")
        st: dict = {}
        got = kernels.find_min_clique(adj, scores, src, k, None, prune, st)
        if got is not None:
            rows.append((src, got[0], st.get("visited", 0)) + got[1])
    return pd.DataFrame(
        rows, columns=["source", "score", "visited"] + clique_listing.member_cols(k), dtype="int64"
    )


def _lp(
    spark: SparkSession | None, pg: PreparedGraph, prune: bool, budget: Budget | None
) -> LPResult:
    """``HeapInit``, fanned out on Spark when ``spark`` is given, else
    in one driver call; then the driver ``Calculation`` (Algorithm 3
    lines 31-39)."""
    adj, scores, k = pg.adj, pg.scores, pg.k
    schema = "source long, score long, visited long, " + clique_listing.clique_schema(k)
    rows = clique_listing.fan_out(
        spark, adj, k, heap_init_batches, schema, budget, scores=scores, prune=prune
    )
    heap_init = rows if isinstance(rows, pd.DataFrame) else rows.toPandas()
    visited = int(heap_init["visited"].sum())
    cliques = clique_listing.member_rows(heap_init, k)
    heap = list(zip(heap_init["score"].tolist(), cliques, heap_init["source"].tolist()))
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
    return LPResult("OK", S, n_heap_init=len(heap_init), n_recomputes=recomputes, visited=visited)


def lp_driver(pg: PreparedGraph, prune: bool = True) -> LPResult:
    """Algorithm 3 on a prepared graph, ``HeapInit`` in one driver call —
    the same batch, ordering, scoring and tie-breaks as the Spark path."""
    return _lp(None, pg, prune, None)


def lp_numpy(edges: np.ndarray, k: int, prune: bool = True) -> LPResult:
    """Spark-free Algorithm 3 on a canonical edge array. Used by fast
    unit tests and as the dynamic module's from-scratch baseline."""
    return lp_driver(clique_listing.prepare(edges, k), prune)
