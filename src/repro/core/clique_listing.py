"""The prepared graph, and k-clique listing and counting on Spark.

The substrate every algorithm shares.

- :class:`PreparedGraph` / :func:`prepare` — one preparation per
  ``(graph, k)``, built on the driver from the numpy edge array. The
  degree stage (:func:`by_degree`) gives the degree order and the DAG
  it orients; HG needs nothing more. The score stage counts node
  scores (Def. 5) over that DAG, derives the clique count
  ``sum(s_n) / k``, the score order and the DAG it orients
  (Algorithm 3 lines 2-3); GC, LP, OPT and the dynamic index use it.
- Per-source kernels fan out in one of two ways, and that is the only
  difference between the Spark path and the ``*_numpy`` path:
  ``mapInPandas`` over a partitioned source-node DataFrame with the
  oriented adjacency broadcast, or a loop on the driver. Counting never
  materializes cliques, which is what makes Algorithm 3
  "lightweight".
- :func:`list_kcliques` / :func:`node_clique_counts` /
  :func:`count_kcliques` — the same on an edge DataFrame.
- :func:`list_kcliques_joins` — a pure Catalyst reference: iterated
  self-joins on the id-oriented edge table. Quadratically many joins
  in k, only used to cross-check the kernel path (and the DuckDB
  oracle) on small graphs.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.core import kernels
from repro.core import scores as scores_mod
from repro.core.budgets import Budget, translate_spark_error
from repro.graphs import adjacency as adj_mod


def member_cols(k: int) -> list[str]:
    """Canonical member column names for a clique DataFrame."""
    return [f"m{i}" for i in range(k)]


def _clique_schema(k: int) -> str:
    return ", ".join(f"{c} long" for c in member_cols(k))


def collect_edges(edges_df: DataFrame) -> np.ndarray:
    """The edge frame's one collect: an ``(m, 2)`` int64 edge array."""
    pdf = edges_df.toPandas()
    return np.column_stack([pdf["src"].to_numpy(np.int64), pdf["dst"].to_numpy(np.int64)])


def by_degree(edges: np.ndarray) -> tuple[np.ndarray, dict[int, np.ndarray]]:
    """Degree stage: the nodes in ascending degree order (ties by id)
    and the DAG that order orients (Algorithm 1 line 3)."""
    rank = adj_mod.rank_by_degree(edges)
    order = np.array(sorted(rank, key=rank.__getitem__), dtype=np.int64)
    return order, adj_mod.collect_out_adjacency(edges, rank)


@dataclass
class PreparedGraph:
    """One graph prepared for one k (see the module doc). ``scores``
    holds s_n for every node, 0 for a node in no k-clique."""

    edges: np.ndarray
    k: int
    scores: dict[int, int]
    n_cliques: int

    @cached_property
    def adj(self) -> dict[int, np.ndarray]:
        """The DAG oriented by the score order (Algorithm 3 line 3)."""
        rank = adj_mod.rank_from_scores(self.scores, self.scores)
        return adj_mod.collect_out_adjacency(self.edges, rank)


def prepare(
    edges: np.ndarray,
    k: int,
    spark: SparkSession | None = None,
    budget: Budget | None = None,
) -> PreparedGraph:
    """Prepare ``edges`` for ``k``. The counting kernel fans out over
    the degree DAG with ``mapInPandas`` when ``spark`` is given, else in
    a driver loop; ``budget``'s deadline bounds the Spark tasks."""
    _, dag = by_degree(edges)
    if spark is None:
        counts: dict[int, int] = {}
        for u in dag:
            kernels.count_from_source(dag, u, k, counts)
    else:
        counts = _count_fan_out(spark, dag, k, budget)
    scores = {u: counts.get(u, 0) for u in np.unique(edges).tolist()}
    total = sum(scores.values())
    assert total % k == 0, "sum of node scores must be divisible by k"
    return PreparedGraph(edges, k, scores, total // k)


def _sources_df(spark: SparkSession, adj: dict[int, np.ndarray], k: int) -> DataFrame:
    """Nodes that can root a k-clique (out-degree >= k-1), spread over
    partitions so mapInPandas tasks balance."""
    srcs = [int(u) for u, nb in adj.items() if len(nb) >= k - 1]
    pdf = pd.DataFrame({"source": pd.Series(srcs, dtype="int64")})
    n_part = max(1, min(spark.sparkContext.defaultParallelism * 2, max(1, len(srcs) // 4)))
    # Shuffle sources so heavy hubs don't cluster in one partition.
    pdf = pdf.sample(frac=1.0, random_state=0) if len(pdf) else pdf
    return spark.createDataFrame(pdf).repartition(n_part)


def _count_fan_out(
    spark: SparkSession, dag: dict[int, np.ndarray], k: int, budget: Budget | None
) -> dict[int, int]:
    """Node scores counted by ``mapInPandas`` tasks over the broadcast
    DAG: each task folds its sources' enumerations into a local counter
    (Algorithm 3 line 2); the partial counts are summed on the driver."""
    bc = spark.sparkContext.broadcast(dag)
    deadline = budget.epoch_deadline if budget is not None else None

    def count_batches(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        adj = bc.value
        counts: dict[int, int] = {}
        for batch in batches:
            for src in batch["source"].to_numpy(np.int64):
                kernels.count_from_source(adj, int(src), k, counts, deadline=deadline)
        yield pd.DataFrame({"node": list(counts), "score": list(counts.values())}, dtype="int64")

    partials = _sources_df(spark, dag, k).mapInPandas(
        count_batches, schema="node long, score long"
    )
    return scores_mod.collect_scores(partials)


def enumerate_cliques(
    spark: SparkSession,
    adj: dict[int, np.ndarray],
    k: int,
    scores: dict[int, int] | None = None,
    budget: Budget | None = None,
) -> DataFrame:
    """All k-cliques of an oriented graph, one row each, member columns
    ``m0 < m1 < ... < m{k-1}`` (node-id order — the canonical clique
    identity). Each clique is produced exactly once, rooted at its
    highest-ordering member. With ``scores``, a ``score`` column holds
    s_c (Def. 6), summed in the task from the broadcast node scores."""
    sc = spark.sparkContext
    bc = sc.broadcast(adj)
    bc_scores = sc.broadcast(scores) if scores is not None else None
    deadline = budget.epoch_deadline if budget is not None else None
    cols = member_cols(k)
    schema = _clique_schema(k) + (", score long" if scores is not None else "")

    def enum_batches(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        adj = bc.value
        s = bc_scores.value if bc_scores is not None else None
        for batch in batches:
            rows: list[tuple[int, ...]] = []
            for src in batch["source"].to_numpy(np.int64):
                kernels.enumerate_from_source(adj, int(src), k, out=rows, deadline=deadline)
            pdf = pd.DataFrame(rows, columns=cols, dtype="int64") if rows else pd.DataFrame(
                {c: pd.Series(dtype="int64") for c in cols}
            )
            if s is not None:
                pdf["score"] = pd.Series([sum(map(s.__getitem__, c)) for c in rows], dtype="int64")
            yield pdf

    return _sources_df(spark, adj, k).mapInPandas(enum_batches, schema=schema)


def list_kcliques(
    spark: SparkSession,
    edges_df: DataFrame,
    k: int,
    budget: Budget | None = None,
) -> DataFrame:
    """All k-cliques of the graph (see :func:`enumerate_cliques`),
    listed over the degree DAG."""
    _, dag = by_degree(collect_edges(edges_df))
    return enumerate_cliques(spark, dag, k, budget=budget)


def node_clique_counts(
    spark: SparkSession,
    edges_df: DataFrame,
    k: int,
    budget: Budget | None = None,
) -> DataFrame:
    """Node scores (Def. 5): ``(node, score)`` where score is the
    number of k-cliques containing the node; nodes in no k-clique get
    score 0."""
    s = prepare(collect_edges(edges_df), k, spark, budget).scores
    return spark.createDataFrame(
        pd.DataFrame({"node": list(s), "score": list(s.values())}, dtype="int64")
    )


def count_kcliques(
    spark: SparkSession,
    edges_df: DataFrame,
    k: int,
    budget: Budget | None = None,
) -> int:
    """Total number of k-cliques: sum of node scores divided by k
    (every clique contributes once per member)."""
    try:
        n = prepare(collect_edges(edges_df), k, spark, budget).n_cliques
    except Exception as exc:  # translate budget failures from executors
        raise translate_spark_error(exc) from exc
    if budget is not None:
        budget.check_count(n)
    return n


def list_kcliques_joins(edges_df: DataFrame, k: int) -> DataFrame:
    """Catalyst-only reference listing via iterated self-joins on the
    id-oriented edge table (u < v). Output columns ``m0..m{k-1}`` in
    ascending id. O(k^2) joins — small graphs only."""
    e = edges_df.select(F.col("src").alias("a"), F.col("dst").alias("b"))
    cliques = e.select(F.col("a").alias("m0"), F.col("b").alias("m1"))
    for i in range(2, k):
        last = f"m{i-1}"
        ext = cliques.join(
            e.select(F.col("a").alias(last), F.col("b").alias(f"m{i}")), last
        )
        # The new node must be adjacent to every earlier member too.
        for j in range(i - 1):
            ext = ext.join(
                e.select(F.col("a").alias(f"m{j}"), F.col("b").alias(f"m{i}")),
                [f"m{j}", f"m{i}"],
                "left_semi",
            )
        cliques = ext.select(*[f"m{j}" for j in range(i + 1)])
    return cliques
