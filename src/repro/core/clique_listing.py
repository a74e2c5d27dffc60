"""The prepared graph, and k-clique listing and counting on Spark.

The substrate every algorithm shares.

- :class:`PreparedGraph` / :func:`prepare` — one preparation per
  ``(graph, k)``, built on the driver from the numpy edge array. The
  degree stage (:func:`by_degree`) gives the degree order and the DAG
  it orients; HG needs nothing more. The score stage counts node
  scores (Def. 5) over that DAG, derives the clique count
  ``sum(s_n) / k``, the score order and the DAG it orients
  (Algorithm 3 lines 2-3); GC, LP, OPT and the dynamic index use it.
- :func:`fan_out` — the one way a per-source kernel runs: a batch
  function over source nodes, in ``mapInPandas`` tasks with the
  oriented adjacency broadcast, or in one driver call (the
  ``*_numpy`` path) — the only difference between the two paths. Its
  batches: counting (:func:`count_batches`, which never materializes
  cliques — what makes Algorithm 3 "lightweight"), listing
  (:func:`enum_batches`) and LP's ``HeapInit``.
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
from typing import Callable, Iterator

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.core import kernels
from repro.core import scores as scores_mod
from repro.core.budgets import Budget, budget_errors
from repro.graphs import adjacency as adj_mod


def member_cols(k: int) -> list[str]:
    """Canonical member column names for a clique DataFrame."""
    return [f"m{i}" for i in range(k)]


def clique_schema(k: int) -> str:
    return ", ".join(f"{c} long" for c in member_cols(k))


def member_rows(pdf: pd.DataFrame, k: int) -> list[tuple[int, ...]]:
    """The member tuples of a collected clique frame, as Python ints."""
    return list(pdf[member_cols(k)].itertuples(index=False, name=None))


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
    the degree DAG (:func:`fan_out`: on Spark when ``spark`` is given,
    else on the driver); ``budget``'s deadline bounds it either way."""
    _, dag = by_degree(edges)
    partials = fan_out(spark, dag, k, count_batches, "node long, score long", budget)
    counts = scores_mod.collect_scores(partials)
    scores = {u: counts.get(u, 0) for u in np.unique(edges).tolist()}
    total = sum(scores.values())
    assert total % k == 0, "sum of node scores must be divisible by k"
    return PreparedGraph(edges, k, scores, total // k)


def fan_out(
    spark: SparkSession | None,
    adj: dict[int, np.ndarray],
    k: int,
    batch: Callable[..., pd.DataFrame],
    schema: str,
    budget: Budget | None = None,
    **shared,
) -> DataFrame | pd.DataFrame:
    """Run ``batch(adj, sources, k, deadline, **shared)`` over the nodes
    that can root a k-clique (out-degree >= k-1). With ``spark``:
    ``mapInPandas`` tasks over :func:`_sources_df`, ``adj`` and
    ``shared`` broadcast; returns a DataFrame of ``schema``. Without:
    one driver call on all sources; returns its frame."""
    sources = [int(u) for u, nb in adj.items() if len(nb) >= k - 1]
    deadline = budget.epoch_deadline if budget is not None else None
    if spark is None:
        return batch(adj, np.array(sources, dtype=np.int64), k, deadline, **shared)
    sc = spark.sparkContext
    bc_adj = sc.broadcast(adj)
    bc_shared = {name: sc.broadcast(value) for name, value in shared.items()}

    def task(frames: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        a = bc_adj.value
        values = {name: bc.value for name, bc in bc_shared.items()}
        for frame in frames:
            yield batch(a, frame["source"].to_numpy(np.int64), k, deadline, **values)

    # The plan names the task; the trace tells kernels apart by it.
    task.__name__ = batch.__name__
    return _sources_df(spark, sources).mapInPandas(task, schema=schema)


def _sources_df(spark: SparkSession, srcs: list[int]) -> DataFrame:
    """The source nodes, spread over partitions so mapInPandas tasks
    balance."""
    pdf = pd.DataFrame({"source": pd.Series(srcs, dtype="int64")})
    n_part = max(1, min(spark.sparkContext.defaultParallelism * 2, max(1, len(srcs) // 4)))
    # Shuffle sources so heavy hubs don't cluster in one partition.
    pdf = pdf.sample(frac=1.0, random_state=0) if len(pdf) else pdf
    return spark.createDataFrame(pdf).repartition(n_part)


def count_batches(
    adj: dict[int, np.ndarray], sources: np.ndarray, k: int, deadline: float | None
) -> pd.DataFrame:
    """Counting batch (Algorithm 3 line 2): the sources' enumerations
    folded into one local counter, as partial ``(node, score)`` rows
    that :func:`scores.collect_scores` sums."""
    counts: dict[int, int] = {}
    for src in sources.tolist():
        kernels.count_from_source(adj, src, k, counts, deadline=deadline)
    return pd.DataFrame({"node": list(counts), "score": list(counts.values())}, dtype="int64")


def enum_batches(
    adj: dict[int, np.ndarray],
    sources: np.ndarray,
    k: int,
    deadline: float | None,
    scores: dict[int, int] | None = None,
) -> pd.DataFrame:
    """Listing batch: the cliques rooted at the sources, with s_c
    (Def. 6) summed from ``scores`` in a ``score`` column when given."""
    rows: list[tuple[int, ...]] = []
    for src in sources.tolist():
        kernels.enumerate_from_source(adj, src, k, out=rows, deadline=deadline)
    pdf = pd.DataFrame(rows, columns=member_cols(k), dtype="int64")
    if scores is not None:
        pdf["score"] = pd.Series([sum(map(scores.__getitem__, c)) for c in rows], dtype="int64")
    return pdf


def enumerate_cliques(
    spark: SparkSession | None,
    adj: dict[int, np.ndarray],
    k: int,
    scores: dict[int, int] | None = None,
    budget: Budget | None = None,
) -> DataFrame | pd.DataFrame:
    """All k-cliques of an oriented graph, one row each, member columns
    ``m0 < m1 < ... < m{k-1}`` (node-id order — the canonical clique
    identity). Each clique is produced exactly once, rooted at its
    highest-ordering member. With ``scores``, a ``score`` column holds
    s_c (Def. 6), summed in the task from the broadcast node scores.
    A DataFrame with ``spark``, a pandas frame without (:func:`fan_out`)."""
    schema = clique_schema(k) + (", score long" if scores is not None else "")
    return fan_out(spark, adj, k, enum_batches, schema, budget, scores=scores)


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
    with budget_errors():
        n = prepare(collect_edges(edges_df), k, spark, budget).n_cliques
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
