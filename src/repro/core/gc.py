"""GC — Algorithm 2: greedy over all cliques by ascending clique score.

Materializes every k-clique (that is GC's defining cost — the paper's
OOM cells, reproduced here via the Budget), each with its clique score
summed from the prepared graph's node scores in the listing task, then
selects cliques in ascending ``(s_c(C), member tuple)`` order,
skipping any clique that intersects an already chosen one.

Two selection paths produce the identical S:

- driver greedy over the collected clique list (small inputs), and
- ``select_distributed``: deterministic Luby-style DataFrame rounds —
  a clique is selected in a round iff its total-order key is the
  minimum among all remaining cliques sharing any node with it. Every
  sequential-greedy pick eventually becomes such a local minimum, and
  every local minimum is a sequential-greedy pick, so the rounds
  compute exactly the sequential result, in parallel.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.core import clique_listing
from repro.core.budgets import Budget, budget_errors
from repro.core.scores import clique_id_col, key_col


@dataclass
class GCResult:
    status: str
    S: list[tuple[int, ...]]
    n_cliques: int = 0
    rounds: int = 0

    @property
    def size(self) -> int:
        return len(self.S)


def greedy_by_score(scored: list[tuple[object, tuple[int, ...]]]) -> list[tuple[int, ...]]:
    """Sequential greedy: ascending (score, members), keep disjoint.
    The score may be any key that sorts like it."""
    used: set[int] = set()
    S: list[tuple[int, ...]] = []
    for _, members in sorted(scored):
        if all(v not in used for v in members):
            S.append(members)
            used.update(members)
    return S


def gc(
    spark: SparkSession,
    edges_df: DataFrame,
    k: int,
    budget: Budget | None = None,
    driver_threshold: int = 2_000_000,
) -> GCResult:
    """Run Algorithm 2 end-to-end on Spark.

    ``driver_threshold``: if at most this many cliques survive,
    selection finishes on the driver; set 0 to force the distributed
    rounds (tests do, to exercise that path).
    """
    with budget_errors():
        pg = clique_listing.prepare(clique_listing.collect_edges(edges_df), k, spark, budget)
        if budget is not None:
            budget.check_count(pg.n_cliques)  # GC must store all of them
            budget.check_time()
        scored_df = clique_listing.enumerate_cliques(spark, pg.adj, k, pg.scores, budget)
        if pg.n_cliques <= driver_threshold:
            S = _greedy(scored_df.toPandas(), "score", k)
            return GCResult("OK", S, n_cliques=pg.n_cliques)
        S, rounds = select_distributed(spark, scored_df, k, driver_threshold)
        return GCResult("OK", S, n_cliques=pg.n_cliques, rounds=rounds)


def _greedy(pdf: pd.DataFrame, key: str, k: int) -> list[tuple[int, ...]]:
    """:func:`greedy_by_score` over a collected clique frame, ordered
    by its ``key`` column."""
    return greedy_by_score(list(zip(pdf[key].tolist(), clique_listing.member_rows(pdf, k))))


def select_distributed(
    spark: SparkSession,
    scored_df: DataFrame,
    k: int,
    driver_threshold: int = 100_000,
) -> tuple[list[tuple[int, ...]], int]:
    """Deterministic local-minimum selection rounds (see module doc).

    Returns (S, number of distributed rounds run). Falls back to the
    driver greedy once at most ``driver_threshold`` cliques remain —
    remaining cliques are disjoint from everything selected so far, so
    the tail greedy composes exactly.
    """
    cols = clique_listing.member_cols(k)
    # The one materialisation of the listing: later rounds read the checkpoint.
    df = (
        scored_df.withColumn("cid", clique_id_col(k))
        .withColumn("key", key_col())
        .select("key", *cols)
        .localCheckpoint()
    )
    S: list[tuple[int, ...]] = []
    rounds = 0
    while True:
        remaining = df.count()
        if remaining == 0:
            break
        if remaining <= driver_threshold:
            # The key string sorts like (score, members).
            S += _greedy(df.toPandas(), "key", k)
            break
        rounds += 1
        ex = df.select("key", F.explode(F.array(*cols)).alias("node"))
        node_min = ex.groupBy("node").agg(F.min("key").alias("mk"))
        winner_keys = (
            ex.join(node_min, "node")
            .groupBy("key")
            .agg(F.min((F.col("key") == F.col("mk")).cast("int")).alias("allmin"))
            .where(F.col("allmin") == 1)
            .select("key")
        )
        winners = df.join(winner_keys, "key", "left_semi").localCheckpoint()
        S += clique_listing.member_rows(winners.toPandas(), k)
        covered = winners.select(F.explode(F.array(*cols)).alias("node")).distinct()
        dead_keys = (
            ex.join(covered, "node", "left_semi").select("key").distinct()
        )
        df = df.join(dead_keys, "key", "left_anti").localCheckpoint()
    return S, rounds


def gc_numpy(edges: np.ndarray, k: int) -> GCResult:
    """Spark-free GC on a canonical edge array — identical ordering,
    scoring and tie-breaks as the Spark path; used by fast unit tests,
    Theorem-4 checks, and the dynamic module's from-scratch baseline.
    The listing is the Spark path's batch, run in one driver call."""
    pg = clique_listing.prepare(edges, k)
    scored = clique_listing.enumerate_cliques(None, pg.adj, k, pg.scores)
    return GCResult("OK", _greedy(scored, "score", k), n_cliques=len(scored))
