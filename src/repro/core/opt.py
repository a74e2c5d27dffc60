"""OPT: exact maximum disjoint k-clique set via clique graph + MIS.

The straightforward pipeline from Section I the paper argues is
impractical: (i) list all k-cliques, (ii) build the clique graph,
(iii) exact MIS on it. We run (i)-(ii) as Spark jobs and (iii) on the
driver, under a Budget that reproduces the paper's OOM (too many
cliques / clique-graph edges) and OOT (exact MIS) cells.
"""
from __future__ import annotations

from dataclasses import dataclass

from pyspark.sql import DataFrame, SparkSession

from repro.core import clique_graph, clique_listing
from repro.core.budgets import Budget, SimulatedOOM, SimulatedOOT, budget_errors
from repro.core.mis import exact_mis
from repro.core.scores import clique_id_col


@dataclass
class OptResult:
    """Outcome of an OPT run: ``status`` is OK / OOM / OOT; ``S`` holds
    the optimal disjoint k-cliques when status is OK."""

    status: str
    S: list[tuple[int, ...]]
    n_cliques: int = 0
    n_cg_edges: int = 0

    @property
    def size(self) -> int:
        return len(self.S)


def opt(
    spark: SparkSession,
    edges_df: DataFrame,
    k: int,
    budget: Budget | None = None,
) -> OptResult:
    """Exact solution with budget-simulated OOM/OOT (see DESIGN.md §3)."""
    with budget_errors():
        pg = clique_listing.prepare(clique_listing.collect_edges(edges_df), k, spark, budget)
        if budget is not None:
            budget.check_count(pg.n_cliques)
            # Cheap upper bound on clique-graph edges from node scores:
            # cliques sharing node u form a clique of size s_n(u) in the
            # clique graph, so |E(G_C)| <= sum_u C(s_n(u), 2). Guard
            # BEFORE running the explode/self-join — the clique graph
            # is exactly where OPT blows up (Table III).
            budget.check_count(sum(s * (s - 1) // 2 for s in pg.scores.values()))
            budget.check_time()
        # Materialised once: the clique graph, its count and the id
        # collect below all read the checkpoint.
        cliques_df = clique_listing.enumerate_cliques(spark, pg.adj, k).localCheckpoint()
        cg = clique_graph.clique_graph_edges(cliques_df, k)
        if budget is not None:
            budget.check_count(cg.count())
            budget.check_time()
        cg_pdf = cg.toPandas()
        ids_pdf = cliques_df.withColumn("cid", clique_id_col(k)).toPandas()

    members = dict(zip(ids_pdf["cid"], clique_listing.member_rows(ids_pdf, k)))
    adj: dict[str, set[str]] = {cid: set() for cid in members}
    for row in cg_pdf.itertuples(index=False):
        adj[row.cid1].add(row.cid2)
        adj[row.cid2].add(row.cid1)
    chosen = exact_mis(adj, budget=budget)
    S = sorted(members[cid] for cid in chosen)
    return OptResult("OK", S, n_cliques=len(members), n_cg_edges=len(cg_pdf))


def opt_or_status(
    spark: SparkSession, edges_df: DataFrame, k: int, budget: Budget
) -> OptResult:
    """Harness wrapper: convert budget failures into OOM/OOT rows."""
    try:
        return opt(spark, edges_df, k, budget=budget)
    except SimulatedOOM:
        return OptResult("OOM", [])
    except SimulatedOOT:
        return OptResult("OOT", [])
