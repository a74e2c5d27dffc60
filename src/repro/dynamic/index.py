"""Candidate k-clique index (Algorithm 5) and free-node settling.

A *candidate* k-clique contains at least one free node and at least
one non-free node, with all non-free nodes from the same clique
``C`` of S; swapping C out can then admit several candidates at once.
For each ``C`` the paper inspects ``B = C ∪ N_F(C)`` and lists all
k-cliques on B except C — complete, because every candidate of C must
lie inside B.

``build_index_spark`` parallelizes the per-clique enumeration with
``mapInPandas`` (the paper's "for each clique in S in parallel");
``candidates_for`` is the driver-side kernel reused incrementally by
the update algorithms.
"""
from __future__ import annotations

from typing import Iterator


import pandas as pd
from pyspark.sql import SparkSession

from repro.core import kernels
from repro.dynamic.state import Clique, DynamicState, canon


def candidates_for(state: DynamicState, c: Clique) -> set[Clique]:
    """All candidate k-cliques of ``c`` per Definition in Section V-A:
    k-cliques on ``B = c ∪ N_F(c)`` other than ``c`` that use at least
    one node of ``c`` and at least one free node."""
    cset = set(c)
    B = cset | state.free_neighbors(c)
    out: set[Clique] = set()
    for cand in kernels.cliques_in_subset(state.adj, B, state.k):
        if cand == c:
            continue
        non_free = [v for v in cand if v in cset]
        if non_free and len(non_free) < state.k:
            out.add(cand)
    return out


def build_index(state: DynamicState) -> None:
    """Driver-side Algorithm 5: recompute the whole candidate index."""
    for c in state.S:
        state.cand[c] = candidates_for(state, c)


def build_index_spark(spark: SparkSession, state: DynamicState) -> int:
    """Spark-parallel Algorithm 5. Returns the index size (number of
    candidate cliques) and populates ``state.cand`` in place.

    Each task receives clique rows; the adjacency and the free-node
    set travel via broadcast. Output rows are (owner, candidate)
    id-strings, decoded on the driver.
    """
    k = state.k
    if not state.S:
        return 0
    bc_adj = spark.sparkContext.broadcast({u: sorted(nb) for u, nb in state.adj.items()})
    bc_nonfree = spark.sparkContext.broadcast(set(state.node2c))

    rows = pd.DataFrame(
        {f"m{i}": [c[i] for c in sorted(state.S)] for i in range(k)}, dtype="int64"
    )
    n_part = max(1, min(spark.sparkContext.defaultParallelism, len(rows)))
    cliques_df = spark.createDataFrame(rows).repartition(n_part)

    def run(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        adj = {u: set(nb) for u, nb in bc_adj.value.items()}
        non_free = bc_nonfree.value
        out_owner, out_cand = [], []
        for batch in batches:
            for row in batch.itertuples(index=False):
                c = tuple(int(getattr(row, f"m{i}")) for i in range(k))
                cset = set(c)
                B = set(c)
                for v in c:
                    B.update(w for w in adj.get(v, ()) if w not in non_free)
                for cand in kernels.cliques_in_subset(adj, B, k):
                    if cand == c:
                        continue
                    used = sum(1 for v in cand if v in cset)
                    if used and used < k:
                        out_owner.append(",".join(map(str, c)))
                        out_cand.append(",".join(map(str, cand)))
        yield pd.DataFrame({"owner": out_owner, "cand": out_cand})

    pdf = cliques_df.mapInPandas(run, schema="owner string, cand string").toPandas()
    for c in state.S:
        state.cand[c] = set()
    for owner, cand in zip(pdf["owner"], pdf["cand"]):
        state.cand[canon(owner.split(","))].add(canon(cand.split(",")))
    return int(sum(len(v) for v in state.cand.values()))


def index_size(state: DynamicState) -> int:
    return sum(len(v) for v in state.cand.values())


def settle_free(state: DynamicState, seeds) -> list[Clique]:
    """Restore maximality around the given (just freed) nodes: while a
    k-clique exists among free nodes touching a seed, add it to S.
    Returns the cliques added. Candidate bookkeeping is left to the
    caller (owners adjacent to flipped nodes must be refreshed)."""
    added: list[Clique] = []
    pending = [int(s) for s in seeds]
    while pending:
        u = pending.pop()
        if not state.is_free(u):
            continue
        free_around = {u} | {w for w in state.adj.get(u, ()) if state.is_free(w)}
        got = kernels.cliques_in_subset(
            state.adj, free_around, state.k, containing=(u,), limit=1
        )
        if got:
            added.append(state.add_to_S(got[0]))
    return added
