"""Node scores (Def. 5) and clique scores (Def. 6).

``s_n(u)`` = number of k-cliques containing ``u``; ``s_c(C)`` =
``sum_{u in C} s_n(u)``. The clique score approximates the clique's
degree in the clique graph (Theorem 2), which drives the selection
order in Algorithms 2 and 3. Node scores are counted once per prepared
graph (``clique_listing.prepare``); GC's listing task sums ``s_c``
from the broadcast node scores.
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import DataFrame
from pyspark.sql import functions as F


def clique_id_col(k: int):
    """Canonical clique id over the member columns ``m0..m{k-1}``:
    zero-padded members joined — lexicographic string order equals
    (member tuple) order, so string min/sort give the fixed total
    clique order."""
    cols = [F.format_string("%010d", F.col(f"m{i}")) for i in range(k)]
    return F.concat_ws(",", *cols)


def key_col():
    """Total-order key ``(score, member tuple)`` as a single string:
    zero-padded score prefix + canonical cid. String comparison equals
    tuple comparison — usable in ``min()`` aggregations."""
    return F.concat_ws("|", F.format_string("%015d", F.col("score")), F.col("cid"))


def collect_scores(partials_df: DataFrame) -> dict[int, int]:
    """Node scores as a plain dict: the counting tasks' partial
    ``(node, score)`` rows, collected and summed per node."""
    pdf = partials_df.toPandas()
    sums = pdf.groupby("node")["score"].sum()
    return dict(
        zip(sums.index.to_numpy(np.int64).tolist(), sums.to_numpy(np.int64).tolist())
    )
