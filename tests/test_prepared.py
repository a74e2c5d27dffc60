"""The shared preparation against an independent oracle.

The Spark and driver paths share one preparation, so their equality
tests cannot catch a fault in it. Here the prepared node scores are
checked against per-node counts of brute-force listing, for both
fan-outs of the counting kernel: ``mapInPandas`` and the driver loop.
"""
import numpy as np
import pytest

from repro.core import clique_listing, validate
from repro.core.gc import gc, gc_numpy
from repro.core.hg import hg, hg_numpy
from repro.core.lp import lp, lp_numpy
from repro.graphs import datasets

from tests.helpers import paper_fig2_edges, random_graph

GRAPHS = [(s, kind) for s in range(3) for kind in ("pp", "plc")]


def _with_pendant(e: np.ndarray) -> tuple[np.ndarray, int]:
    """``e`` plus a new degree-1 node, which lies in no k-clique."""
    u = int(e.max()) + 1
    return np.vstack([e, [[int(e[0, 0]), u]]]).astype(np.int64), u


def _brute_scores(e: np.ndarray, k: int) -> dict[int, int]:
    counts = {int(v): 0 for v in np.unique(e)}
    for c in validate.brute_force_all_kcliques(e, k):
        for v in c:
            counts[v] += 1
    return counts


@pytest.mark.parametrize("fan_out", ["spark", "driver"])
@pytest.mark.parametrize("seed,kind", GRAPHS)
@pytest.mark.parametrize("k", [3, 4])
def test_prepared_scores_match_brute_force(spark, fan_out, seed, kind, k):
    e, pendant = _with_pendant(random_graph(seed, 24, kind))
    pg = clique_listing.prepare(e, k, spark if fan_out == "spark" else None)
    want = _brute_scores(e, k)
    assert pg.scores == want
    assert pg.scores[pendant] == 0
    assert pg.n_cliques == len(validate.brute_force_all_kcliques(e, k))


@pytest.mark.parametrize("fan_out", ["spark", "driver"])
def test_k_above_clique_number(spark, fan_out):
    """Fig. 2's clique number is 3: at k=4 every score is 0, there is
    no clique, and HG, GC and LP select nothing."""
    e = paper_fig2_edges()
    k = 4
    assert not validate.brute_force_all_kcliques(e, k)
    if fan_out == "spark":
        pg = clique_listing.prepare(e, k, spark)
        df = datasets.edges_to_df(spark, e)
        results = [hg(spark, df, k), gc(spark, df, k), lp(spark, df, k)]
    else:
        pg = clique_listing.prepare(e, k)
        results = [hg_numpy(e, k), gc_numpy(e, k), lp_numpy(e, k)]
    assert set(pg.scores) == {int(v) for v in np.unique(e)}
    assert set(pg.scores.values()) == {0}
    assert pg.n_cliques == 0
    for res in results:
        assert res.S == []
