"""Spark listing/counting substrate vs brute force and the DuckDB
oracle — an independent engine checks the distributed pipeline."""
import numpy as np
import pandas as pd
import pytest

from repro.core import clique_listing, validate
from repro.graphs import adjacency as adj_mod
from repro.graphs import datasets
from repro.oracle import assert_equivalent

from tests.helpers import paper_fig2_edges, random_graph


@pytest.fixture(scope="module")
def ftb(spark):
    e = datasets.edges("FTB")
    return e, datasets.edges_to_df(spark, e)


@pytest.mark.parametrize("k", [3, 4, 5])
def test_list_kcliques_matches_brute(spark, ftb, k):
    e, df = ftb
    got = clique_listing.list_kcliques(spark, df, k).toPandas()
    got_set = {tuple(map(int, r)) for r in got.to_numpy()}
    assert got_set == validate.brute_force_all_kcliques(e, k)


@pytest.mark.parametrize("k", [3, 4])
def test_join_based_listing_matches_brute(spark, ftb, k):
    e, df = ftb
    got = clique_listing.list_kcliques_joins(df, k).toPandas()
    got_set = {tuple(map(int, r)) for r in got.to_numpy()}
    assert got_set == validate.brute_force_all_kcliques(e, k)


@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_count_kcliques(spark, ftb, k):
    e, df = ftb
    assert clique_listing.count_kcliques(spark, df, k) == len(
        validate.brute_force_all_kcliques(e, k)
    )


def test_node_scores_match_kernel_counts(spark, ftb):
    e, df = ftb
    got = clique_listing.node_clique_counts(spark, df, 3).toPandas()
    got_map = dict(zip(got["node"].astype(int), got["score"].astype(int)))
    from repro.core import kernels

    rank = adj_mod.rank_by_degree(e)
    adj = adj_mod.orient_by_rank(e, rank)
    want: dict[int, int] = {}
    for u in adj:
        kernels.count_from_source(adj, u, 3, want)
    for node in {int(v) for v in e.reshape(-1)}:
        assert got_map[node] == want.get(node, 0)


def test_triangle_count_against_duckdb_oracle(spark, ftb):
    """Independent-engine check: our Spark triangle listing count ==
    DuckDB's SQL self-join triangle count over the same edge table."""
    e, df = ftb
    triangles = clique_listing.list_kcliques(spark, df, 3)
    spark_count = triangles.groupBy().count().withColumnRenamed("count", "n_triangles")
    assert_equivalent(
        spark_count,
        """
        SELECT count(*) AS n_triangles
        FROM edges e1
        JOIN edges e2 ON e2.src = e1.src AND e2.dst > e1.dst
        JOIN edges e3 ON e3.src = e1.dst AND e3.dst = e2.dst
        """,
        edges=pd.DataFrame({"src": e[:, 0], "dst": e[:, 1]}),
    )


def test_per_node_triangle_scores_against_duckdb_oracle(spark, ftb):
    """Node scores for k=3 == DuckDB per-node triangle membership."""
    e, df = ftb
    scores = clique_listing.node_clique_counts(spark, df, 3)
    assert_equivalent(
        scores,
        """
        WITH tri AS (
          SELECT e1.src AS a, e1.dst AS b, e2.dst AS c
          FROM edges e1
          JOIN edges e2 ON e2.src = e1.src AND e2.dst > e1.dst
          JOIN edges e3 ON e3.src = e1.dst AND e3.dst = e2.dst
        ),
        members AS (
          SELECT a AS node FROM tri
          UNION ALL SELECT b FROM tri
          UNION ALL SELECT c FROM tri
        ),
        nodes AS (
          SELECT src AS node FROM edges UNION SELECT dst FROM edges
        )
        SELECT n.node AS node, count(m.node) AS score
        FROM nodes n LEFT JOIN members m ON m.node = n.node
        GROUP BY n.node
        """,
        edges=pd.DataFrame({"src": e[:, 0], "dst": e[:, 1]}),
    )


def test_four_clique_count_against_duckdb_oracle(spark):
    """k=4 counting cross-checked in SQL on a smaller graph."""
    e = random_graph(2, 30, "pp")
    df = datasets.edges_to_df(spark, e)
    cnt = clique_listing.list_kcliques(spark, df, 4).groupBy().count().withColumnRenamed("count", "n4")
    assert_equivalent(
        cnt,
        """
        SELECT count(*) AS n4
        FROM edges e1
        JOIN edges e2 ON e2.src = e1.src AND e2.dst > e1.dst
        JOIN edges e3 ON e3.src = e1.src AND e3.dst > e2.dst
        JOIN edges a  ON a.src = e1.dst AND a.dst = e2.dst
        JOIN edges b  ON b.src = e1.dst AND b.dst = e3.dst
        JOIN edges c  ON c.src = e2.dst AND c.dst = e3.dst
        """,
        edges=pd.DataFrame({"src": e[:, 0], "dst": e[:, 1]}),
    )


def test_member_columns_sorted_ascending(spark, ftb):
    _, df = ftb
    pdf = clique_listing.list_kcliques(spark, df, 4).toPandas()
    arr = pdf.to_numpy()
    assert (np.diff(arr, axis=1) > 0).all()


def _degree_id_order(e):
    """Nodes sorted by (degree, id), computed without the program."""
    nodes, deg = np.unique(e, return_counts=True)
    return nodes[np.lexsort((nodes, deg))].tolist()


def _assert_dag(adj, e, key):
    """Every edge of ``e`` appears once, from the higher to the lower
    ``key`` — a DAG, since ``key`` is a total order."""
    arcs = [(int(u), int(v)) for u, nb in adj.items() for v in nb]
    assert len(arcs) == len(e)
    assert {(min(a), max(a)) for a in arcs} == set(map(tuple, e.tolist()))
    for u, v in arcs:
        assert key(u) > key(v)


def test_orderings_spark_vs_driver(spark, ftb):
    """The degree stage, on the Spark path's collected edge frame and
    on the driver path's edge array, gives the (degree, id) sort."""
    e, df = ftb
    want = _degree_id_order(e)
    for edges in (clique_listing.collect_edges(df), e):
        order, _ = clique_listing.by_degree(edges)
        assert order.tolist() == want


def test_oriented_edges_form_dag(spark, ftb):
    """The degree DAG and, for both fan-outs, the score DAG of the
    prepared graph orient every edge once, by their order."""
    e, df = ftb
    nodes, counts = np.unique(e, return_counts=True)
    deg = dict(zip(nodes.tolist(), counts.tolist()))
    _, dag = clique_listing.by_degree(clique_listing.collect_edges(df))
    _assert_dag(dag, e, lambda u: (deg[u], u))
    for pg in (clique_listing.prepare(e, 3, spark), clique_listing.prepare(e, 3)):
        _assert_dag(pg.adj, e, lambda u: (pg.scores[u], u))


def test_fig2_spark_listing(spark):
    e = paper_fig2_edges()
    df = datasets.edges_to_df(spark, e)
    got = clique_listing.list_kcliques(spark, df, 3).toPandas()
    assert len(got) == 7
