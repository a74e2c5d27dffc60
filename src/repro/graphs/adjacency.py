"""Orderings, DAG orientation and adjacency, on the driver.

All static algorithms in the paper share the same preparation: pick a
total node ordering ``eta``, orient each undirected edge from the
higher-``eta`` endpoint to the lower one (``u -> v`` iff
``eta(u) > eta(v)``), and enumerate each k-clique exactly once from
its highest-``eta`` member. Orderings are plain sorts of the edge
array's nodes; the oriented adjacency is a dict of sorted numpy
arrays, which is what the enumeration kernels (driver-side and
broadcast to ``mapInPandas`` workers) consume. The prepared graph
(``repro.core.clique_listing.prepare``) builds everything from these
helpers.
"""
from __future__ import annotations

import numpy as np


def _group_sorted(key: np.ndarray, val: np.ndarray) -> dict[int, np.ndarray]:
    order = np.lexsort((val, key))
    key, val = key[order], val[order]
    out: dict[int, np.ndarray] = {}
    if len(key) == 0:
        return out
    bounds = np.flatnonzero(np.diff(key)) + 1
    starts = np.concatenate([[0], bounds])
    ends = np.concatenate([bounds, [len(key)]])
    for s_, e_ in zip(starts, ends):
        out[int(key[s_])] = val[s_:e_].copy()
    return out


def adj_sets(edges: np.ndarray) -> dict[int, set[int]]:
    """Undirected adjacency as mutable ``{u: set(neighbours)}`` — the
    representation the dynamic-maintenance code mutates per edge."""
    out: dict[int, set[int]] = {}
    for u, v in edges:
        out.setdefault(int(u), set()).add(int(v))
        out.setdefault(int(v), set()).add(int(u))
    return out


def orient_by_rank(edges: np.ndarray, rank: dict[int, int]) -> dict[int, np.ndarray]:
    """DAG orientation (Algorithm 1 line 3): ``u -> v`` iff
    ``rank[u] > rank[v]``, so out-neighbours have smaller ordering.
    Returns out-adjacency arrays sorted by node id."""
    srcs, dsts = [], []
    for u, v in edges:
        u, v = int(u), int(v)
        if rank[u] > rank[v]:
            srcs.append(u)
            dsts.append(v)
        else:
            srcs.append(v)
            dsts.append(u)
    return _group_sorted(np.asarray(srcs, np.int64), np.asarray(dsts, np.int64))


# The name perfbench/spans.py times the prepared graph's orientations under.
collect_out_adjacency = orient_by_rank


def rank_by_degree(edges: np.ndarray) -> dict[int, int]:
    """Degree ordering (Section IV-A): larger degree => larger rank,
    ties broken by node id."""
    deg: dict[int, int] = {}
    for u, v in edges:
        deg[int(u)] = deg.get(int(u), 0) + 1
        deg[int(v)] = deg.get(int(v), 0) + 1
    ordered = sorted(deg, key=lambda x: (deg[x], x))
    return {u: i for i, u in enumerate(ordered)}


def rank_from_scores(scores: dict[int, int], nodes) -> dict[int, int]:
    """Score ordering (Algorithm 3 line 3): ``eta(u) < eta(v)  =>
    s_n(u) <= s_n(v)``, ties broken by node id."""
    ordered = sorted(nodes, key=lambda x: (scores.get(x, 0), x))
    return {u: i for i, u in enumerate(ordered)}
