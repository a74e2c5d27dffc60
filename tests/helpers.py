"""Shared test utilities: small random graphs with known properties."""
from __future__ import annotations

import numpy as np

from repro.core import validate
from repro.graphs import generators as gen


def random_graph(seed: int, n: int = 40, kind: str = "pp") -> np.ndarray:
    """A small deterministic graph with enough cliques to be
    interesting: planted-partition (dense blocks) or powerlaw-cluster."""
    if kind == "pp":
        return gen.planted_partition(n, max(2, n // 10), 0.7, 0.08, seed=seed)
    if kind == "plc":
        return gen.powerlaw_cluster(n, 5, 0.7, seed=seed)
    if kind == "er":
        return gen.erdos_renyi(n, n * 3, seed=seed)
    raise ValueError(kind)


def paper_fig2_edges() -> np.ndarray:
    """The running-example graph of Fig. 2 (9 nodes, 15 edges, seven
    3-cliques C1..C7). Node ids are 1-based as in the paper."""
    e = [
        (1, 3), (1, 6), (3, 6),          # C1 = (v1, v3, v6)
        (3, 5), (5, 6),                  # C2 = (v3, v5, v6)
        (5, 8), (6, 8),                  # C3 = (v5, v6, v8)
        (5, 7), (7, 8),                  # C4 = (v5, v7, v8)
        (8, 9), (7, 9),                  # C5 = (v7, v8, v9)
        (4, 7), (4, 9),                  # C6 = (v4, v7, v9)
        (2, 4), (2, 9),                  # C7 = (v2, v4, v9)
    ]
    return np.array(sorted((min(a, b), max(a, b)) for a, b in e), dtype=np.int64)


def paper_fig5_g1_edges() -> np.ndarray:
    """The dynamic running example of Fig. 5 (graph G1): triangles
    (1,2,3), (3,4,5), (9,10,11), and the path 5-6-7. Adding edge
    (5,7) yields G2."""
    e = [
        (1, 2), (1, 3), (2, 3),
        (3, 4), (3, 5), (4, 5),
        (5, 6), (6, 7),
        (9, 10), (9, 11), (10, 11),
    ]
    return np.array(sorted(e), dtype=np.int64)


def exhaustive_max_disjoint(edges: np.ndarray, k: int) -> int:
    """Exact maximum |S| by unpruned exhaustive search over all
    k-cliques — the reference the pruned oracle
    (``validate.brute_force_max_disjoint``) is checked against."""
    cliques = sorted(validate.brute_force_all_kcliques(edges, k))

    def rec(i: int, used: set[int]) -> int:
        best = 0
        for j in range(i, len(cliques)):
            c = cliques[j]
            if not used.isdisjoint(c):
                continue
            best = max(best, 1 + rec(j + 1, used | set(c)))
        return best

    return rec(0, set())
