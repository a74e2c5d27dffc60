"""Validation-oracle and budget-machinery tests."""
import time

import numpy as np
import pytest

from repro.core import clique_listing, validate
from repro.core.budgets import (
    Budget,
    OOM_MARKER,
    OOT_MARKER,
    SimulatedOOM,
    SimulatedOOT,
    budget_errors,
    translate_spark_error,
)
from repro.core.lp import heap_init_batches
from repro.graphs import adjacency as adj_mod

from tests.helpers import exhaustive_max_disjoint, paper_fig2_edges, random_graph


def test_is_clique_and_not():
    adj = adj_mod.adj_sets(paper_fig2_edges())
    assert validate.is_clique(adj, (1, 3, 6))
    assert not validate.is_clique(adj, (1, 2, 3))
    assert not validate.is_clique(adj, (1, 1, 3))  # duplicate node


def test_is_disjoint():
    assert validate.is_disjoint([(1, 2, 3), (4, 5, 6)])
    assert not validate.is_disjoint([(1, 2, 3), (3, 4, 5)])
    assert validate.is_disjoint([])


def test_assert_valid_solution_passes_and_fails():
    e = paper_fig2_edges()
    validate.assert_valid_solution(e, 3, [(1, 3, 6), (2, 4, 9)])
    with pytest.raises(AssertionError):
        validate.assert_valid_solution(e, 3, [(1, 2, 3)])  # not a clique
    with pytest.raises(AssertionError):
        validate.assert_valid_solution(e, 3, [(1, 3, 6), (3, 5, 6)])  # overlap
    with pytest.raises(AssertionError):
        validate.assert_valid_solution(e, 4, [(1, 3, 6)])  # wrong size


def test_free_nodes():
    e = paper_fig2_edges()
    free = validate.free_nodes(e, [(1, 3, 6)])
    assert free == {2, 4, 5, 7, 8, 9}


def test_is_maximal_cases():
    e = paper_fig2_edges()
    assert validate.is_maximal(e, 3, [(1, 3, 6), (2, 4, 9), (5, 7, 8)])
    assert not validate.is_maximal(e, 3, [(3, 5, 6)])  # (2,4,9) remains


def test_brute_force_max_disjoint_fig2():
    assert validate.brute_force_max_disjoint(paper_fig2_edges(), 3) == 3


@pytest.mark.parametrize("kind", ["pp", "plc"])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_pruned_oracle_equals_exhaustive_search(kind, k):
    """The branch-and-bound oracle's optimum equals the unpruned
    search's on 30 seeded 14-node graphs."""
    for seed in range(30):
        e = random_graph(seed, 14, kind)
        assert validate.brute_force_max_disjoint(e, k) == exhaustive_max_disjoint(e, k), seed


def test_brute_force_all_kcliques_sizes():
    e = paper_fig2_edges()
    assert len(validate.brute_force_all_kcliques(e, 3)) == 7
    assert len(validate.brute_force_all_kcliques(e, 4)) == 0


def test_budget_count_guard():
    b = Budget(max_cliques=10)
    b.check_count(10)
    with pytest.raises(SimulatedOOM):
        b.check_count(11)


def test_budget_time_guard():
    b = Budget(max_seconds=100)
    b.check_time()
    b2 = Budget(max_seconds=0.0, started=time.monotonic() - 5)
    with pytest.raises(SimulatedOOT):
        b2.check_time()


def test_budget_unbounded_noops():
    b = Budget()
    b.check_count(10**12)
    b.check_time()
    assert b.epoch_deadline is None


def test_budget_epoch_deadline_in_future():
    b = Budget(max_seconds=60)
    assert b.epoch_deadline > time.time()


def test_translate_spark_error():
    assert isinstance(translate_spark_error(RuntimeError(f"x {OOM_MARKER} y")), SimulatedOOM)
    assert isinstance(translate_spark_error(RuntimeError(f"x {OOT_MARKER} y")), SimulatedOOT)
    e = ValueError("unrelated")
    assert translate_spark_error(e) is e
    # The executor's line names the check that tripped; it is kept.
    wrapped = RuntimeError(
        "PythonException: Traceback (most recent call last):\n"
        f"repro.core.budgets.SimulatedOOT: {OOT_MARKER}: counting deadline exceeded\n"
        "\tat org.apache.spark.api.python.BasePythonRunner"
    )
    assert str(translate_spark_error(wrapped)) == (
        f"{OOT_MARKER}: counting deadline exceeded (from executor)"
    )


def test_budget_errors_context():
    with pytest.raises(SimulatedOOT, match=f"^{OOT_MARKER}: HeapInit deadline exceeded"):
        with budget_errors():
            raise RuntimeError(f"task failed: {OOT_MARKER}: HeapInit deadline exceeded")
    with pytest.raises(SimulatedOOM, match="exceeds budget 1$"):
        with budget_errors():
            Budget(max_cliques=1).check_count(2)
    with pytest.raises(ValueError, match="unrelated"):
        with budget_errors():
            raise ValueError("unrelated")


@pytest.mark.parametrize(
    "batch,shared,check",
    [
        (clique_listing.count_batches, lambda pg: {}, "counting"),
        (clique_listing.enum_batches, lambda pg: {"scores": pg.scores}, "enumeration"),
        (heap_init_batches, lambda pg: {"scores": pg.scores, "prune": True}, "HeapInit"),
    ],
)
def test_fan_out_deadline_in_driver_mode(batch, shared, check):
    """An expired budget stops each per-source batch in driver mode,
    and the message names the batch's check."""
    pg = clique_listing.prepare(paper_fig2_edges(), 3)
    with pytest.raises(SimulatedOOT, match=f"{OOT_MARKER}: {check} deadline exceeded"):
        clique_listing.fan_out(
            None, pg.adj, 3, batch, "", budget=Budget(max_seconds=-1.0), **shared(pg)
        )


def test_prepare_honours_budget_in_driver_mode():
    with pytest.raises(SimulatedOOT, match="counting deadline exceeded"):
        clique_listing.prepare(paper_fig2_edges(), 3, budget=Budget(max_seconds=-1.0))
