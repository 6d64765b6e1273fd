"""Shared fixtures for the test suite.

The fixtures provide a spectrum of graphs:

* tiny hand-built graphs with exactly known target-edge counts (for
  exact assertions),
* a mid-sized synthetic OSN with gender labels (for statistical
  assertions about the estimators),
* a rare-label OSN (for the NeighborExploration-vs-NeighborSample
  comparisons).
"""

from __future__ import annotations

import pytest


def pytest_configure(config):
    """Register the marker splitting statistical tests from the fast tier.

    Run the fast tier with ``pytest -m "not slow"``, the statistical
    tier with ``pytest -m slow`` (see ``scripts/run_tests.sh``); a plain
    ``pytest`` run executes both.
    """
    config.addinivalue_line(
        "markers",
        "slow: statistical / multi-seed tests, excluded from the fast tier",
    )


from repro.datasets.labeling import assign_binary_labels, assign_zipf_labels
from repro.datasets.synthetic import powerlaw_cluster_osn
from repro.graph.api import RestrictedGraphAPI
from repro.graph.labeled_graph import LabeledGraph


@pytest.fixture
def triangle_graph() -> LabeledGraph:
    """Three nodes, three edges; node 1 and 2 are 'a', node 3 is 'b'.

    Target edges for ('a', 'b'): (1,3) and (2,3) -> F = 2.
    """
    graph = LabeledGraph()
    graph.add_edge(1, 2)
    graph.add_edge(2, 3)
    graph.add_edge(1, 3)
    graph.set_labels(1, ["a"])
    graph.set_labels(2, ["a"])
    graph.set_labels(3, ["b"])
    return graph


@pytest.fixture
def path_graph() -> LabeledGraph:
    """Path 1-2-3-4 with alternating labels; F(('x','y')) = 3."""
    graph = LabeledGraph()
    graph.add_edge(1, 2)
    graph.add_edge(2, 3)
    graph.add_edge(3, 4)
    graph.set_labels(1, ["x"])
    graph.set_labels(2, ["y"])
    graph.set_labels(3, ["x"])
    graph.set_labels(4, ["y"])
    return graph


@pytest.fixture
def star_graph() -> LabeledGraph:
    """Star with center 0 ('hub') and 5 leaves ('leaf'); F = 5."""
    graph = LabeledGraph()
    for leaf in range(1, 6):
        graph.add_edge(0, leaf)
        graph.set_labels(leaf, ["leaf"])
    graph.set_labels(0, ["hub"])
    return graph


@pytest.fixture(scope="session")
def gender_osn() -> LabeledGraph:
    """A 600-node power-law OSN with balanced binary gender labels."""
    graph = powerlaw_cluster_osn(600, 6, 0.3, rng=11)
    assign_binary_labels(graph, 0.5, labels=(1, 2), rng=12)
    return graph


@pytest.fixture(scope="session")
def rare_label_osn() -> LabeledGraph:
    """A 900-node power-law OSN with Zipf location labels (rare target pairs)."""
    graph = powerlaw_cluster_osn(900, 8, 0.3, rng=21)
    assign_zipf_labels(graph, num_labels=40, exponent=1.0, rng=22)
    return graph


@pytest.fixture
def gender_api(gender_osn) -> RestrictedGraphAPI:
    """Restricted API over the gender OSN (fresh counter per test)."""
    return RestrictedGraphAPI(gender_osn)


@pytest.fixture
def neighbor_passes(monkeypatch) -> list:
    """Spy recording every whole-adjacency neighbor pass of any CSR graph.

    Each :meth:`CSRGraph.neighbor_mask_counts` call appends the number
    of mask hits; clear the list to start counting at a later point.
    """
    from repro.graph.csr import CSRGraph

    calls: list = []
    original = CSRGraph.neighbor_mask_counts

    def spy(self, mask):
        calls.append(int(mask.sum()))
        return original(self, mask)

    monkeypatch.setattr(CSRGraph, "neighbor_mask_counts", spy)
    return calls
