"""Property-based tests for the labeled-graph substrate."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.cleaning import connected_components, deduplicate_edges, largest_connected_component
from repro.graph.csr import CSRGraph
from repro.graph.labeled_graph import LabeledGraph
from repro.graph.statistics import (
    _count_target_edges_dict,
    count_target_edges,
    target_incident_counts,
)

# Edge lists over a small node universe so duplicates and self-loops appear often.
edge_lists = st.lists(
    st.tuples(st.integers(0, 15), st.integers(0, 15)), min_size=1, max_size=60
)
label_values = st.sampled_from(["a", "b", "c"])


def build_graph(edges, labels_by_node):
    graph = LabeledGraph()
    for u, v in edges:
        if u != v:
            graph.add_edge(u, v)
    for node in graph.nodes():
        graph.set_labels(node, [labels_by_node(node)])
    return graph


@given(edges=edge_lists)
@settings(max_examples=60, deadline=None)
def test_handshake_lemma(edges):
    """Sum of degrees equals twice the number of edges, whatever we insert."""
    graph = LabeledGraph()
    for u, v in edges:
        if u != v:
            graph.add_edge(u, v)
    assert sum(graph.degree(node) for node in graph.nodes()) == 2 * graph.num_edges


@given(edges=edge_lists)
@settings(max_examples=60, deadline=None)
def test_edges_iterator_matches_edge_count(edges):
    graph = LabeledGraph()
    for u, v in edges:
        if u != v:
            graph.add_edge(u, v)
    listed = list(graph.edges())
    assert len(listed) == graph.num_edges
    assert len({frozenset(edge) for edge in listed}) == graph.num_edges


@given(edges=edge_lists, seed=st.integers(0, 2**16))
@settings(max_examples=60, deadline=None)
def test_target_incident_counts_sum_to_twice_f(edges, seed):
    """Σ_u T(u) = 2F for any graph and any labeling."""
    import random

    rng = random.Random(seed)
    graph = build_graph(edges, lambda node: rng.choice(["a", "b", "c"]))
    if graph.num_nodes == 0:
        return
    count = count_target_edges(graph, "a", "b")
    incident = target_incident_counts(graph, "a", "b")
    assert sum(incident.values()) == 2 * count


@given(edges=edge_lists, seed=st.integers(0, 2**16))
@settings(max_examples=60, deadline=None)
def test_target_count_symmetry(edges, seed):
    """F(t1, t2) = F(t2, t1)."""
    import random

    rng = random.Random(seed)
    graph = build_graph(edges, lambda node: rng.choice(["a", "b", "c"]))
    if graph.num_nodes == 0:
        return
    assert count_target_edges(graph, "a", "b") == count_target_edges(graph, "b", "a")


@given(edges=edge_lists)
@settings(max_examples=60, deadline=None)
def test_deduplicate_is_idempotent(edges):
    once = deduplicate_edges(edges)
    twice = deduplicate_edges(once)
    assert once == twice


@given(edges=edge_lists)
@settings(max_examples=60, deadline=None)
def test_components_partition_the_nodes(edges):
    graph = LabeledGraph()
    for u, v in edges:
        if u != v:
            graph.add_edge(u, v)
    if graph.num_nodes == 0:
        return
    components = connected_components(graph)
    all_nodes = [node for component in components for node in component]
    assert len(all_nodes) == graph.num_nodes
    assert set(all_nodes) == set(graph.nodes())
    # sizes are non-increasing
    sizes = [len(component) for component in components]
    assert sizes == sorted(sizes, reverse=True)


@given(edges=edge_lists)
@settings(max_examples=60, deadline=None)
def test_largest_component_is_connected_subgraph(edges):
    graph = LabeledGraph()
    for u, v in edges:
        if u != v:
            graph.add_edge(u, v)
    if graph.num_nodes == 0:
        return
    lcc = largest_connected_component(graph)
    assert lcc.num_nodes <= graph.num_nodes
    assert lcc.num_edges <= graph.num_edges
    assert len(connected_components(lcc)) <= 1 or lcc.num_nodes == 0


@st.composite
def labeled_csr_graphs(draw):
    """A CSR graph labeled by ``label_array`` or by ``label_sets``.

    Set labels include the empty set and nodes carrying several labels
    (the inclusion–exclusion case); array labels include a value no
    pair asks for, so some nodes are unlabeled for every pair.
    """
    n = draw(st.integers(1, 12))
    edge = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges = draw(st.lists(edge, min_size=n, max_size=60))
    edges = np.array(edges, dtype=np.int64).reshape(-1, 2)
    if draw(st.booleans()):
        labels = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        graph = CSRGraph.from_edge_array(edges, num_nodes=n, label_array=np.array(labels))
        names = (1, 2, 3)
    else:
        graph = CSRGraph.from_edge_array(edges, num_nodes=n)
        label_sets = st.sampled_from([set(), {"a"}, {"b"}, {"c"}, {"a", "b"}, {"a", "b", "c"}])
        labels = draw(st.lists(label_sets, min_size=n, max_size=n))
        graph = graph.with_labels(label_sets=labels)
        names = ("a", "b", "c")
    first, second = draw(st.sampled_from([(0, 1), (1, 0), (0, 2), (0, 0), (2, 2)]))
    t1, t2 = names[first], names[second]
    nodes = draw(st.lists(st.integers(0, n - 1), max_size=24))
    return graph, t1, t2, np.array(nodes, dtype=np.int64)


@given(case=labeled_csr_graphs())
@settings(max_examples=150, deadline=None)
def test_csr_label_statistics_match_dict_reference(case):
    """Per-label neighbor counts reproduce the dict reference exactly."""
    csr, t1, t2, nodes = case
    reference = csr.to_labeled_graph()
    assert csr.count_target_edges(t1, t2) == _count_target_edges_dict(reference, t1, t2)
    full = csr.target_incident_counts(t1, t2)
    expected = target_incident_counts(reference, t1, t2)
    assert full.tolist() == [expected[node] for node in range(csr.num_nodes)]
    # T at an index array (repeats, unlabeled nodes, any shape) is the
    # full array gathered there.
    assert np.array_equal(csr.target_incident_counts(t1, t2, nodes=nodes), full[nodes])
    if nodes.size % 2 == 0:
        grid = nodes.reshape(2, -1)
        assert np.array_equal(csr.target_incident_counts(t1, t2, nodes=grid), full[grid])
