"""Exact (full-access) graph statistics and ground-truth counts.

The estimators never use these — they only exist to

* provide the ground truth ``F`` against which NRMSE is computed,
* compute the oracle sample-size bounds of Theorems 4.1–4.5,
* summarise datasets for Table 1 of the paper.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, Hashable, List, Set, Tuple

import numpy as np

from repro.exceptions import EmptyGraphError
from repro.graph.csr import CSRGraph, csr_view
from repro.graph.labeled_graph import Label, LabeledGraph, Node


@dataclass(frozen=True)
class GraphSummary:
    """Dataset summary in the spirit of the paper's Table 1."""

    name: str
    num_nodes: int
    num_edges: int
    max_degree: int
    average_degree: float
    num_distinct_labels: int

    def as_row(self) -> Tuple[str, int, int, int, float, int]:
        """Return the summary as a plain tuple, handy for table rendering."""
        return (
            self.name,
            self.num_nodes,
            self.num_edges,
            self.max_degree,
            round(self.average_degree, 2),
            self.num_distinct_labels,
        )


def summarize_graph(graph: LabeledGraph, name: str = "graph") -> GraphSummary:
    """Produce a :class:`GraphSummary` (Table 1 row) for *graph*.

    Works on both substrates: the dict :class:`LabeledGraph` and the
    array-native :class:`CSRGraph` (degree aggregates come straight off
    the ``degrees`` array there).
    """
    if graph.num_nodes == 0:
        raise EmptyGraphError("cannot summarise an empty graph")
    if isinstance(graph, CSRGraph):
        max_degree = int(graph.degrees.max()) if graph.num_nodes else 0
        average_degree = 2 * graph.num_edges / graph.num_nodes
    else:
        max_degree = graph.max_degree()
        average_degree = graph.average_degree()
    return GraphSummary(
        name=name,
        num_nodes=graph.num_nodes,
        num_edges=graph.num_edges,
        max_degree=max_degree,
        average_degree=average_degree,
        num_distinct_labels=len(graph.all_labels()),
    )


def count_target_edges(graph: LabeledGraph, t1: Label, t2: Label) -> int:
    """Exact ground-truth count ``F`` of target edges for ``(t1, t2)``.

    An edge ``(u, v)`` is a target edge when one endpoint carries ``t1``
    and the other carries ``t2`` (paper §3).  When ``t1 == t2`` this
    degenerates to "both endpoints carry the label", which the definition
    also covers.

    Counting goes through the graph's frozen CSR view (label masks, no
    Python edge loop) and is cached per ``(graph, pair)``: the view is
    shared via :func:`repro.graph.csr.csr_view` and caches one
    neighbor-count array per label, so a table/sweep harness re-asking
    for the same ground truth pays nothing, and a new pair over
    already-seen labels pays no whole-graph pass.  Graph-likes that
    are not :class:`LabeledGraph` / :class:`CSRGraph` instances fall
    back to the dict edge loop.
    """
    if isinstance(graph, CSRGraph):
        return graph.count_target_edges(t1, t2)
    if isinstance(graph, LabeledGraph):
        return csr_view(graph).count_target_edges(t1, t2)
    return _count_target_edges_dict(graph, t1, t2)


def _count_target_edges_dict(graph, t1: Label, t2: Label) -> int:
    """Reference edge-loop counter for dict-backed graph-likes."""
    count = 0
    for u, v in graph.edges():
        lu = graph.labels_of(u)
        lv = graph.labels_of(v)
        if (t1 in lu and t2 in lv) or (t2 in lu and t1 in lv):
            count += 1
    return count


def target_edge_fraction(graph: LabeledGraph, t1: Label, t2: Label) -> float:
    """Relative target-edge count ``F / |E|`` (the x-axis of Figures 1–2)."""
    if graph.num_edges == 0:
        raise EmptyGraphError("target edge fraction of an edgeless graph is undefined")
    return count_target_edges(graph, t1, t2) / graph.num_edges


def target_incident_count(graph: LabeledGraph, node: Node, t1: Label, t2: Label) -> int:
    """Exact ``T(u)`` — number of target edges incident to *node* (paper §4.2)."""
    return graph.target_edges_incident_to(node, t1, t2)


def target_incident_counts(graph: LabeledGraph, t1: Label, t2: Label) -> Dict[Node, int]:
    """``T(u)`` for every node; the sum over all nodes equals ``2 F``."""
    return {
        node: graph.target_edges_incident_to(node, t1, t2) for node in graph.nodes()
    }


def nodes_covering_target_edges(graph: LabeledGraph, t1: Label, t2: Label) -> Set[Node]:
    """The node set ``Q`` from §5.3: nodes incident to at least one target edge."""
    return {
        node
        for node in graph.nodes()
        if graph.target_edges_incident_to(node, t1, t2) > 0
    }


def degree_histogram(graph: LabeledGraph) -> Dict[int, int]:
    """Map degree value -> number of nodes with that degree."""
    histogram: Counter = Counter()
    for node in graph.nodes():
        histogram[graph.degree(node)] += 1
    return dict(histogram)


def label_histogram(graph: LabeledGraph) -> Dict[Label, int]:
    """Map label -> number of nodes carrying that label."""
    histogram: Counter = Counter()
    for node in graph.nodes():
        for label in graph.labels_of(node):
            histogram[label] += 1
    return dict(histogram)


def edge_label_histogram(graph: LabeledGraph) -> Dict[Tuple[Label, Label], int]:
    """Count edges per unordered label pair.

    For an edge ``(u, v)`` every pair ``(a, b)`` with ``a`` a label of
    ``u`` and ``b`` a label of ``v`` contributes one count to the
    canonicalised (sorted) pair.  This is how the experiment section
    enumerates the "thousands of edge labels we can choose" in Pokec,
    Orkut and LiveJournal, from which target labels are drawn per
    frequency quartile.

    A :class:`CSRGraph` carrying a one-label-per-node array is counted
    fully vectorized (pair codes + one sort); other CSR graphs fall
    back to a per-edge loop over the arrays, dict graphs to the
    reference loop.
    """
    if isinstance(graph, CSRGraph):
        label_array = graph.label_array()
        if label_array is not None:
            return _edge_label_histogram_array(graph, label_array)
        return _edge_label_histogram_csr_sets(graph)
    histogram: Counter = Counter()
    for u, v in graph.edges():
        lu = graph.labels_of(u)
        lv = graph.labels_of(v)
        pairs: Set[Tuple[Label, Label]] = set()
        for a in lu:
            for b in lv:
                pairs.add(_canonical_pair(a, b))
        for pair in pairs:
            histogram[pair] += 1
    return dict(histogram)


def _edge_label_histogram_array(
    csr: CSRGraph, label_array: np.ndarray
) -> Dict[Tuple[Label, Label], int]:
    """Vectorized histogram for integer-array-labeled CSR graphs.

    Each undirected edge appears once (source index < neighbor index in
    the flat adjacency); its canonical label pair becomes one integer
    code and the counts are adjacent run lengths after a single sort.
    """
    sources = np.repeat(
        np.arange(csr.num_nodes, dtype=np.int64), np.asarray(csr.degrees)
    )
    once = sources < csr.indices
    a = label_array[sources[once]].astype(np.int64)
    b = label_array[csr.indices[once]].astype(np.int64)
    if a.size == 0:
        return {}
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    base = int(lo.min())
    span = int(hi.max()) - base + 1
    codes = np.sort((lo - base) * span + (hi - base))
    boundaries = np.flatnonzero(
        np.concatenate(([True], codes[1:] != codes[:-1]))
    )
    counts = np.diff(np.concatenate((boundaries, [codes.size])))
    distinct = codes[boundaries]
    return {
        (int(code // span + base), int(code % span + base)): int(count)
        for code, count in zip(distinct, counts)
    }


def _edge_label_histogram_csr_sets(csr: CSRGraph) -> Dict[Tuple[Label, Label], int]:
    """Reference per-edge loop over CSR arrays (set-labeled graphs)."""
    histogram: Counter = Counter()
    indptr, indices, _ = csr.adjacency_lists()
    for i in range(csr.num_nodes):
        li = csr.labels_of(i)
        for j in indices[indptr[i] : indptr[i + 1]]:
            if i < j:
                pairs: Set[Tuple[Label, Label]] = set()
                for a in li:
                    for b in csr.labels_of(j):
                        pairs.add(_canonical_pair(a, b))
                for pair in pairs:
                    histogram[pair] += 1
    return dict(histogram)


def _canonical_pair(a: Label, b: Label) -> Tuple[Label, Label]:
    """Order a label pair deterministically so (a,b) and (b,a) collapse."""
    try:
        return (a, b) if a <= b else (b, a)  # type: ignore[operator]
    except TypeError:
        return (a, b) if repr(a) <= repr(b) else (b, a)


def label_pair_by_frequency_quartile(
    graph: LabeledGraph, quartiles: int = 4
) -> List[List[Tuple[Tuple[Label, Label], int]]]:
    """Split all edge-label pairs into frequency quartiles (paper §5.2).

    The paper orders edge labels by target-edge count ascending, splits
    them into four equal parts and samples one label pair per part.  The
    returned list has *quartiles* buckets, each a list of
    ``((t1, t2), count)`` entries sorted ascending by count.
    """
    if quartiles <= 0:
        raise ValueError(f"quartiles must be positive, got {quartiles}")
    histogram = sorted(edge_label_histogram(graph).items(), key=lambda item: item[1])
    if not histogram:
        return [[] for _ in range(quartiles)]
    buckets: List[List[Tuple[Tuple[Label, Label], int]]] = []
    size = max(1, len(histogram) // quartiles)
    for index in range(quartiles):
        start = index * size
        end = (index + 1) * size if index < quartiles - 1 else len(histogram)
        buckets.append(histogram[start:end])
    return buckets


__all__ = [
    "GraphSummary",
    "summarize_graph",
    "count_target_edges",
    "target_edge_fraction",
    "target_incident_count",
    "target_incident_counts",
    "nodes_covering_target_edges",
    "degree_histogram",
    "label_histogram",
    "edge_label_histogram",
    "label_pair_by_frequency_quartile",
]
