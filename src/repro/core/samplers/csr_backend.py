"""CSR-array implementations of the paper's two sampling processes.

These functions mirror :class:`NeighborSampleSampler` and
:class:`NeighborExplorationSampler` over a frozen
:class:`~repro.graph.csr.CSRGraph` instead of the dict-based
:class:`RestrictedGraphAPI`.  They produce the very same
:class:`EdgeSampleSet` / :class:`NodeSampleSet` containers, so every
estimator downstream is backend-agnostic.

Fidelity guarantees:

* The walk is :func:`~repro.walks.batched.csr_walk`, which replays the
  reference kernels over the CSR rows, so these functions reproduce the
  reference sampler **bit for bit**: same seed, same trajectory, same
  samples, same charged API calls.
* Charged API calls are counted with the reference distinct-page
  semantics: one charge per distinct node whose neighbor-list page the
  process downloads (walk positions, plus — for NeighborExploration —
  the explored neighbors of labeled sampled nodes).  A *budget* makes
  the functions raise :class:`APIBudgetExceededError` exactly when the
  reference crawler would have run out mid-crawl.  Through
  :func:`run_csr_sampler` the accounting also persists across repeated
  calls on one wrapper (previously downloaded pages stay free), and a
  non-caching wrapper is rejected — ``cache=False`` charges every
  retrieval, which the distinct-page model cannot reproduce.  Only the
  aggregate count is reproduced: the per-node call breakdown
  (:attr:`APICallCounter.per_node`) is not tracked on this path.

Kernel support: every kernel of :mod:`repro.walks.kernels` is accepted
— the degree-stationary walks the proposed algorithms use *and* the
EX-* accept/reject kernels (``mhrw`` / ``mdrw`` / ``rcmh`` / ``gmd``),
which :class:`~repro.walks.batched.BatchedWalkEngine` applies as one
vectorized accept mask per step.  When a fleet walks a
non-degree-stationary kernel, the returned batches carry per-sample
stationary ``weights`` so re-weighted estimators can
importance-correct; the MH-family proposal probes are folded into the
per-trial ledgers.  (The EX-* baselines themselves walk the *line
graph* — their fleet path lives in :mod:`repro.baselines.fleet` on top
of :class:`~repro.walks.line_batched.BatchedLineWalkEngine`.)

The fleet classification paths touch the graph only through gathers
(label masks indexed by trajectories, ``gather_neighbors`` for the
exploration ledgers) and ``T(u)`` at the collected nodes, assembled
from the per-label neighbor counts — one whole-adjacency pass per
label, which dispatches to the chunked-gather fallback on
memory-mapped graphs (:meth:`CSRGraph.neighbor_mask_counts`) — so they
run unchanged over shm/mmap-backed CSR buffers
(:mod:`repro.graph.store`).
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

import numpy as np

from repro.exceptions import APIBudgetExceededError, ConfigurationError, WalkError
from repro.graph.csr import CSRGraph
from repro.graph.labeled_graph import Label, Node
from repro.utils.rng import RandomSource, ensure_numpy_rng, ensure_rng
from repro.utils.validation import check_non_negative_int, check_positive_int
from repro.walks.batched import (
    BatchedWalkEngine,
    DEGREE_STATIONARY_KERNELS,
    KernelLike,
    charge_distinct_pages,
    csr_walk,
    draw_start_index,
    kernel_stationary_weights,
    resolve_kernel_spec,
    run_packed_fleets,
)

from repro.core.samplers.base import (
    EdgeSample,
    EdgeSampleBatch,
    EdgeSampleSet,
    NodeSample,
    NodeSampleBatch,
    NodeSampleSet,
)
#: Walk-backend choices, shared by the samplers, the pipeline, the
#: experiment config and the CLI.
BACKENDS: Tuple[str, ...] = ("python", "csr")

#: Backends that existed once and now raise a :class:`ConfigurationError`
#: naming their removal (the CLI still accepts the names so the error
#: can say so).
RETIRED_BACKENDS: Tuple[str, ...] = ("compiled",)

#: Trial-execution choices for the experiment harness: one repetition at
#: a time through a fresh API wrapper, or all repetitions of a cell as
#: one vectorized walker fleet.
EXECUTIONS: Tuple[str, ...] = ("sequential", "fleet")

#: Walk-reuse choices for the sweep harness: fresh walks per cell, or
#: one max-budget fleet whose prefixes serve every smaller budget point
#: (and whose trajectories serve every target pair of a frequency
#: sweep) — O(max budget) walking instead of O(Σ budgets).
REUSES: Tuple[str, ...] = ("none", "prefix")


def validate_backend(backend: str) -> str:
    """Return *backend* or raise the shared unknown-backend error."""
    if backend in RETIRED_BACKENDS:
        raise ConfigurationError(
            f"backend {backend!r} was removed together with the numba "
            "kernel tier, whose speedup was never demonstrated; use 'csr', "
            "whose answers it matched bit for bit"
        )
    if backend not in BACKENDS:
        raise ConfigurationError(
            f"unknown backend {backend!r}; available: {', '.join(BACKENDS)}"
        )
    return backend


def validate_execution(execution: str) -> str:
    """Return *execution* or raise the shared unknown-execution error."""
    if execution not in EXECUTIONS:
        raise ConfigurationError(
            f"unknown execution {execution!r}; available: {', '.join(EXECUTIONS)}"
        )
    return execution


def validate_reuse(reuse: str) -> str:
    """Return *reuse* or raise the shared unknown-reuse error."""
    if reuse not in REUSES:
        raise ConfigurationError(
            f"unknown reuse {reuse!r}; available: {', '.join(REUSES)}"
        )
    return reuse


def validate_backend_and_kernel(backend: str, kernel) -> str:
    """Backend validation plus, for the CSR tiers, an eager kernel check.

    Shared by both sampler constructors so an unknown or
    under-parameterized kernel (e.g. a bare ``"mdrw"`` name without its
    ``max_degree``) fails at construction time, not mid-sample.
    """
    if validate_backend(backend) != "python":
        resolve_kernel_spec(kernel)
    return backend


def _run_walk(
    csr: CSRGraph,
    total_steps: int,
    start_node: Optional[Node],
    rng: RandomSource,
    kernel: KernelLike,
) -> Tuple[np.ndarray, np.ndarray]:
    """Walk ``total_steps`` steps; return ``(positions, downloaded_pages)``.

    *positions* is the start plus every position (length + 1);
    *downloaded_pages* lists the pages the reference crawler fetches,
    in fetch order — the positions themselves plus, for MH-family
    kernels, each step's probed proposal interleaved right after the
    position it was proposed from (``degree(proposal)`` fires between
    consecutive ``neighbors(current)`` calls), so budget-crossing
    accounting stays faithful even for rejected proposals.
    """
    # Normalise the rng up front so the start draw (which mirrors
    # RestrictedGraphAPI.random_node) and the walk consume one generator.
    generator = ensure_rng(rng)
    if start_node is None:
        start = draw_start_index(csr, generator)
    else:
        start = csr.index_of(start_node)
    path, probes = csr_walk(
        csr, total_steps, start, generator, kernel, return_probes=True
    )
    full = np.concatenate(([start], path))
    if probes is None:
        return full, full
    pages = np.empty(full.size + probes.size, dtype=np.int64)
    pages[0::2] = full
    pages[1::2] = probes
    return full, pages


def _charge_pages(
    pages: np.ndarray,
    budget: Optional[int],
    page_filter: Optional[np.ndarray],
) -> int:
    """Count the chargeable pages in *pages* and update *page_filter*.

    *page_filter* is the caller's "already downloaded" mask (one bool
    per CSR index); pages present in it are free, mirroring the
    reference wrapper's cache.  Delegates to
    :func:`charge_distinct_pages` for the crossing semantics (error
    reports ``budget + 1``; pages fetched before the crossing stay
    marked).
    """
    if budget is not None:
        check_non_negative_int(budget, "budget")
    if page_filter is None:
        # Standalone use: nothing was downloaded before this crawl.
        page_filter = np.zeros(int(pages.max()) + 1, dtype=bool)
    return charge_distinct_pages(pages, page_filter, budget)


def sample_edges_csr(
    csr: CSRGraph,
    t1: Label,
    t2: Label,
    k: int,
    burn_in: int = 0,
    rng: RandomSource = None,
    kernel: KernelLike = "simple",
    start_node: Optional[Node] = None,
    budget: Optional[int] = None,
    known_num_nodes: Optional[int] = None,
    known_num_edges: Optional[int] = None,
    page_filter: Optional[np.ndarray] = None,
) -> EdgeSampleSet:
    """NeighborSample (Algorithm 1, single-walk variant) on CSR arrays.

    Returns the same :class:`EdgeSampleSet` the reference sampler would:
    the edges traversed during the last ``k`` of ``burn_in + k`` steps,
    each classified as target / non-target via the label masks.
    *page_filter* marks pages already downloaded (free revisits); it is
    updated in place.  Charged-call parity holds for every kernel: an
    MH-family walk's probed proposals are charged in reference fetch
    order, rejected ones included.
    """
    check_positive_int(k, "k")
    check_non_negative_int(burn_in, "burn_in")
    full, pages = _run_walk(csr, burn_in + k, start_node, rng, kernel)

    sources = full[burn_in : burn_in + k]
    dests = full[burn_in + 1 :]
    loops = np.flatnonzero(sources == dests)
    if loops.size:
        # Accept/reject kernels can stay in place; NeighborSample needs a
        # traversed edge per collected step — same error as the reference.
        raise WalkError(
            "NeighborSample requires a kernel that traverses an edge at "
            f"every step, but step {int(loops[0])} was a self-loop"
        )
    m1 = csr.label_mask(t1)
    m2 = csr.label_mask(t2)
    is_target = (m1[sources] & m2[dests]) | (m2[sources] & m1[dests])

    # Every page the reference crawler downloads is a walk position or —
    # for MH-family kernels — a probed proposal; classification
    # endpoints are walk nodes, hence cache hits.
    charged = _charge_pages(pages, budget, page_filter)

    ids = csr.node_ids
    sample_set = EdgeSampleSet(
        num_edges=csr.num_edges if known_num_edges is None else known_num_edges,
        num_nodes=csr.num_nodes if known_num_nodes is None else known_num_nodes,
        target_labels=(t1, t2),
        api_calls_used=charged,
    )
    samples = sample_set.samples
    for index in range(k):
        samples.append(
            EdgeSample(
                u=ids[int(sources[index])],
                v=ids[int(dests[index])],
                is_target=bool(is_target[index]),
                step_index=index,
            )
        )
    return sample_set


def explore_nodes_csr(
    csr: CSRGraph,
    t1: Label,
    t2: Label,
    k: int,
    burn_in: int = 0,
    rng: RandomSource = None,
    kernel: KernelLike = "simple",
    start_node: Optional[Node] = None,
    budget: Optional[int] = None,
    known_num_nodes: Optional[int] = None,
    known_num_edges: Optional[int] = None,
    page_filter: Optional[np.ndarray] = None,
) -> NodeSampleSet:
    """NeighborExploration (Algorithm 2, single-walk variant) on CSR arrays.

    ``T(u)`` for the sampled nodes comes from the cached per-label
    neighbor counts (:meth:`CSRGraph.target_incident_counts`); the
    charged-call accounting adds the pages of explored neighbors, as the
    reference sampler does.
    *page_filter* marks pages already downloaded (free revisits); it is
    updated in place.  (On budget exhaustion, which pages count as
    fetched-before-crossing is approximated: explorations are accounted
    in node-index rather than sample order.)
    """
    check_positive_int(k, "k")
    check_non_negative_int(burn_in, "burn_in")
    full, walk_pages = _run_walk(csr, burn_in + k, start_node, rng, kernel)

    collected = full[burn_in + 1 :]
    m1 = csr.label_mask(t1)
    m2 = csr.label_mask(t2)
    has_label = m1[collected] | m2[collected]
    incident = csr.target_incident_counts(t1, t2, nodes=collected)

    labeled = np.unique(collected[has_label])
    if labeled.size:
        explored = [
            csr.indices[csr.indptr[i] : csr.indptr[i + 1]] for i in labeled
        ]
        pages = np.concatenate([walk_pages] + explored)
    else:
        pages = walk_pages
    charged = _charge_pages(pages, budget, page_filter)

    ids = csr.node_ids
    degrees = csr.degrees[collected]
    sample_set = NodeSampleSet(
        num_edges=csr.num_edges if known_num_edges is None else known_num_edges,
        num_nodes=csr.num_nodes if known_num_nodes is None else known_num_nodes,
        target_labels=(t1, t2),
        api_calls_used=charged,
    )
    samples = sample_set.samples
    for index in range(k):
        labeled_here = bool(has_label[index])
        samples.append(
            NodeSample(
                node=ids[int(collected[index])],
                degree=int(degrees[index]),
                has_target_label=labeled_here,
                incident_target_edges=int(incident[index]) if labeled_here else 0,
                step_index=index,
            )
        )
    return sample_set


def run_csr_sampler(
    api,
    sample_fn: Callable[..., object],
    t1: Label,
    t2: Label,
    k: int,
    burn_in: int,
    kernel: KernelLike,
    rng: RandomSource,
    start_node: Optional[Node],
):
    """Run a CSR sampling function through a :class:`RestrictedGraphAPI`.

    Shared by both sampler classes.  Keeps the wrapper's accounting in
    step with the reference path:

    * pages already in the wrapper's cache (downloaded by earlier calls,
      on either backend) are free — the wrapper's page mask is threaded
      through and updated in place;
    * on budget exhaustion the counter lands on ``budget + 1`` and the
      raised error reports the crossing attempt, exactly like
      :meth:`APICallCounter.charge`;
    * on success the charged calls are added to the wrapper's counter.

    Requires a caching wrapper: with ``cache=False`` the reference
    charges every retrieval, an accounting the distinct-page CSR model
    cannot reproduce.
    """
    if not api.cache_enabled:
        raise ConfigurationError(
            "backend='csr' models the distinct-page-download accounting of a "
            "caching crawler; build the RestrictedGraphAPI with cache=True or "
            "use backend='python'"
        )
    counter = api.counter
    remaining = None
    if counter.budget is not None:
        remaining = max(0, counter.budget - counter.calls)
    try:
        sample_set = sample_fn(
            api.to_csr(),
            t1,
            t2,
            k,
            burn_in=burn_in,
            rng=rng,
            kernel=kernel,
            start_node=start_node,
            budget=remaining,
            known_num_nodes=api.num_nodes,
            known_num_edges=api.num_edges,
            page_filter=api.downloaded_page_mask(),
        )
    except APIBudgetExceededError:
        counter.calls = counter.budget + 1  # mirror the reference counter
        raise APIBudgetExceededError(counter.budget, counter.calls) from None
    counter.calls += sample_set.api_calls_used
    sample_set.api_calls_used = api.api_calls
    return sample_set


# ----------------------------------------------------------------------
# fleet execution: every repetition of a table cell as one walker fleet
# ----------------------------------------------------------------------
def run_fleet_walk(
    csr: CSRGraph,
    k,
    repetitions: Optional[int] = None,
    burn_in: int = 0,
    rng: RandomSource = None,
    kernel: KernelLike = "simple",
):
    """Walk one node fleet, or — packed form — many at once.

    ``run_fleet_walk(csr, k, repetitions, burn_in, rng, kernel)`` walks
    *repetitions* independent walkers for ``burn_in + k`` transitions
    and returns their :class:`~repro.walks.batched.FleetWalkResult`.

    ``run_fleet_walk(csr, groups)`` takes a sequence of
    :class:`~repro.walks.batched.FleetGroup` and walks them all in one
    packed walk (:func:`~repro.walks.batched.run_packed_fleets`),
    returning one result — bit-identical to the group's solo fleet — or
    one :class:`WalkError` per group.
    """
    if isinstance(k, (list, tuple)):
        return run_packed_fleets(csr, k)
    check_positive_int(k, "k")
    check_positive_int(repetitions, "repetitions")
    check_non_negative_int(burn_in, "burn_in")
    engine = BatchedWalkEngine(csr, kernel=kernel, rng=ensure_numpy_rng(rng))
    return engine.run_fleet(repetitions, k, burn_in=burn_in)


def enforce_fleet_budget(charges: np.ndarray, budget: Optional[int]) -> None:
    """Per-walker budget check, mirroring :meth:`APICallCounter.charge`.

    Each walker stands for one repetition crawling through its own
    budgeted wrapper, so the first walker whose distinct-page ledger
    crosses *budget* is the crawl that would have died mid-walk.
    """
    if budget is None:
        return
    check_non_negative_int(budget, "budget")
    if charges.size and int(charges.max()) > budget:
        raise APIBudgetExceededError(budget, budget + 1)


#: Ledger-matrix size cap for the dense (fleet × |V|) boolean strategy;
#: 2^27 cells is 128 MB of bools, beyond which the sort-based encoding
#: takes over.
_MASK_LEDGER_MAX_CELLS = 1 << 27


def _exploration_charges(
    csr: CSRGraph,
    trajectories: np.ndarray,
    collected: np.ndarray,
    has_label: np.ndarray,
) -> np.ndarray:
    """Per-walker distinct pages: own trajectory ∪ own explored neighbors.

    Fully vectorized across the fleet, no per-walker Python loop.  The
    default strategy scatters every downloaded page into a dense
    ``(fleet, |V|)`` boolean ledger and row-sums it; when that matrix
    would be unreasonably large the pages are encoded as
    ``walker · |V| + page`` codes instead and counted with one global
    ``unique`` + ``bincount``.  Either way the (walker, labeled node)
    exploration pairs are deduplicated before their neighborhoods are
    gathered.
    """
    num_walkers = trajectories.shape[0]
    span = np.int64(csr.num_nodes)
    explorers = explored = None
    if has_label.any():
        rows, cols = np.nonzero(has_label)
        explore_pairs = np.unique(rows * span + collected[rows, cols])
        explorers = explore_pairs // span
        explored = explore_pairs % span

    if num_walkers * csr.num_nodes <= _MASK_LEDGER_MAX_CELLS:
        visited = np.zeros((num_walkers, csr.num_nodes), dtype=bool)
        visited[np.arange(num_walkers)[:, None], trajectories] = True
        if explored is not None:
            visited[
                np.repeat(explorers, csr.degrees[explored]),
                csr.gather_neighbors(explored),
            ] = True
        return visited.sum(axis=1).astype(np.int64)

    codes = (np.arange(num_walkers, dtype=np.int64)[:, None] * span + trajectories).ravel()
    if explored is not None:
        neighbor_codes = (
            np.repeat(explorers, csr.degrees[explored]) * span
            + csr.gather_neighbors(explored)
        )
        codes = np.concatenate([codes, neighbor_codes])
    distinct = np.unique(codes)
    return np.bincount(distinct // span, minlength=num_walkers).astype(np.int64)


def _fleet_weights(csr: CSRGraph, fleet, nodes: np.ndarray) -> Optional[np.ndarray]:
    """Per-sample stationary weights for non-degree-stationary fleets.

    The spec comes off the fleet itself
    (:attr:`~repro.walks.batched.FleetWalkResult.kernel`), so
    classification can never be handed a kernel that disagrees with the
    walk.  ``None`` for the simple / non-backtracking walks (their
    weights are the degrees, which the batches already carry); for the
    accept/reject kernels the importance weights a re-weighted
    estimator divides by.
    """
    spec = getattr(fleet, "kernel", None)
    if spec is None or spec.name in DEGREE_STATIONARY_KERNELS:
        return None
    return kernel_stationary_weights(spec, csr.degrees[nodes])


def classify_edge_fleet(
    csr: CSRGraph,
    fleet,
    t1: Label,
    t2: Label,
    budget: Optional[int] = None,
    known_num_nodes: Optional[int] = None,
    known_num_edges: Optional[int] = None,
) -> EdgeSampleBatch:
    """NeighborSample classification of an already-walked fleet.

    Separating the walk (:class:`~repro.walks.batched.FleetWalkResult`)
    from its classification is what the prefix-reuse sweep engine is
    built on: one fleet can be classified against many target pairs and
    truncated (:meth:`FleetWalkResult.prefix`) to many budgets — the
    walk is label-agnostic, only this step reads the masks.

    When the fleet was walked with a non-degree-stationary
    (EX-*-style) kernel — read off :attr:`FleetWalkResult.kernel`, so
    no mismatched spec can be injected — the batch carries the
    per-sample stationary ``weights`` of the *source* nodes, the
    importance weights a re-weighted estimator needs.
    """
    sources = fleet.sources
    dests = fleet.collected
    loops = np.flatnonzero((sources == dests).any(axis=1))
    if loops.size:
        # Accept/reject kernels can stay in place; NeighborSample needs
        # a traversed edge per collected step — same error the scalar
        # paths raise (walker index reported instead of step index).
        raise WalkError(
            "NeighborSample requires a kernel that traverses an edge at "
            f"every step, but walker {int(loops[0])} self-looped"
        )
    m1 = csr.label_mask(t1)
    m2 = csr.label_mask(t2)
    is_target = (m1[sources] & m2[dests]) | (m2[sources] & m1[dests])

    # As on the sequential CSR path, every page a NeighborSample crawler
    # downloads belongs to a walk position — plus, for MH-family
    # kernels, the probed proposals, which the fleet's ledger includes.
    charges = fleet.charged_calls()
    enforce_fleet_budget(charges, budget)

    return EdgeSampleBatch(
        sources=sources,
        dests=dests,
        is_target=is_target,
        num_edges=csr.num_edges if known_num_edges is None else known_num_edges,
        num_nodes=csr.num_nodes if known_num_nodes is None else known_num_nodes,
        target_labels=(t1, t2),
        api_calls=charges,
        node_ids=csr.node_ids,
        trajectories=fleet.trajectories,
        weights=_fleet_weights(csr, fleet, sources),
    )


def classify_node_fleet(
    csr: CSRGraph,
    fleet,
    t1: Label,
    t2: Label,
    budget: Optional[int] = None,
    known_num_nodes: Optional[int] = None,
    known_num_edges: Optional[int] = None,
) -> NodeSampleBatch:
    """NeighborExploration classification of an already-walked fleet.

    ``T(u)`` is asked for at the collected nodes only, assembled from
    the cached per-label neighbor counts
    (:meth:`CSRGraph.target_incident_counts`); the per-trial
    charged-call ledger adds the pages of the neighbors each trial
    explores around its labeled sampled nodes — recomputed per
    classification because which nodes get explored depends on the
    target pair.  When the fleet walked a non-degree-stationary kernel
    (:attr:`FleetWalkResult.kernel`) the batch also carries the
    collected nodes' stationary ``weights`` (see
    :func:`classify_edge_fleet`).
    """
    collected = fleet.collected
    m1 = csr.label_mask(t1)
    m2 = csr.label_mask(t2)
    has_label = m1[collected] | m2[collected]
    incident = csr.target_incident_counts(t1, t2, nodes=collected)

    # MH-family kernels probed their proposals' pages too; folding the
    # probe columns into the page matrix charges them alongside the
    # trajectory (the ledger helper only cares that each row lists the
    # walker's downloaded pages).
    pages = fleet.trajectories
    if getattr(fleet, "probed", None) is not None:
        pages = np.concatenate([pages, fleet.probed], axis=1)
    charges = _exploration_charges(csr, pages, collected, has_label)
    enforce_fleet_budget(charges, budget)

    return NodeSampleBatch(
        nodes=collected,
        degrees=csr.degrees[collected],
        has_target_label=has_label,
        incident_target_edges=incident,
        num_edges=csr.num_edges if known_num_edges is None else known_num_edges,
        num_nodes=csr.num_nodes if known_num_nodes is None else known_num_nodes,
        target_labels=(t1, t2),
        api_calls=charges,
        node_ids=csr.node_ids,
        trajectories=fleet.trajectories,
        weights=_fleet_weights(csr, fleet, collected),
    )


def sample_edges_fleet(
    csr: CSRGraph,
    t1: Label,
    t2: Label,
    k: int,
    repetitions: int,
    burn_in: int = 0,
    rng: RandomSource = None,
    kernel: KernelLike = "simple",
    budget: Optional[int] = None,
    known_num_nodes: Optional[int] = None,
    known_num_edges: Optional[int] = None,
) -> EdgeSampleBatch:
    """NeighborSample for *repetitions* independent trials in one fleet.

    One walker per trial, advanced with vectorized numpy steps (burn-in
    included); the result is the array-native
    :class:`~repro.core.samplers.base.EdgeSampleBatch` — per-trial
    source/destination/target-flag rows — plus a per-trial charged-call
    ledger with the same distinct-page semantics as running each trial
    through its own caching :class:`RestrictedGraphAPI`.
    """
    fleet = run_fleet_walk(csr, k, repetitions, burn_in, rng, kernel)
    return classify_edge_fleet(
        csr, fleet, t1, t2,
        budget=budget,
        known_num_nodes=known_num_nodes,
        known_num_edges=known_num_edges,
    )


def explore_nodes_fleet(
    csr: CSRGraph,
    t1: Label,
    t2: Label,
    k: int,
    repetitions: int,
    burn_in: int = 0,
    rng: RandomSource = None,
    kernel: KernelLike = "simple",
    budget: Optional[int] = None,
    known_num_nodes: Optional[int] = None,
    known_num_edges: Optional[int] = None,
) -> NodeSampleBatch:
    """NeighborExploration for *repetitions* independent trials in one fleet.

    ``T(u)`` is asked for at the collected nodes only, assembled from
    the cached per-label neighbor counts
    (:meth:`CSRGraph.target_incident_counts`); the per-trial
    charged-call ledger adds the pages of the neighbors each trial
    explores around its labeled sampled nodes, exactly like the
    reference sampler running through a fresh caching wrapper.
    """
    fleet = run_fleet_walk(csr, k, repetitions, burn_in, rng, kernel)
    return classify_node_fleet(
        csr, fleet, t1, t2,
        budget=budget,
        known_num_nodes=known_num_nodes,
        known_num_edges=known_num_edges,
    )


__all__ = [
    "BACKENDS",
    "RETIRED_BACKENDS",
    "EXECUTIONS",
    "REUSES",
    "validate_backend",
    "validate_execution",
    "validate_reuse",
    "run_fleet_walk",
    "sample_edges_csr",
    "explore_nodes_csr",
    "classify_edge_fleet",
    "classify_node_fleet",
    "sample_edges_fleet",
    "explore_nodes_fleet",
    "run_csr_sampler",
]
