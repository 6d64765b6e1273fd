"""Random walks over a :class:`~repro.graph.csr.CSRGraph`.

Two execution styles live here, both sharing the CSR arrays:

* :func:`csr_walk` — one walker, replaying the reference kernels of
  :mod:`repro.walks.kernels` over the CSR rows: each step is the kernel
  object's own ``step``, so a seeded walk equals the reference dict
  engine (:class:`repro.walks.engine.RandomWalk`) **step for step**.
* :class:`BatchedWalkEngine` — ``N`` independent walkers advanced one
  numpy-vectorized step at a time, for throughput workloads (fleet
  simulation, variance studies, benchmarks).  It walks as a pack of
  one: :func:`run_packed_fleets` advances several independent fleets
  (:class:`FleetGroup` — each with its own generator, kernel, width and
  length) with one vectorized step, each bit-identical to its solo
  fleet, because narrow fleets are dispatch-bound.

Both support every kernel of :mod:`repro.walks.kernels`: the two
degree-stationary kernels the paper's proposed algorithms use
(``simple``, ``non_backtracking``) *and* the four accept/reject
baseline kernels of the EX-* adaptations (``mhrw``, ``mdrw``,
``rcmh``, ``gmd``), which stay in place (self-loop) on rejection; the
batched engine applies their acceptance tests as one vectorized
accept/reject mask.  Charged API calls follow the same
distinct-page-download semantics as
:class:`repro.graph.api.RestrictedGraphAPI` with caching on: fetching
a page (neighbor list) of a node is charged once per distinct node,
revisits are free, and exceeding a budget raises
:class:`~repro.exceptions.APIBudgetExceededError`.  The MH-family
kernels (``mhrw``, and ``rcmh`` with ``alpha > 0``) additionally
*probe* their proposal's page to evaluate the acceptance ratio, so
rejected proposals are charged too — exactly like the reference
kernel's ``degree(proposal)`` call.

Buffer stores: the batched engine reads the graph only through numpy
*gathers* (``indices[indptr[current] + offsets]``, ``degrees[nodes]``),
so it runs unchanged over shared-memory or memory-mapped CSR buffers
(:mod:`repro.graph.store`) — a memmapped adjacency faults in just the
pages the fleet touches and is never densified.  Only the scalar
single-walker path (:func:`csr_walk`) materialises Python adjacency
lists via :meth:`CSRGraph.neighbor_rows`; whole-array label passes
use the chunked-gather fallback documented on
:meth:`CSRGraph.neighbor_mask_counts`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.exceptions import (
    APIBudgetExceededError,
    ConfigurationError,
    EmptyGraphError,
    WalkError,
)
from repro.graph.csr import CSRGraph
from repro.utils.rng import RandomSource, ensure_numpy_rng, ensure_rng
from repro.utils.validation import (
    check_in_range,
    check_non_negative_int,
    check_positive,
    check_positive_int,
)
from repro.walks.engine import WalkResult
from repro.walks.kernels import (
    GeneralMaximumDegreeKernel,
    MaximumDegreeKernel,
    MetropolisHastingsKernel,
    NonBacktrackingKernel,
    RejectionControlledMHKernel,
    SimpleRandomWalkKernel,
    TransitionKernel,
)

#: The kernels whose stationary law is proportional to degree — the
#: walks the paper's proposed algorithms run.
DEGREE_STATIONARY_KERNELS: Tuple[str, ...] = ("simple", "non_backtracking")

#: The accept/reject kernels of the EX-* baselines (Li et al.), applied
#: as a single vectorized accept mask per fleet step.
BASELINE_CSR_KERNELS: Tuple[str, ...] = ("mhrw", "mdrw", "rcmh", "gmd")

#: Kernel names the CSR backend can vectorize.
SUPPORTED_CSR_KERNELS: Tuple[str, ...] = (
    DEGREE_STATIONARY_KERNELS + BASELINE_CSR_KERNELS
)

KernelLike = Union[None, str, object]


@dataclass(frozen=True)
class KernelSpec:
    """Array-backend description of one transition kernel.

    The vectorized engines cannot call the object kernels of
    :mod:`repro.walks.kernels` per step, so a kernel is reduced to its
    name plus the scalar knobs the accept test and the stationary
    weights need:

    * ``max_degree`` — the (upper bound on the) maximum degree required
      by ``mdrw`` / ``gmd``; on the EX-* path this is the maximum
      degree of the *line graph*.
    * ``alpha`` — the ``rcmh`` interpolation knob (``0`` = simple
      random walk, ``1`` = full Metropolis–Hastings).
    * ``delta`` — the ``gmd`` degree-cap knob (``1`` recovers ``mdrw``).
    """

    name: str
    max_degree: float = 0.0
    alpha: float = 0.2
    delta: float = 0.5

    def __post_init__(self) -> None:
        if self.name not in SUPPORTED_CSR_KERNELS:
            raise ConfigurationError(
                f"unsupported CSR kernel {self.name!r}; "
                f"supported: {', '.join(SUPPORTED_CSR_KERNELS)}"
            )
        if self.name in ("mdrw", "gmd"):
            check_positive(self.max_degree, "max_degree")
        if self.name == "rcmh":
            check_in_range(self.alpha, "alpha", 0.0, 1.0)
        if self.name == "gmd":
            check_in_range(self.delta, "delta", 0.0, 1.0)
            if self.delta == 0.0:
                raise ConfigurationError(
                    "delta must be strictly positive for the GMD walk"
                )

    @property
    def probes_proposals(self) -> bool:
        """Whether the accept test reads the *proposal's* page.

        The MH acceptance ratio needs ``d(v)`` of the proposed node, so
        the reference kernel issues a ``degree(proposal)`` API call even
        when the proposal is rejected; the fleet ledgers must charge
        those probes too.  The MD-family kernels decide from the
        *current* degree alone and never touch the proposal's page.
        """
        return self.name == "mhrw" or (self.name == "rcmh" and self.alpha > 0.0)

    @property
    def draws_accept(self) -> bool:
        """Whether each step consumes an accept uniform per walker.

        True exactly when :func:`kernel_move_probabilities` returns an
        array: the degree-stationary kernels and ``rcmh`` at
        ``alpha = 0`` always move and draw nothing.
        """
        if self.name in DEGREE_STATIONARY_KERNELS:
            return False
        return not (self.name == "rcmh" and self.alpha == 0.0)


def resolve_csr_kernel(kernel: KernelLike) -> str:
    """Normalise *kernel* (name, spec or kernel instance) to a supported name.

    Every kernel of :mod:`repro.walks.kernels` is vectorizable; unknown
    names/objects raise :class:`ConfigurationError`.  Use
    :func:`resolve_kernel_spec` when the kernel's knobs (``max_degree``,
    ``alpha``, ``delta``) are needed too.
    """
    return resolve_kernel_spec(kernel, require_parameters=False).name


def resolve_kernel_spec(
    kernel: KernelLike, require_parameters: bool = True
) -> KernelSpec:
    """Normalise *kernel* to a :class:`KernelSpec`.

    Accepts a name string, a :class:`KernelSpec`, or a kernel instance
    from :mod:`repro.walks.kernels` (whose ``max_degree`` / ``alpha`` /
    ``delta`` attributes are read off the object).  The bare names
    ``"mdrw"`` / ``"gmd"`` carry no maximum degree, which the walk
    itself needs; with *require_parameters* they raise a
    :class:`ConfigurationError` pointing at the spec/instance forms
    (name-level validation passes ``require_parameters=False``).
    """
    if kernel is None:
        return KernelSpec("simple")
    if isinstance(kernel, KernelSpec):
        return kernel
    if isinstance(kernel, str):
        if kernel not in SUPPORTED_CSR_KERNELS:
            raise ConfigurationError(
                f"unsupported CSR kernel {kernel!r}; "
                f"supported: {', '.join(SUPPORTED_CSR_KERNELS)}"
            )
        if kernel in ("mdrw", "gmd") and require_parameters:
            raise ConfigurationError(
                f"kernel {kernel!r} needs a maximum degree; pass a "
                "KernelSpec or a kernel instance instead of the bare name"
            )
        return KernelSpec(kernel, max_degree=1.0 if kernel in ("mdrw", "gmd") else 0.0)
    name = getattr(kernel, "name", None)
    if name in SUPPORTED_CSR_KERNELS:
        return KernelSpec(
            name,
            max_degree=float(getattr(kernel, "max_degree", 0.0)),
            alpha=float(getattr(kernel, "alpha", 0.2)),
            delta=float(getattr(kernel, "delta", 0.5)),
        )
    raise ConfigurationError(
        f"the CSR backend cannot vectorize kernel {kernel!r}; "
        f"supported: {', '.join(SUPPORTED_CSR_KERNELS)}"
    )


def _scalar_pow(x: float, y: float) -> float:
    """Scalar twin of :func:`pow_like_scalar` for ``x > 0``.

    Exponents 1, 2 and 0.5 take the same exactly-rounded branches the
    vectorized helper takes (the last via ``sqrt``, correctly rounded
    where generic ``pow`` need not be); everything else is libm ``pow``
    — what Python ``**`` calls — so the rcmh accept probabilities come
    out bit-identical across the scalar and vectorized tiers.
    """
    if y == 1.0:
        return x
    if y == 2.0:
        return x * x
    if y == 0.5:
        return math.sqrt(x)
    return x ** y


def pow_like_scalar(values, exponent: float) -> np.ndarray:
    """Elementwise ``values ** exponent`` with *scalar* (libm) rounding.

    numpy's vectorized float64 power loop may come from a SIMD
    implementation that disagrees with libm ``pow`` by 1 ULP on some
    inputs (machine-dependent), while the scalar tier — Python ``**``
    in the reference kernels, which :func:`csr_walk` replays — calls
    libm.  :func:`kernel_move_probabilities` (the accept oracle) and
    :func:`kernel_stationary_weights` (past its lookup table) route
    their generic powers through this helper so all tiers compute the
    same values bit for bit: the correctly-rounded exponents (1, 2,
    0.5) vectorize directly (they match :func:`_scalar_pow`'s fast
    paths exactly), everything else evaluates libm ``pow`` once per
    *unique* base — degrees and degree ratios repeat heavily — and
    gathers the results back.  The packed walks' accept test takes
    numpy's ``pow`` first and libm only near the uniform
    (:data:`POW_BAND`).
    """
    values = np.asarray(values, dtype=np.float64)
    if exponent == 1.0:
        return values.copy()
    if exponent == 2.0:
        return values * values
    if exponent == 0.5:
        return np.sqrt(values)
    unique, inverse = np.unique(values, return_inverse=True)
    powered = np.array(
        [math.pow(base, exponent) for base in unique.tolist()], dtype=np.float64
    )
    # numpy < 2.1 flattens return_inverse; reshape covers both behaviors.
    return powered[np.reshape(inverse, values.shape)]


#: Degrees below this are weighted from a cached per-exponent table
#: (:func:`_power_table`); a larger one sends its array through
#: :func:`pow_like_scalar`.
_POWER_TABLE_LIMIT = 1 << 16

#: Smallest table built, so small graphs share one.
_POWER_TABLE_MIN = 1 << 10


@functools.lru_cache(maxsize=16)
def _power_table(exponent: float, size: int) -> np.ndarray:
    """``_scalar_pow(d, exponent)`` for ``d = 0 .. size-1``, read-only.

    libm-rounded by construction, so a gather from it equals
    :func:`pow_like_scalar` on integer degrees — without its
    ``np.unique`` over every sample.
    """
    table = np.array([_scalar_pow(float(d), exponent) for d in range(size)])
    table.setflags(write=False)
    return table


def kernel_move_probabilities(
    spec: KernelSpec,
    current_degrees: np.ndarray,
    proposal_degrees: Optional[np.ndarray],
) -> Optional[np.ndarray]:
    """Per-walker probability of accepting the drawn candidate.

    The array twin of the reference kernels' accept tests in
    :mod:`repro.walks.kernels`, and the exact oracle of the packed
    fleets' fused test (:func:`accept_mask` decides every walker as
    this function's probabilities would):

    * ``mhrw`` — ``min(1, d(u)/d(v))``
    * ``rcmh`` — ``min(1, (d(u)/d(v))**alpha)`` (``alpha=0``: always)
    * ``mdrw`` — ``d(u)/d_max``
    * ``gmd``  — ``d(u)/max(d(u), delta·d_max)``

    Returns ``None`` when the kernel always moves (degree-stationary
    kernels, and ``rcmh`` at ``alpha=0``), so callers can skip the
    accept draw entirely.  ``mdrw`` degrees above ``max_degree`` raise
    :class:`WalkError`, matching the reference kernel.
    """
    name = spec.name
    if name == "mhrw":
        return np.minimum(1.0, current_degrees / proposal_degrees)
    if name == "rcmh":
        if spec.alpha == 0.0:
            return None
        # pow_like_scalar, not `** alpha`: numpy's SIMD pow can be 1 ULP
        # off libm, which every scalar tier calls — the bit-exactness
        # contract spans all of them.
        return np.minimum(
            1.0, pow_like_scalar(current_degrees / proposal_degrees, spec.alpha)
        )
    if name == "mdrw":
        worst = int(current_degrees.max(initial=0))
        if worst > spec.max_degree:
            raise WalkError(
                f"walk reached a node of degree {worst} > "
                f"max_degree={spec.max_degree}"
            )
        return current_degrees / spec.max_degree
    if name == "gmd":
        return current_degrees / np.maximum(
            current_degrees, spec.delta * spec.max_degree
        )
    return None  # degree-stationary kernels always move


def kernel_stationary_weights(spec: KernelSpec, degrees: np.ndarray) -> np.ndarray:
    """Unnormalised stationary weights of nodes of *degrees* under *spec*.

    The array twin of ``TransitionKernel.stationary_weight``; the EX-*
    estimators divide by these to importance-reweight their samples.
    rcmh weights of integer degrees are gathered from a cached libm
    table (:func:`_power_table`) instead of a ``np.unique`` pass over
    every sample.
    """
    name = spec.name
    if name in ("mhrw", "mdrw"):
        return np.ones(degrees.shape, dtype=np.float64)
    if name == "rcmh":
        exponent = 1.0 - spec.alpha
        # pow_like_scalar's own fast paths beat a gather at 0.5 and 1.
        generic = exponent not in (0.5, 1.0)
        if generic and degrees.dtype.kind in "iu" and degrees.size:
            top = int(degrees.max())
            if top < _POWER_TABLE_LIMIT:
                size = max(_POWER_TABLE_MIN, 1 << top.bit_length())
                return _power_table(exponent, size)[degrees]
        return pow_like_scalar(degrees, exponent)
    if name == "gmd":
        return np.maximum(degrees, spec.delta * spec.max_degree).astype(np.float64)
    return degrees.astype(np.float64)  # simple / non_backtracking


def _check_not_empty(csr: CSRGraph) -> None:
    if csr.num_nodes == 0:
        raise EmptyGraphError("cannot walk on an empty graph")


def _isolated_error(index: int, csr: CSRGraph) -> WalkError:
    return WalkError(
        f"random walk reached isolated node {csr.node_ids[index]!r}; "
        "run on the largest connected component"
    )


# ----------------------------------------------------------------------
# single-walker scalar path: the reference kernels over array rows
# ----------------------------------------------------------------------
def _reference_kernel(spec: KernelSpec) -> TransitionKernel:
    """The :mod:`repro.walks.kernels` object *spec* describes."""
    name = spec.name
    if name == "simple":
        return SimpleRandomWalkKernel()
    if name == "non_backtracking":
        return NonBacktrackingKernel()
    if name == "mhrw":
        return MetropolisHastingsKernel()
    if name == "mdrw":
        return MaximumDegreeKernel(spec.max_degree)
    if name == "rcmh":
        return RejectionControlledMHKernel(spec.alpha)
    return GeneralMaximumDegreeKernel(spec.max_degree, spec.delta)


class _RowPages:
    """List-backed neighbor provider the reference kernels step over.

    ``neighbors(u)`` is the CSR row of node index ``u``.  ``degree(v)``
    is only ever called by the MH-family kernels, on their proposal, to
    evaluate the acceptance ratio — exactly the page download the
    ledgers must charge even when the proposal is rejected — so every
    call is logged in :attr:`probes`.
    """

    __slots__ = ("neighbors", "_degrees", "probes")

    def __init__(self, csr: CSRGraph) -> None:
        self.neighbors = csr.neighbor_rows().__getitem__
        self._degrees = csr.adjacency_lists()[2]
        self.probes: List[int] = []

    def degree(self, node: int) -> int:
        self.probes.append(node)
        return self._degrees[node]


def draw_start_index(csr: CSRGraph, rng: RandomSource) -> int:
    """Uniform start index for a walk.

    Consumes the generator exactly like
    :meth:`RestrictedGraphAPI.random_node` (one ``choice`` over the
    node list), so seeded replays of the reference pipeline stay
    aligned.
    """
    _check_not_empty(csr)
    return ensure_rng(rng).choice(range(csr.num_nodes))


def csr_walk(
    csr: CSRGraph,
    num_steps: int,
    start: Optional[int] = None,
    rng: RandomSource = None,
    kernel: KernelLike = "simple",
    return_probes: bool = False,
) -> np.ndarray:
    """Run one walker for *num_steps* steps; return the node index after each.

    The walk *is* the reference engine: each step calls the
    :mod:`repro.walks.kernels` object's own ``step`` over the CSR rows,
    so the same seed yields the same trajectory as
    :class:`repro.walks.engine.RandomWalk` over a
    :class:`RestrictedGraphAPI` of the same graph, for every kernel.

    Parameters
    ----------
    csr:
        The frozen graph.
    num_steps:
        Number of transitions to perform.
    start:
        Starting node *index*; drawn uniformly from the rng when omitted
        (mirroring :meth:`RestrictedGraphAPI.random_node`).
    rng:
        Seed or generator, normalised to a :class:`random.Random` (a
        numpy generator seeds one).
    kernel:
        Any supported kernel (name, :class:`KernelSpec`, or kernel
        instance); the MD/GMD kernels need their ``max_degree`` knob, so
        pass those as instances or specs rather than bare names.  Errors
        the kernel raises mid-walk name CSR indices.
    return_probes:
        When true, return ``(path, probes)`` instead of just the path,
        where *probes* is the per-step proposal drawn by an MH-family
        kernel (whose accept test fetched the proposal's page — see
        :attr:`KernelSpec.probes_proposals`) or ``None`` for every
        other kernel.  Callers reproducing charged-call accounting need
        the probes: a rejected proposal still cost a page download.
    """
    check_non_negative_int(num_steps, "num_steps")
    _check_not_empty(csr)
    spec = resolve_kernel_spec(kernel)
    # Kernel instances pass through; names and specs build their object.
    walker = kernel if isinstance(kernel, TransitionKernel) else _reference_kernel(spec)
    generator = ensure_rng(rng)
    if start is None:
        start = draw_start_index(csr, generator)
    # Only the start can be isolated: every later position is someone's
    # neighbor, so this check names the node id where the kernel's own
    # check could only name an index.
    if num_steps and csr.degrees[start] == 0:
        raise _isolated_error(start, csr)
    pages = _RowPages(csr)
    step = walker.step
    u = start
    state = walker.initial_state(pages, u, generator)
    positions: List[int] = []
    append = positions.append
    for _ in range(num_steps):
        u, state = step(pages, u, state, generator)
        append(u)
    path = np.asarray(positions, dtype=np.int64)
    if not return_probes:
        return path
    probes = np.asarray(pages.probes, dtype=np.int64) if spec.probes_proposals else None
    return path, probes


# ----------------------------------------------------------------------
# budget accounting
# ----------------------------------------------------------------------
def charge_distinct_pages(
    pages: np.ndarray,
    visited: np.ndarray,
    budget: Optional[int],
    already_charged: int = 0,
) -> int:
    """Charge the never-downloaded pages of *pages*; return the new charge.

    The one implementation of the distinct-page crossing invariant,
    shared by the samplers' page filters and the batched engine: pages
    are considered in first-download order, on exhaustion only the
    still-affordable ones are marked in *visited* (mutated in place),
    and the raised error reports the crossing attempt ``budget + 1`` —
    exactly :meth:`APICallCounter.charge`'s behavior mid-crawl.
    """
    distinct, first_seen = np.unique(np.atleast_1d(pages), return_index=True)
    ordered = distinct[np.argsort(first_seen)]
    new = ordered[~visited[ordered]]
    if budget is not None:
        affordable = budget - already_charged
        if new.size > affordable:
            visited[new[: max(0, affordable)]] = True
            raise APIBudgetExceededError(budget, budget + 1)
    visited[new] = True
    return int(new.size)


class PageBudgetTracker:
    """Distinct-page-download accounting for CSR walks.

    Mirrors a budgeted :class:`RestrictedGraphAPI` with caching enabled:
    the first fetch of a node's page is charged, revisits are free, and
    crossing *budget* raises :class:`APIBudgetExceededError`.
    """

    def __init__(self, num_nodes: int, budget: Optional[int] = None) -> None:
        self._visited = np.zeros(num_nodes, dtype=bool)
        self.budget = budget if budget is None else check_non_negative_int(budget, "budget")
        self._charged = 0

    @property
    def charged(self) -> int:
        """Distinct pages downloaded so far."""
        if self.budget is None:
            # Unbudgeted: pages are only marked (cheap per step); count lazily.
            return int(np.count_nonzero(self._visited))
        return self._charged

    def charge_pages(self, node_indices: np.ndarray) -> None:
        """Charge the pages of *node_indices* that were never fetched before.

        See :func:`charge_distinct_pages` for the crossing semantics.
        """
        if self.budget is None:
            # Unbudgeted fast path: mark only, count lazily in `charged`.
            self._visited[np.atleast_1d(node_indices)] = True
            return
        try:
            self._charged += charge_distinct_pages(
                node_indices, self._visited, self.budget, self._charged
            )
        except APIBudgetExceededError:
            self._charged = self.budget + 1
            raise


def per_walker_distinct_counts(trajectories: np.ndarray, *extra: np.ndarray) -> np.ndarray:
    """Distinct pages downloaded by each walker of an independent fleet.

    Unlike :class:`PageBudgetTracker` (one cache shared by the whole
    fleet), this models ``N`` *independent* crawlers: walker ``w`` is
    charged once per distinct node in ``trajectories[w]`` — exactly what
    ``N`` separate :class:`~repro.graph.api.RestrictedGraphAPI` wrappers
    with caching on would each record, which is how the experiment
    harness runs repetitions.  (Extra pages beyond the trajectory, such
    as NeighborExploration's explored neighbors, are accounted by the
    fleet samplers themselves.)

    Additional per-walker page arrays — e.g. the proposal probes of the
    MH-family kernels, or the two endpoint arrays of a line-graph fleet
    — are passed as *extra* positional arrays (same number of rows) and
    folded into each walker's distinct count.

    All rows have equal length, so each row is sorted in C and its value
    transitions counted — no per-walker Python work.
    """
    trajectories = np.atleast_2d(trajectories)
    if extra:
        trajectories = np.concatenate(
            [trajectories] + [np.atleast_2d(pages) for pages in extra], axis=1
        )
    ordered = np.sort(trajectories, axis=1)
    return (ordered[:, 1:] != ordered[:, :-1]).sum(axis=1) + 1


# ----------------------------------------------------------------------
# batched engine
# ----------------------------------------------------------------------
@dataclass
class BatchedWalkResult:
    """Trajectories of ``N`` independent walkers, post burn-in.

    Attributes
    ----------
    nodes:
        ``(num_walkers, num_steps)`` node indices, one row per walker.
    degrees:
        Degrees of the collected nodes (same shape).
    start_nodes:
        Where each walker started.
    tail_nodes:
        Each walker's position just before the first collected step
        (the start node when ``burn_in == 0``) — needed to reconstruct
        the first traversed edge.
    burn_in:
        Steps discarded per walker before collection.
    charged_calls:
        Distinct pages downloaded across the whole fleet (shared cache).
    """

    nodes: np.ndarray
    degrees: np.ndarray
    start_nodes: np.ndarray
    tail_nodes: np.ndarray
    burn_in: int
    charged_calls: int

    @property
    def num_walkers(self) -> int:
        return int(self.nodes.shape[0])

    @property
    def num_steps(self) -> int:
        return int(self.nodes.shape[1])

    def walk_result(self, walker: int, csr: CSRGraph) -> WalkResult:
        """Convert one walker's trajectory into a reference :class:`WalkResult`."""
        row = self.nodes[walker]
        ids = csr.node_ids
        previous = int(self.tail_nodes[walker])
        edges = []
        for index in row:
            index = int(index)
            edges.append(None if index == previous else (ids[previous], ids[index]))
            previous = index
        return WalkResult(
            nodes=[ids[int(i)] for i in row],
            degrees=[int(d) for d in self.degrees[walker]],
            edges=edges,
            burn_in=self.burn_in,
            start_node=ids[int(self.start_nodes[walker])],
        )


@dataclass
class FleetWalkResult:
    """Full trajectories of ``N`` independent walkers (burn-in included).

    Produced by :meth:`BatchedWalkEngine.run_fleet`, the execution mode
    behind ``run_trials(..., execution="fleet")``: one walker stands for
    one experiment repetition, so — unlike :class:`BatchedWalkResult`,
    whose fleet shares a page cache — every walker keeps its *own*
    distinct-page ledger, mirroring the fresh
    :class:`~repro.graph.api.RestrictedGraphAPI` each repetition gets.

    Attributes
    ----------
    trajectories:
        ``(num_walkers, burn_in + num_steps + 1)`` node indices; column
        0 is the start node, the remaining columns are the positions
        after each transition (burn-in transitions included, because a
        real crawler downloads pages during burn-in too).
    burn_in:
        Transitions discarded before collection starts.
    probed:
        ``(num_walkers, burn_in + num_steps)`` proposal node indices for
        kernels whose accept test reads the proposal's page (``mhrw``,
        ``rcmh`` with ``alpha > 0`` — see
        :attr:`KernelSpec.probes_proposals`), or ``None``.  Rejected
        proposals cost a page download in the reference engine, so the
        per-walker ledgers fold these in.
    kernel:
        The :class:`KernelSpec` that walked this fleet.  Carried on the
        result so classification cannot be handed a mismatched spec
        (the stationary weights would be silently wrong).
    """

    trajectories: np.ndarray
    burn_in: int
    probed: Optional[np.ndarray] = None
    kernel: Optional[KernelSpec] = None

    @property
    def num_walkers(self) -> int:
        return int(self.trajectories.shape[0])

    @property
    def num_steps(self) -> int:
        """Collected (post-burn-in) transitions per walker."""
        return int(self.trajectories.shape[1]) - 1 - self.burn_in

    @property
    def start_nodes(self) -> np.ndarray:
        return self.trajectories[:, 0]

    @property
    def collected(self) -> np.ndarray:
        """``(num_walkers, num_steps)`` positions after the burn-in."""
        return self.trajectories[:, self.burn_in + 1 :]

    @property
    def sources(self) -> np.ndarray:
        """Source endpoint of each collected transition (same shape)."""
        return self.trajectories[:, self.burn_in : -1]

    def charged_calls(self) -> np.ndarray:
        """Per-walker distinct pages downloaded (independent crawlers).

        Includes the proposal probes of the MH-family kernels: a
        rejected proposal's page was still fetched to evaluate the
        acceptance ratio, exactly like the reference kernel's
        ``degree(proposal)`` call.
        """
        if self.probed is None:
            return per_walker_distinct_counts(self.trajectories)
        return per_walker_distinct_counts(self.trajectories, self.probed)

    def prefix(self, num_steps: int) -> "FleetWalkResult":
        """The fleet truncated to its first *num_steps* collected steps.

        The foundation of the prefix-reuse sweep engine: a budget-``b``
        crawl from a given seed *is* the first ``b`` collected steps of
        a longer crawl from the same seed, so every smaller budget point
        of a sweep can be read off one max-budget fleet.  The returned
        result shares the trajectory buffer (a view, not a copy); its
        ledgers (:meth:`charged_calls`) are recomputed over the
        truncated trajectories — proposal probes of rejection steps
        included — and therefore match what a fleet run to exactly
        ``num_steps`` would have charged.
        """
        check_positive_int(num_steps, "num_steps")
        if num_steps > self.num_steps:
            raise ConfigurationError(
                f"prefix of {num_steps} steps exceeds the fleet's "
                f"{self.num_steps} collected steps"
            )
        if num_steps == self.num_steps:
            return self
        return FleetWalkResult(
            trajectories=self.trajectories[:, : self.burn_in + num_steps + 1],
            burn_in=self.burn_in,
            probed=(
                None
                if self.probed is None
                else self.probed[:, : self.burn_in + num_steps]
            ),
            kernel=self.kernel,
        )


# ----------------------------------------------------------------------
# packed fleets
# ----------------------------------------------------------------------
#: Steps per pre-drawn uniform chunk of a packed walk.
PACK_CHUNK_STEPS = 64

#: Upper bound on the uniforms pre-drawn per chunk (16 MB of float64);
#: it shortens the chunk only for packs of many thousands of walkers.
_PACK_CHUNK_DOUBLES = 1 << 21


@dataclass(frozen=True, eq=False)
class FleetGroup:
    """One independent fleet inside a packed walk.

    A pack advances the union of several groups' walkers with one
    vectorized step, yet every group walks exactly what a solo fleet
    with the same fields walks — trajectories, proposal probes and
    therefore ledgers, bit for bit.  Each group keeps its own numpy
    generator (*rng*): its start draws run first and alone, then its
    step uniforms are drawn in ``(chunk, draws-per-step, num_walkers)``
    blocks, and since ``random(n)`` followed by ``random(m)`` equals
    ``random(n + m)`` the group consumes exactly its solo stream.  A
    group's result depends only on its own fields, never on its
    pack-mates or their order.
    """

    kernel: KernelLike
    rng: RandomSource
    num_walkers: int
    num_steps: int
    burn_in: int = 0
    start_nodes: Optional[Sequence[int]] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "kernel", resolve_kernel_spec(self.kernel))
        check_positive_int(self.num_walkers, "num_walkers")
        check_positive_int(self.num_steps, "num_steps")
        check_non_negative_int(self.burn_in, "burn_in")

    @property
    def total(self) -> int:
        """Transitions walked, burn-in included."""
        return self.burn_in + self.num_steps


class GroupWalkFailure(Exception):
    """A :class:`WalkError` raised by one group of a pack."""

    def __init__(self, group: int, error: WalkError) -> None:
        super().__init__(str(error))
        self.group = group
        self.error = error


def walk_isolating_failures(
    groups: Sequence[FleetGroup],
    walk: Callable[[Sequence[FleetGroup], List[np.random.Generator]], list],
) -> list:
    """Walk *groups* as packs until each has a result or its own error.

    *walk(pack, generators)* walks one pack and raises
    :class:`GroupWalkFailure` naming the group whose walk failed (an
    isolated start, an isolated line node, mdrw over its maximum
    degree).  That group's slot gets its :class:`WalkError`; the others
    are rewound to their saved generator states and re-walked packed —
    bit-identical, because each group's stream depends only on its own
    generator.  Returns one result or :class:`WalkError` per group.
    """
    generators = [ensure_numpy_rng(group.rng) for group in groups]
    if len({id(generator) for generator in generators}) != len(generators):
        raise ConfigurationError(
            "packed fleets need one generator per group; a generator shared "
            "by two groups would interleave their streams"
        )
    states = [generator.bit_generator.state for generator in generators]
    outcomes: list = [None] * len(groups)
    pending = list(range(len(groups)))
    while pending:
        try:
            walked = walk(
                [groups[index] for index in pending],
                [generators[index] for index in pending],
            )
        except GroupWalkFailure as failure:
            outcomes[pending.pop(failure.group)] = failure.error
            for index in pending:
                generators[index].bit_generator.state = states[index]
            continue
        for index, result in zip(pending, walked):
            outcomes[index] = result
        break
    return outcomes


#: Relative half-width of the band around numpy's ``np.power`` inside
#: which an rcmh accept decision is re-taken with libm ``pow``
#: (:func:`_scalar_pow`).  numpy's vectorized pow may differ from libm
#: by 1 ULP (a relative 2⁻⁵²) on some inputs; a uniform outside the
#: band lies on the same side of both values, so every decision is the
#: libm one with a margin of 4096 ULP.
POW_BAND = 2.0**-40


def _collapse(values: np.ndarray, present: np.ndarray):
    """*values* of a family: ``None`` when no walker is *present*, a
    scalar when every walker is and shares one value, else the array."""
    if not present.any():
        return None
    if present.all() and (values == values[0]).all():
        return float(values[0])
    return values


@dataclass
class _AcceptTable:
    """The accept formulas of one pack phase, as per-walker arrays.

    A walker that draws an accept uniform moves with probability
    ``d / denominator``, raised to ``alpha`` for rcmh:

    * **ratio family** (``mhrw``, ``rcmh``): the denominator is the
      proposal's degree ``d'``; rcmh walkers with ``alpha != 1`` take
      ``np.power`` of the ratio, re-decided with the libm value inside
      :data:`POW_BAND` of their uniform;
    * **degree family** (``mdrw``, ``gmd``): the denominator is
      ``max(d, cap)`` with ``cap = d_max`` — which is ``d_max`` itself,
      because ``d <= d_max`` is enforced — or ``cap = delta · d_max``;
      the ``max`` is taken only when a gmd walker needs it.

    ``min(1, ·)`` is dropped: a uniform below 1 is below ``p`` exactly
    when it is below ``min(1, p)``.  Walkers that always move (simple,
    non-backtracking, rcmh at ``alpha = 0``) draw no accept uniform;
    :attr:`always` overrides their comparison, and their unread
    uniform slots enter no arithmetic.  Each field collapses to a
    scalar or ``None`` when it is uniform over the phase, so a pack of
    one evaluates only its own kernel's formula.
    """

    #: Ratio-family walkers: ``None`` (none), ``True`` (all), or a mask.
    ratio: Union[None, bool, np.ndarray]
    #: Denominators of the walkers outside the ratio family (degree
    #: caps; ``1`` for walkers that always move), or ``None``.
    cap: Union[None, float, np.ndarray]
    #: Whether a gmd walker needs ``max(d, cap)`` rather than ``cap``.
    clamp: bool
    #: ``mdrw`` maximum degrees (``inf`` elsewhere), or ``None``.
    limit: Union[None, float, np.ndarray]
    #: ``(group, spec, rows)`` of the mdrw groups, to name a failure.
    mdrw: List[Tuple[int, KernelSpec, slice]]
    #: Walkers raising their ratio to a power: ``None``, a slice, or indices.
    power: Union[None, slice, np.ndarray]
    #: Their exponents (a scalar when shared).
    alpha: Union[float, np.ndarray]
    #: Walkers that always move, or ``None``.
    always: Optional[np.ndarray]

    @classmethod
    def build(
        cls, members: Sequence[Tuple[int, KernelSpec, slice]], width: int
    ) -> Optional["_AcceptTable"]:
        """The table of *members* ``(group, spec, rows)``; ``None`` when
        no walker draws an accept uniform."""
        ratio = np.zeros(width, dtype=bool)
        always = np.zeros(width, dtype=bool)
        cap = np.ones(width)
        limit = np.full(width, np.inf)
        alpha = np.ones(width)
        mdrw = []
        clamp = False
        for group, spec, rows in members:
            if not spec.draws_accept:
                always[rows] = True
            elif spec.name in ("mhrw", "rcmh"):
                ratio[rows] = True
                if spec.name == "rcmh":
                    alpha[rows] = spec.alpha
            elif spec.name == "mdrw":
                cap[rows] = limit[rows] = spec.max_degree
                mdrw.append((group, spec, rows))
            else:  # gmd
                clamp = True
                cap[rows] = spec.delta * spec.max_degree
        if always.all():
            return None
        powered = ratio & (alpha != 1.0)
        power: Union[None, slice, np.ndarray] = None
        exponents: Union[float, np.ndarray] = 1.0
        if powered.any():
            power = slice(None) if powered.all() else np.flatnonzero(powered)
            exponents = alpha[powered]
            if (exponents == exponents[0]).all():
                exponents = float(exponents[0])
        return cls(
            ratio=True if ratio.all() else (ratio if ratio.any() else None),
            cap=_collapse(cap, ~ratio),
            clamp=clamp,
            limit=_collapse(limit, limit < np.inf),
            mdrw=mdrw,
            power=power,
            alpha=exponents,
            always=always if always.any() else None,
        )

    def check_max_degrees(self, current_degrees: np.ndarray) -> None:
        """Raise :class:`GroupWalkFailure` for an mdrw walker whose
        degree passed its kernel's ``max_degree``."""
        limit = self.limit
        if isinstance(limit, float):
            past = int(current_degrees.max()) > limit
        else:
            past = bool((current_degrees > limit).any())
        if past:
            for group, spec, rows in self.mdrw:
                try:
                    kernel_move_probabilities(spec, current_degrees[rows], None)
                except WalkError as exc:
                    raise GroupWalkFailure(group, exc) from None


@dataclass
class _Phase:
    """What a pack step needs to know about the still-walking groups."""

    width: int
    #: The accept formulas, or ``None`` when every walker always moves.
    accept: Optional[_AcceptTable]
    #: Non-backtracking walkers within the prefix, or ``None``.
    non_backtracking: Optional[np.ndarray]
    #: Rows of the active probing walkers, and how many there are.
    probes: Union[slice, np.ndarray]
    probe_width: int


class PackLayout:
    """Walker layout of a pack: groups by walk length, longest first.

    Ordering by total transitions keeps the still-walking walkers a
    prefix of the union arrays at every step, so retiring a group is a
    slice.  :meth:`steps` draws every group's uniforms chunk by chunk
    from its own generator and yields them step by step with the
    current :class:`_Phase`, which is rebuilt only when a group retires.
    *draws_per_step* maps a kernel to the uniforms one walker consumes
    per step (fixed per kernel, which is what makes the pre-draw exact).
    """

    def __init__(
        self,
        groups: Sequence[FleetGroup],
        draws_per_step: Callable[[KernelSpec], int],
    ) -> None:
        self.groups = groups
        self.order = sorted(range(len(groups)), key=lambda g: -groups[g].total)
        self.totals = [groups[g].total for g in self.order]
        self.draws = [draws_per_step(groups[g].kernel) for g in self.order]
        self.bounds = [0]
        for g in self.order:
            self.bounds.append(self.bounds[-1] + groups[g].num_walkers)
        self.rows = {
            g: slice(self.bounds[p], self.bounds[p + 1])
            for p, g in enumerate(self.order)
        }
        self.width = self.bounds[-1]
        self.horizon = self.totals[0]
        # Probe records exist only for the probing groups' walkers,
        # compacted in union order.
        self.probe_rows: Dict[int, slice] = {}
        probing: List[np.ndarray] = []
        for g in self.order:
            if groups[g].kernel.probes_proposals:
                start = sum(rows.size for rows in probing)
                rows = self.rows[g]
                probing.append(np.arange(rows.start, rows.stop))
                self.probe_rows[g] = slice(start, start + rows.stop - rows.start)
        self.probe_index = (
            np.concatenate(probing) if probing else np.empty(0, dtype=np.int64)
        )

    def phase(self, active: int) -> _Phase:
        """The phase in which the first *active* groups still walk."""
        width = self.bounds[active]
        members = [(g, self.groups[g].kernel, self.rows[g]) for g in self.order[:active]]
        non_backtracking = None
        for g, spec, rows in members:
            if spec.name == "non_backtracking":
                if non_backtracking is None:
                    non_backtracking = np.zeros(width, dtype=bool)
                non_backtracking[rows] = True
        probe_width = int(np.searchsorted(self.probe_index, width))
        probe_rows = self.probe_index[:probe_width]
        probes: Union[slice, np.ndarray] = probe_rows
        if probe_width and probe_rows[-1] == probe_width - 1:
            probes = slice(0, probe_width)  # every active walker probes
        return _Phase(
            width,
            _AcceptTable.build(members, width),
            non_backtracking,
            probes,
            probe_width,
        )

    def steps(self, generators: Sequence[np.random.Generator]):
        """Yield ``(step, uniforms, phase)`` for every step of the pack.

        *uniforms* is ``(draws, width)``: row ``d`` holds the ``d``-th
        draw of every walker active when its chunk was drawn (a prefix
        at least as wide as ``phase.width``).
        """
        active = len(self.order)
        phase = self.phase(active)
        block, base = None, 0
        for step in range(self.horizon):
            if self.totals[active - 1] <= step:
                while self.totals[active - 1] <= step:
                    active -= 1
                phase = self.phase(active)
            if block is None or step - base >= block.shape[0]:
                block, base = self._draw(generators, active, step), step
            yield step, block[step - base], phase

    def _draw(self, generators, active: int, step: int) -> np.ndarray:
        """Uniforms of the next chunk for the first *active* groups."""
        width = self.bounds[active]
        draws = max(self.draws[:active])
        chunk = max(1, min(PACK_CHUNK_STEPS, _PACK_CHUNK_DOUBLES // (draws * width)))
        end = min(step + chunk, self.horizon)
        if active == 1:
            g = self.order[0]
            return generators[g].random((end - step, draws, width))
        block = np.empty((end - step, draws, width))
        for p, g in enumerate(self.order[:active]):
            span = min(end, self.totals[p]) - step
            block[:span, : self.draws[p], self.rows[g]] = generators[g].random(
                (span, self.draws[p], self.groups[g].num_walkers)
            )
        return block


def pack_block(array: np.ndarray, rows: slice, columns: int) -> np.ndarray:
    """``array[rows, :columns]`` — or *array* itself when that is all of it.

    A group's result is a view into the pack's union arrays; a pack of
    one hands back the arrays themselves, exactly as a solo walk would.
    """
    if rows.start == 0 and rows.stop == array.shape[0] and columns == array.shape[1]:
        return array
    return array[rows, :columns]


def _libm_powers(
    ratios: np.ndarray, alpha: Union[float, np.ndarray], uniforms: np.ndarray
) -> np.ndarray:
    """``ratios ** alpha`` as accept thresholds for *uniforms*.

    numpy's ``np.power`` decides every walker whose uniform lies
    outside :data:`POW_BAND` of it; the few inside are re-decided with
    libm ``pow`` (:func:`_scalar_pow`, the reference kernels' ``**``),
    so each comparison equals the libm one.
    """
    powered = np.power(ratios, alpha)
    near = np.abs(uniforms - powered) <= powered * POW_BAND
    if near.any():
        (rows,) = np.nonzero(near)
        exponents = np.broadcast_to(alpha, ratios.shape)[rows]
        powered[rows] = [
            _scalar_pow(x, y) for x, y in zip(ratios[rows].tolist(), exponents.tolist())
        ]
    return powered


def accept_mask(
    phase: _Phase,
    current_degrees: np.ndarray,
    proposal_degrees: np.ndarray,
    uniforms: np.ndarray,
) -> np.ndarray:
    """Which active walkers move: one fused accept test over the width.

    The phase's :class:`_AcceptTable` gives every walker its formula,
    so a step costs one denominator, one division, one ``np.power`` over
    the rcmh walkers and one comparison, however many kernels the pack
    mixes — each walker's decision equals its kernel's
    :func:`kernel_move_probabilities` test bit for bit.  Walkers of
    kernels without an accept test always move.  An mdrw walker past
    its maximum degree raises :class:`GroupWalkFailure` naming its
    group.
    """
    width = phase.width
    table = phase.accept
    if table is None:
        return np.ones(width, dtype=bool)
    uniforms = uniforms[:width]
    if table.limit is not None:
        table.check_max_degrees(current_degrees)
    denominators = table.cap
    if table.clamp:
        denominators = np.maximum(current_degrees, table.cap)
    if table.ratio is True:
        denominators = proposal_degrees
    elif table.ratio is not None:
        denominators = np.where(table.ratio, proposal_degrees, denominators)
    probabilities = current_degrees / denominators
    index = table.power
    if isinstance(index, slice):
        probabilities = _libm_powers(probabilities, table.alpha, uniforms)
    elif index is not None:
        probabilities[index] = _libm_powers(
            probabilities[index], table.alpha, uniforms[index]
        )
    accept = uniforms < probabilities
    if table.always is not None:
        accept |= table.always
    return accept


def _draw_starts(
    csr: CSRGraph,
    generator: np.random.Generator,
    num_walkers: int,
    start_nodes: Optional[Sequence[int]],
) -> np.ndarray:
    if start_nodes is None:
        current = generator.integers(0, csr.num_nodes, size=num_walkers, dtype=np.int64)
    else:
        current = np.asarray(start_nodes, dtype=np.int64)
        if current.shape != (num_walkers,):
            raise ConfigurationError(
                f"start_nodes must have shape ({num_walkers},), got {current.shape}"
            )
        if current.size and (current.min() < 0 or current.max() >= csr.num_nodes):
            raise ConfigurationError("start_nodes contains out-of-range indices")
    # Only starts can be isolated; every later position is a neighbor.
    start_degrees = csr.degrees[current]
    if not start_degrees.all():
        index = int(current[int(np.argmin(start_degrees))])
        raise _isolated_error(index, csr)
    return current


def _walk_node_pack(
    csr: CSRGraph,
    groups: Sequence[FleetGroup],
    generators: Sequence[np.random.Generator],
) -> List[FleetWalkResult]:
    layout = PackLayout(groups, lambda spec: 1 + spec.draws_accept)
    current = np.empty(layout.width, dtype=np.int64)
    for g, group in enumerate(groups):
        try:
            current[layout.rows[g]] = _draw_starts(
                csr, generators[g], group.num_walkers, group.start_nodes
            )
        except WalkError as exc:
            raise GroupWalkFailure(g, exc) from None
    trajectories = np.empty((layout.width, layout.horizon + 1), dtype=np.int64)
    trajectories[:, 0] = current
    probes = None
    if layout.probe_index.size:
        probes = np.empty((layout.probe_index.size, layout.horizon), dtype=np.int64)
    previous = None
    if any(group.kernel.name == "non_backtracking" for group in groups):
        previous = np.full(layout.width, -1, dtype=np.int64)
    indptr, indices, degrees = csr.indptr, csr.indices, csr.degrees

    for step, uniforms, phase in layout.steps(generators):
        width = phase.width
        if current.size != width:
            current = current[:width]
            if previous is not None:
                previous = previous[:width]
        current_degrees = degrees[current]
        span = current_degrees
        eligible = None
        if phase.non_backtracking is not None:
            # Exclude the previous node by a swap-with-last draw: sample
            # an offset over the d−1 allowed slots and, when it lands on
            # the excluded neighbor, take the last slot instead — a
            # bijection onto row∖{previous} with one draw per step.
            # Dead ends (degree 1) and the first step (previous = −1)
            # fall back to the plain uniform draw, so backtracking stays
            # the only option at a dead end.
            eligible = phase.non_backtracking & (previous >= 0) & (current_degrees > 1)
            span = np.where(eligible, current_degrees - 1, current_degrees)
        offsets = (uniforms[0, :width] * span).astype(np.int64)
        np.minimum(offsets, span - 1, out=offsets)
        rows = indptr[current]
        proposals = indices[rows + offsets].astype(np.int64)
        if eligible is not None:
            bump = eligible & (proposals == previous)
            if bump.any():
                proposals[bump] = indices[rows[bump] + current_degrees[bump] - 1]
        nxt = proposals
        if phase.accept is not None:
            # Accept/reject kernels: rejected walkers stay in place (the
            # kernels' self-loop semantics).
            accept = accept_mask(phase, current_degrees, degrees[proposals], uniforms[1])
            nxt = np.where(accept, proposals, current)
        if phase.probe_width:
            # MH-family accept tests fetched the proposals' pages.
            probes[: phase.probe_width, step] = proposals[phase.probes]
        if previous is not None:
            previous = current
        current = nxt
        trajectories[:width, step + 1] = current

    results = []
    for group_index, group in enumerate(groups):
        probed = None
        if group_index in layout.probe_rows:
            probed = pack_block(probes, layout.probe_rows[group_index], group.total)
        results.append(
            FleetWalkResult(
                trajectories=pack_block(
                    trajectories, layout.rows[group_index], group.total + 1
                ),
                burn_in=group.burn_in,
                probed=probed,
                kernel=group.kernel,
            )
        )
    return results


def run_packed_fleets(
    csr: CSRGraph, groups: Sequence[FleetGroup]
) -> List[Union[FleetWalkResult, WalkError]]:
    """Walk node-fleet *groups* as one packed walk.

    Returns one :class:`FleetWalkResult` per group — bit-identical to
    the group's solo fleet (:meth:`BatchedWalkEngine.run_fleet` with the
    same kernel, generator and shape) — or the :class:`WalkError` that
    group's walk raised; the other groups are unaffected
    (:func:`walk_isolating_failures`).  Kernels may differ between
    groups: each step evaluates one fused accept test over the whole
    pack (:func:`accept_mask`), however many kernels it mixes.
    """
    _check_not_empty(csr)
    return walk_isolating_failures(
        groups, lambda pack, generators: _walk_node_pack(csr, pack, generators)
    )


class BatchedWalkEngine:
    """Advance ``N`` independent walkers with one numpy step at a time.

    Parameters
    ----------
    csr:
        The frozen graph.
    kernel:
        Any supported kernel — ``"simple"`` (default),
        ``"non_backtracking"``, or one of the EX-* accept/reject
        kernels (``mhrw`` / ``mdrw`` / ``rcmh`` / ``gmd``), given as a
        name, :class:`KernelSpec` or kernel instance.  The accept/reject
        kernels advance with a single vectorized accept mask per step:
        candidate neighbors for all walkers come from one ``indptr``
        gather, the per-walker accept probabilities from
        :func:`kernel_move_probabilities`, and rejected walkers stay in
        place (self-loop semantics).
    budget:
        Optional charged-API-call cap, with the same distinct-page
        semantics as a caching :class:`RestrictedGraphAPI`: the fleet
        shares one page cache, and the engine raises
        :class:`APIBudgetExceededError` as soon as the number of
        distinct pages fetched, replayed in fetch order, exceeds the
        budget.
    rng:
        Seed / generator (normalised to a numpy generator).

    The engine walks as a pack of one (:func:`run_packed_fleets`): the
    solo fleet and a group of a wider pack are the same code path.
    """

    def __init__(
        self,
        csr: CSRGraph,
        kernel: KernelLike = "simple",
        budget: Optional[int] = None,
        rng: RandomSource = None,
    ) -> None:
        self.csr = csr
        self.kernel = resolve_kernel_spec(kernel)
        self.budget = budget if budget is None else check_non_negative_int(budget, "budget")
        self._nprng = ensure_numpy_rng(rng)

    def run(
        self,
        num_walkers: int,
        num_steps: int,
        burn_in: int = 0,
        start_nodes: Optional[Sequence[int]] = None,
    ) -> BatchedWalkResult:
        """Run the fleet and collect *num_steps* positions per walker."""
        fleet = self._walk(num_walkers, num_steps, burn_in, start_nodes)
        trajectories, probes = fleet.trajectories, fleet.probed
        total = burn_in + num_steps
        # The page charges are replayed per step from the trajectory
        # columns, in the order a step-by-step crawler issues them, so a
        # budget crossing raises with the same outcome.
        tracker = PageBudgetTracker(self.csr.num_nodes, self.budget)
        for step in range(total):
            tracker.charge_pages(trajectories[:, step])
            if probes is not None:
                tracker.charge_pages(probes[:, step])
        # Collected degrees are read off the final pages too.
        tracker.charge_pages(trajectories[:, total])
        nodes = np.ascontiguousarray(trajectories[:, burn_in + 1 :])
        return BatchedWalkResult(
            nodes=nodes,
            degrees=self.csr.degrees[nodes],
            start_nodes=trajectories[:, 0].copy(),
            tail_nodes=trajectories[:, burn_in].copy(),
            burn_in=burn_in,
            charged_calls=tracker.charged,
        )

    def run_fleet(
        self,
        num_walkers: int,
        num_steps: int,
        burn_in: int = 0,
        start_nodes: Optional[Sequence[int]] = None,
    ) -> FleetWalkResult:
        """Run ``N`` *independent* walkers and record their full trajectories.

        The execution mode behind ``run_trials(..., execution="fleet")``:
        each walker stands for one experiment repetition, so each keeps
        its own distinct-page ledger (no fleet-shared cache — see
        :meth:`FleetWalkResult.charged_calls`).  When the engine has a
        *budget*, it is enforced **per walker**: the run raises
        :class:`APIBudgetExceededError` when any single walker's crawl
        downloaded more than *budget* distinct pages — the same outcome
        as the budgeted :class:`RestrictedGraphAPI` wrapper each
        sequential repetition runs through, except that the check
        happens after the walk completes (the fleet walks to the end
        before settling the ledgers), not mid-step; size the walk
        accordingly when probing tight budgets.
        """
        result = self._walk(num_walkers, num_steps, burn_in, start_nodes)
        if self.budget is not None:
            charges = result.charged_calls()
            if int(charges.max(initial=0)) > self.budget:
                raise APIBudgetExceededError(self.budget, self.budget + 1)
        return result

    def _walk(
        self,
        num_walkers: int,
        num_steps: int,
        burn_in: int,
        start_nodes: Optional[Sequence[int]],
    ) -> FleetWalkResult:
        group = FleetGroup(
            self.kernel, self._nprng, num_walkers, num_steps, burn_in, start_nodes
        )
        (outcome,) = run_packed_fleets(self.csr, [group])
        if isinstance(outcome, WalkError):
            raise outcome
        return outcome


__all__ = [
    "SUPPORTED_CSR_KERNELS",
    "DEGREE_STATIONARY_KERNELS",
    "BASELINE_CSR_KERNELS",
    "KernelSpec",
    "resolve_csr_kernel",
    "resolve_kernel_spec",
    "kernel_move_probabilities",
    "kernel_stationary_weights",
    "draw_start_index",
    "csr_walk",
    "charge_distinct_pages",
    "per_walker_distinct_counts",
    "PageBudgetTracker",
    "BatchedWalkResult",
    "FleetWalkResult",
    "BatchedWalkEngine",
    "FleetGroup",
    "PACK_CHUNK_STEPS",
    "pow_like_scalar",
    "run_packed_fleets",
]
