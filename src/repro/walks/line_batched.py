"""Vectorized fleets over the *implicit* line graph ``G'`` of a CSR graph.

The EX-* baseline adaptations (paper §5.1) run node-counting random
walks on the line graph ``G' = (H, R)`` of ``G``: every edge of ``G``
is a node of ``G'``, adjacent to the other edges sharing one of its
endpoints.  The reference implementation walks ``G'`` lazily through
:class:`~repro.graph.line_graph.LineGraphAPI`, one Python object per
neighbor — unusable at million-node scale, and materialising ``G'``
explicitly is worse (a ``G`` node of degree ``d`` contributes
``d(d−1)/2`` line edges, which explodes on heavy-tailed graphs).

:class:`BatchedLineWalkEngine` avoids both: a fleet of walkers lives in
*edge space* — the current line node of walker ``w`` is the endpoint
pair ``(u_w, v_w)`` — and every step works directly on the CSR arrays
of ``G``:

* the line degree is arithmetic, ``d'(u,v) = d(u) + d(v) − 2``;
* a uniform line neighbor is drawn in two vectorized stages: choose the
  pivot endpoint with probability proportional to its ``d − 1`` other
  incident edges, then draw a uniform neighbor of the pivot excluding
  the opposite endpoint (a swap-with-last draw over the ``d − 1``
  allowed slots, the same device the non-backtracking kernel uses —
  fixed draw consumption per step, so a packed walk can pre-draw each
  group's uniforms and replay its solo stream bit-identically);
* the accept test is one fused vectorized mask over the current and
  proposal line degrees (:func:`~repro.walks.batched.accept_mask`: a
  per-walker formula table whose decisions equal
  :func:`~repro.walks.batched.kernel_move_probabilities`, rcmh's libm
  ``pow`` included), with stay-in-place semantics on rejection.

Charged-call accounting matches the reference path: walking to, or
probing, a line node fetches the friend lists of *both its endpoints*
on ``G``, so the per-walker ledgers count distinct ``G`` nodes over the
trajectory endpoint arrays plus — for the MH-family kernels — the
endpoints of every (possibly rejected) proposal.

:func:`run_packed_line_fleets` walks several such fleets — the five
EX-* baselines of a served batch, each with its own seed, width and
length — as one pack with a per-walker kernel
(:class:`~repro.walks.batched.FleetGroup`); the solo engine is a pack
of one.

Like :class:`~repro.walks.batched.BatchedWalkEngine`, every read of
``G`` here is a gather, so the engine runs unchanged over
shared-memory or memory-mapped CSR buffers (:mod:`repro.graph.store`)
without densifying the adjacency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.exceptions import ConfigurationError, EmptyGraphError, WalkError
from repro.graph.csr import CSRGraph
from repro.utils.rng import RandomSource, ensure_numpy_rng
from repro.utils.validation import check_positive_int
from repro.walks.batched import (
    FleetGroup,
    GroupWalkFailure,
    KernelLike,
    KernelSpec,
    PackLayout,
    accept_mask,
    pack_block,
    per_walker_distinct_counts,
    resolve_kernel_spec,
    walk_isolating_failures,
)


@dataclass
class LineFleetResult:
    """Full line-graph trajectories of ``N`` independent walkers.

    A line node is an (unordered) edge of ``G``; each walker's position
    at step ``t`` is the endpoint pair ``(src[w, t], dst[w, t])``.

    Attributes
    ----------
    src, dst:
        ``(num_walkers, burn_in + num_steps + 1)`` endpoint index
        arrays; column 0 is the start edge.  The pair order is
        traversal order (the pivot endpoint the walk moved through
        lands in ``src``), which classification treats symmetrically.
    burn_in:
        Transitions discarded before collection starts.
    probed_src, probed_dst:
        ``(num_walkers, burn_in + num_steps)`` endpoints of the
        proposal drawn at each step, recorded only for kernels whose
        accept test fetches the proposal's pages (``mhrw``, ``rcmh``
        with ``alpha > 0``); ``None`` otherwise.  Rejected proposals
        cost page downloads in the reference engine, so the ledgers
        fold these in — and prefixes slice them consistently, keeping
        the rejection steps' accounting intact.
    kernel:
        The :class:`~repro.walks.batched.KernelSpec` that walked this
        fleet.  Carried on the result so classification cannot be
        handed a mismatched spec (the stationary weights would be
        silently wrong).
    """

    src: np.ndarray
    dst: np.ndarray
    burn_in: int
    probed_src: Optional[np.ndarray] = None
    probed_dst: Optional[np.ndarray] = None
    kernel: Optional[KernelSpec] = None

    @property
    def num_walkers(self) -> int:
        return int(self.src.shape[0])

    @property
    def num_steps(self) -> int:
        """Collected (post-burn-in) transitions per walker."""
        return int(self.src.shape[1]) - 1 - self.burn_in

    @property
    def collected_src(self) -> np.ndarray:
        """First endpoints of the collected line nodes (``(N, num_steps)``)."""
        return self.src[:, self.burn_in + 1 :]

    @property
    def collected_dst(self) -> np.ndarray:
        """Second endpoints of the collected line nodes (same shape)."""
        return self.dst[:, self.burn_in + 1 :]

    def charged_calls(self) -> np.ndarray:
        """Per-walker distinct ``G`` pages downloaded (independent crawlers).

        Every visited line node costs the pages of both its endpoints
        (the reference ``LineGraphAPI.neighbors`` reads both friend
        lists); MH-family proposal probes add the proposal endpoints
        even when the proposal was rejected.
        """
        pages = [self.src, self.dst]
        if self.probed_src is not None:
            pages += [self.probed_src, self.probed_dst]
        return per_walker_distinct_counts(*pages)

    def prefix(self, num_steps: int) -> "LineFleetResult":
        """The fleet truncated to its first *num_steps* collected steps.

        The line-graph twin of :meth:`FleetWalkResult.prefix`: budget
        columns of a sweep are read off one max-budget fleet.  Proposal
        probes are truncated alongside the trajectories, so the ledger
        of a prefix is bit-identical to a fresh fleet run to exactly
        ``num_steps`` from the same seed — rejection steps included.
        """
        check_positive_int(num_steps, "num_steps")
        if num_steps > self.num_steps:
            raise ConfigurationError(
                f"prefix of {num_steps} steps exceeds the fleet's "
                f"{self.num_steps} collected steps"
            )
        if num_steps == self.num_steps:
            return self
        keep_nodes = self.burn_in + num_steps + 1
        keep_probes = self.burn_in + num_steps
        return LineFleetResult(
            src=self.src[:, :keep_nodes],
            dst=self.dst[:, :keep_nodes],
            burn_in=self.burn_in,
            probed_src=(
                None if self.probed_src is None else self.probed_src[:, :keep_probes]
            ),
            probed_dst=(
                None if self.probed_dst is None else self.probed_dst[:, :keep_probes]
            ),
            kernel=self.kernel,
        )


def _draw_line_starts(
    csr: CSRGraph, generator: np.random.Generator, num_walkers: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Seed edges by the reference rule: uniform node, then uniform incident edge."""
    degrees = csr.degrees
    u = generator.integers(0, csr.num_nodes, size=num_walkers, dtype=np.int64)
    if not degrees[u].all():
        index = int(u[int(np.argmin(degrees[u]))])
        raise WalkError(
            f"random line walk seeded at isolated node "
            f"{csr.node_ids[index]!r}; run on the largest connected component"
        )
    offsets = (generator.random(num_walkers) * degrees[u]).astype(np.int64)
    np.minimum(offsets, degrees[u] - 1, out=offsets)
    v = csr.indices[csr.indptr[u] + offsets].astype(np.int64)
    # Only a seed edge can be an isolated line node: every later line
    # node shares a pivot of degree >= 2 with its predecessor.
    line_degrees = degrees[u] + degrees[v] - 2
    if not line_degrees.all():
        stuck = int(np.argmin(line_degrees))
        raise WalkError(
            f"line walk reached isolated line node "
            f"({csr.node_ids[int(u[stuck])]!r}, "
            f"{csr.node_ids[int(v[stuck])]!r}); "
            "run on the largest connected component"
        )
    return u, v


def _walk_line_pack(
    csr: CSRGraph,
    groups: Sequence[FleetGroup],
    generators: Sequence[np.random.Generator],
) -> List[LineFleetResult]:
    # Per step: the pivot-side draw, the stage-2 neighbor offset, and
    # the accept draw for kernels that test.
    layout = PackLayout(groups, lambda spec: 2 + spec.draws_accept)
    u = np.empty(layout.width, dtype=np.int64)
    v = np.empty(layout.width, dtype=np.int64)
    for g, group in enumerate(groups):
        try:
            rows = layout.rows[g]
            u[rows], v[rows] = _draw_line_starts(csr, generators[g], group.num_walkers)
        except WalkError as exc:
            raise GroupWalkFailure(g, exc) from None
    shape = (layout.width, layout.horizon + 1)
    src = np.empty(shape, dtype=np.int64)
    dst = np.empty(shape, dtype=np.int64)
    src[:, 0] = u
    dst[:, 0] = v
    probed_src = probed_dst = None
    if layout.probe_index.size:
        probe_shape = (layout.probe_index.size, layout.horizon)
        probed_src = np.empty(probe_shape, dtype=np.int64)
        probed_dst = np.empty(probe_shape, dtype=np.int64)
    indptr, indices, degrees = csr.indptr, csr.indices, csr.degrees

    for step, uniforms, phase in layout.steps(generators):
        width = phase.width
        if u.size != width:
            u, v = u[:width], v[:width]
        du = degrees[u]
        dv = degrees[v]
        line_degrees = du + dv - 2

        # Stage 1 — pick the pivot endpoint: side u holds d(u)−1 of the
        # d(u)+d(v)−2 line neighbors.
        side_draws = (uniforms[0, :width] * line_degrees).astype(np.int64)
        np.minimum(side_draws, line_degrees - 1, out=side_draws)
        side_u = side_draws < (du - 1)
        pivot = np.where(side_u, u, v)
        other = np.where(side_u, v, u)

        # Stage 2 — uniform neighbor of the pivot excluding the opposite
        # endpoint, by a swap-with-last draw: sample over the pivot's
        # d−1 allowed slots (pivot degree >= 2 on the chosen side) and
        # bump a draw that lands on the excluded endpoint to the last
        # slot — a bijection onto row∖{other} with exactly one uniform
        # consumed per walker per step.
        pivot_degrees = degrees[pivot]
        span = pivot_degrees - 1
        offsets = (uniforms[1, :width] * span).astype(np.int64)
        np.minimum(offsets, span - 1, out=offsets)
        rows = indptr[pivot]
        w = indices[rows + offsets].astype(np.int64)
        bump = w == other
        if bump.any():
            w[bump] = indices[rows[bump] + pivot_degrees[bump] - 1]

        # Kernel accept tests on line degrees; rejected walkers stay.
        if phase.accept is not None:
            accept = accept_mask(
                phase, line_degrees, pivot_degrees + degrees[w] - 2, uniforms[2]
            )
            u = np.where(accept, pivot, u)
            v = np.where(accept, w, v)
        else:
            u, v = pivot, w
        if phase.probe_width:
            probed_src[: phase.probe_width, step] = pivot[phase.probes]
            probed_dst[: phase.probe_width, step] = w[phase.probes]
        src[:width, step + 1] = u
        dst[:width, step + 1] = v

    results = []
    for group_index, group in enumerate(groups):
        rows = layout.rows[group_index]
        columns = group.total + 1
        probes = (None, None)
        if group_index in layout.probe_rows:
            probe_rows = layout.probe_rows[group_index]
            probes = (
                pack_block(probed_src, probe_rows, group.total),
                pack_block(probed_dst, probe_rows, group.total),
            )
        results.append(
            LineFleetResult(
                src=pack_block(src, rows, columns),
                dst=pack_block(dst, rows, columns),
                burn_in=group.burn_in,
                probed_src=probes[0],
                probed_dst=probes[1],
                kernel=group.kernel,
            )
        )
    return results


def run_packed_line_fleets(
    csr: CSRGraph, groups: Sequence[FleetGroup]
) -> List[Union[LineFleetResult, WalkError]]:
    """Walk line-fleet *groups* as one packed walk.

    The line-graph twin of :func:`~repro.walks.batched.run_packed_fleets`:
    one vectorized step advances every group's walkers, with a
    per-walker kernel and one fused accept test over the whole pack
    (:func:`~repro.walks.batched.accept_mask`), so the five EX-*
    baselines share a walk and each step's accept test.  Returns one
    :class:`LineFleetResult` per group — bit-identical to its solo
    fleet — or the :class:`WalkError` that group's walk raised.
    """
    if csr.num_nodes == 0:
        raise EmptyGraphError("cannot walk on an empty graph")
    if csr.num_edges == 0:
        raise WalkError("the line graph of an edgeless graph has no nodes")
    for group in groups:
        if group.kernel.name == "non_backtracking":
            raise ConfigurationError(
                "the line-graph fleet supports the simple and EX-* "
                "accept/reject kernels; non_backtracking has no baseline"
            )
        if group.start_nodes is not None:
            raise ConfigurationError(
                "line fleets draw their seed edges; start_nodes is not supported"
            )
    return walk_isolating_failures(
        groups, lambda pack, generators: _walk_line_pack(csr, pack, generators)
    )


class BatchedLineWalkEngine:
    """Advance ``N`` independent line-graph walkers, one numpy step at a time.

    Parameters
    ----------
    csr:
        The frozen *original* graph ``G`` — the line graph is never
        materialised.
    kernel:
        Any supported kernel (name, :class:`KernelSpec`, or kernel
        instance).  For ``mdrw`` / ``gmd`` the spec's ``max_degree`` is
        the maximum degree *of the line graph*
        (:func:`repro.baselines.adaptations.line_graph_max_degree`).
    rng:
        Seed / generator (normalised to a numpy generator).

    The engine walks as a pack of one (:func:`run_packed_line_fleets`).
    """

    def __init__(
        self,
        csr: CSRGraph,
        kernel: KernelLike = "simple",
        rng: RandomSource = None,
    ) -> None:
        self.csr = csr
        self.kernel = resolve_kernel_spec(kernel)
        if self.kernel.name == "non_backtracking":
            raise ConfigurationError(
                "the line-graph fleet supports the simple and EX-* "
                "accept/reject kernels; non_backtracking has no baseline"
            )
        self._nprng = ensure_numpy_rng(rng)

    def run_fleet(
        self,
        num_walkers: int,
        num_steps: int,
        burn_in: int = 0,
    ) -> LineFleetResult:
        """Run ``N`` independent line walkers; record full trajectories.

        Start edges follow the reference seed rule
        (:meth:`LineGraphAPI.random_node`): a uniform node of ``G``,
        then a uniform incident edge.  Each walker stands for one
        experiment repetition and keeps its own distinct-page ledger
        (:meth:`LineFleetResult.charged_calls`).
        """
        group = FleetGroup(self.kernel, self._nprng, num_walkers, num_steps, burn_in)
        (outcome,) = run_packed_line_fleets(self.csr, [group])
        if isinstance(outcome, WalkError):
            raise outcome
        return outcome


__all__ = ["LineFleetResult", "BatchedLineWalkEngine", "run_packed_line_fleets"]
