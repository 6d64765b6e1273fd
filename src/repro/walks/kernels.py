"""Transition kernels for the random-walk engine.

Each kernel answers two questions:

* ``step`` — given the current node, where does the walk go next?
* ``stationary_weight`` — what is the (unnormalised) stationary
  probability of a node under this kernel?  Estimators use this to
  re-weight samples; only ratios matter, so no normalising constant is
  needed.

Kernels implemented
-------------------
Every kernel has two engines.  The object interface below is the
scalar one: the reference :class:`~repro.walks.engine.RandomWalk`
steps it through the restricted API, and
:func:`repro.walks.batched.csr_walk` steps the very same objects over
CSR rows.  The vectorized fleet twin lives in
:mod:`repro.walks.batched` / :mod:`repro.walks.line_batched` (CSR name
in the table), where the accept/reject kernels advance whole fleets
with a single accept mask per step; their accept formulas are written
once more there, as arrays, in
:func:`~repro.walks.batched.kernel_move_probabilities` (the oracle the
fused per-pack test of :func:`~repro.walks.batched.accept_mask` is
held to).  The EX-* baselines run these kernels on the *line graph*;
their fleet execution walks it implicitly
(:class:`~repro.walks.line_batched.BatchedLineWalkEngine`).

=====================================  ========  ==========================================
Kernel                                 CSR name  Stationary weight of node ``u``
=====================================  ========  ==========================================
:class:`SimpleRandomWalkKernel`        simple    ``d(u)``           (paper's own algorithms)
:class:`NonBacktrackingKernel`         non_backtracking ``d(u)``    (Lee et al. [14])
:class:`MetropolisHastingsKernel`      mhrw      ``1``              (EX-MHRW baseline)
:class:`MaximumDegreeKernel`           mdrw      ``1``              (EX-MDRW baseline)
:class:`RejectionControlledMHKernel`   rcmh      ``d(u)**(1-α)``    (EX-RCMH baseline, Li et al.)
:class:`GeneralMaximumDegreeKernel`    gmd       ``max(d(u), δ·d_max)`` (EX-GMD baseline, Li et al.)
=====================================  ========  ==========================================

The maximum degree needed by the MD/GMD kernels is not available through
a neighbor-list API; following common practice the caller supplies an
upper bound (for the experiments we pass the true maximum degree, which
is the most favourable setting for those baselines).  The vectorized
engines receive a kernel as a :class:`~repro.walks.batched.KernelSpec`
(or read the knobs off a kernel instance).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Optional, Tuple

from repro.exceptions import WalkError
from repro.utils.validation import check_in_range, check_positive

KernelState = Any


class TransitionKernel(ABC):
    """Interface shared by all walk kernels."""

    #: human-readable identifier used in experiment reports
    name: str = "kernel"

    def initial_state(self, provider, start_node, rng) -> KernelState:
        """Build any per-walk state (e.g. the previous node); default: none."""
        return None

    @abstractmethod
    def step(self, provider, current, state: KernelState, rng) -> Tuple[Any, KernelState]:
        """Return ``(next_node, new_state)`` for one transition."""

    @abstractmethod
    def stationary_weight(self, provider, node) -> float:
        """Unnormalised stationary probability of *node* under this kernel."""

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return f"{type(self).__name__}()"


class SimpleRandomWalkKernel(TransitionKernel):
    """Move to a uniformly random neighbor; stationary distribution ∝ degree.

    This is the kernel the paper's own NeighborSample and
    NeighborExploration algorithms use: at stationarity a node ``u`` is
    occupied with probability ``d(u) / 2|E|`` and an edge is traversed
    with probability ``1 / |E|`` per direction.
    """

    name = "simple"

    def step(self, provider, current, state, rng):
        neighbors = provider.neighbors(current)
        if not neighbors:
            raise WalkError(
                f"random walk reached isolated node {current!r}; "
                "run on the largest connected component"
            )
        return rng.choice(neighbors), state

    def stationary_weight(self, provider, node) -> float:
        return float(provider.degree(node))


class NonBacktrackingKernel(TransitionKernel):
    """Simple random walk that avoids returning to the previous node.

    Lee, Xu and Eun (SIGMETRICS 2012) show the non-backtracking walk has
    the same degree-proportional stationary distribution as the simple
    walk but lower asymptotic variance.  Provided as an optional upgrade
    for the paper's samplers (not used in the headline experiments).
    """

    name = "non_backtracking"

    def initial_state(self, provider, start_node, rng):
        return None  # previous node; None until the first step happens

    def step(self, provider, current, state, rng):
        previous = state
        neighbors = provider.neighbors(current)
        if not neighbors:
            raise WalkError(
                f"random walk reached isolated node {current!r}; "
                "run on the largest connected component"
            )
        if len(neighbors) == 1:
            # Dead-end: backtracking is the only option.
            return neighbors[0], current
        if previous is None or previous not in neighbors:
            return rng.choice(neighbors), current
        choice = rng.choice(neighbors)
        while choice == previous:
            choice = rng.choice(neighbors)
        return choice, current

    def stationary_weight(self, provider, node) -> float:
        return float(provider.degree(node))


class MetropolisHastingsKernel(TransitionKernel):
    """Metropolis–Hastings random walk with a uniform target distribution.

    Propose a uniform neighbor ``v`` and accept with probability
    ``min(1, d(u)/d(v))``; otherwise stay at ``u``.  The stationary
    distribution is uniform over nodes, so sample averages of an
    indicator directly estimate relative counts (the EX-MHRW baseline).
    """

    name = "mhrw"

    def step(self, provider, current, state, rng):
        neighbors = provider.neighbors(current)
        if not neighbors:
            raise WalkError(
                f"random walk reached isolated node {current!r}; "
                "run on the largest connected component"
            )
        proposal = rng.choice(neighbors)
        d_current = len(neighbors)
        d_proposal = provider.degree(proposal)
        accept_probability = min(1.0, d_current / d_proposal)
        if rng.random() < accept_probability:
            return proposal, state
        return current, state

    def stationary_weight(self, provider, node) -> float:
        return 1.0


class MaximumDegreeKernel(TransitionKernel):
    """Maximum-degree random walk: uniform stationary distribution via self-loops.

    From node ``u`` each neighbor is chosen with probability
    ``1/d_max`` and the walk self-loops with the remaining probability
    ``1 - d(u)/d_max``.  Nodes of low degree therefore self-loop a lot,
    which is exactly the pathology the paper observes for EX-MDRW.
    """

    name = "mdrw"

    def __init__(self, max_degree: float) -> None:
        self.max_degree = check_positive(max_degree, "max_degree")

    def step(self, provider, current, state, rng):
        neighbors = provider.neighbors(current)
        if not neighbors:
            raise WalkError(
                f"random walk reached isolated node {current!r}; "
                "run on the largest connected component"
            )
        degree = len(neighbors)
        if degree > self.max_degree:
            raise WalkError(
                f"node {current!r} has degree {degree} > max_degree={self.max_degree}"
            )
        move_probability = degree / self.max_degree
        if rng.random() < move_probability:
            return rng.choice(neighbors), state
        return current, state

    def stationary_weight(self, provider, node) -> float:
        return 1.0

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return f"MaximumDegreeKernel(max_degree={self.max_degree})"


class RejectionControlledMHKernel(TransitionKernel):
    """Rejection-controlled Metropolis–Hastings walk (Li et al., ICDE 2015).

    A knob ``alpha`` in ``[0, 1]`` interpolates between the simple random
    walk (``alpha = 0``) and full Metropolis–Hastings (``alpha = 1``):
    the proposal is accepted with probability ``min(1, (d(u)/d(v))**alpha)``.
    The stationary distribution is proportional to ``d(u)**(1-alpha)``,
    so estimates must be re-weighted accordingly (the EX-RCMH baseline
    does).  The paper sweeps ``alpha ∈ [0, 0.3]`` and reports the best.
    """

    name = "rcmh"

    def __init__(self, alpha: float = 0.2) -> None:
        self.alpha = check_in_range(alpha, "alpha", 0.0, 1.0)

    def step(self, provider, current, state, rng):
        neighbors = provider.neighbors(current)
        if not neighbors:
            raise WalkError(
                f"random walk reached isolated node {current!r}; "
                "run on the largest connected component"
            )
        proposal = rng.choice(neighbors)
        if self.alpha == 0.0:
            return proposal, state
        d_current = len(neighbors)
        d_proposal = provider.degree(proposal)
        accept_probability = min(1.0, (d_current / d_proposal) ** self.alpha)
        if rng.random() < accept_probability:
            return proposal, state
        return current, state

    def stationary_weight(self, provider, node) -> float:
        return float(provider.degree(node)) ** (1.0 - self.alpha)

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return f"RejectionControlledMHKernel(alpha={self.alpha})"


class GeneralMaximumDegreeKernel(TransitionKernel):
    """General maximum-degree random walk (Li et al., ICDE 2015).

    The plain MD walk wastes steps self-looping at low-degree nodes.  The
    general variant caps the virtual degree at ``c(u) = max(d(u), delta ·
    d_max)`` with ``delta ∈ (0, 1]``: from ``u`` each neighbor is chosen
    with probability ``1/c(u)`` and the walk self-loops with probability
    ``1 - d(u)/c(u)``.  The stationary distribution is proportional to
    ``c(u)``, so estimates are re-weighted by ``1/c(u)``.  ``delta = 1``
    recovers MD; ``delta → 0`` recovers the simple random walk.  The
    paper sweeps ``delta ∈ [0.3, 0.7]`` and reports the best.
    """

    name = "gmd"

    def __init__(self, max_degree: float, delta: float = 0.5) -> None:
        self.max_degree = check_positive(max_degree, "max_degree")
        self.delta = check_in_range(delta, "delta", 0.0, 1.0)
        if self.delta == 0.0:
            raise WalkError("delta must be strictly positive for the GMD walk")

    def virtual_degree(self, degree: int) -> float:
        """The capped degree ``c(u) = max(d(u), delta · d_max)``."""
        return max(float(degree), self.delta * self.max_degree)

    def step(self, provider, current, state, rng):
        neighbors = provider.neighbors(current)
        if not neighbors:
            raise WalkError(
                f"random walk reached isolated node {current!r}; "
                "run on the largest connected component"
            )
        degree = len(neighbors)
        capped = self.virtual_degree(degree)
        move_probability = degree / capped
        if rng.random() < move_probability:
            return rng.choice(neighbors), state
        return current, state

    def stationary_weight(self, provider, node) -> float:
        return self.virtual_degree(provider.degree(node))

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return (
            f"GeneralMaximumDegreeKernel(max_degree={self.max_degree}, "
            f"delta={self.delta})"
        )


__all__ = [
    "TransitionKernel",
    "SimpleRandomWalkKernel",
    "NonBacktrackingKernel",
    "MetropolisHastingsKernel",
    "MaximumDegreeKernel",
    "RejectionControlledMHKernel",
    "GeneralMaximumDegreeKernel",
]
