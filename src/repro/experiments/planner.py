"""Prefix-fleet planning: one max-budget fleet answers many queries.

The prefix-reuse engine (PR 3) established the load-bearing exactness
property this module packages: a budget-``b`` crawl from a given seed
*is* the first ``b`` collected steps of a longer crawl from the same
seed, for the NS/NE walker fleets **and** the EX-* implicit line-graph
fleets alike.  Classification is the only label-dependent step, so one
fleet also answers *every* target pair.  Historically that logic lived
inline in :func:`repro.experiments.runner.run_trials_prefix` (budget
sweeps) and :func:`repro.experiments.sweeps.frequency_sweep` (pair
sweeps); this module factors it into a first-class planner object so a
third caller — the :mod:`repro.service` micro-batcher, which coalesces
concurrent (pair, budget) queries from many clients — can share the
same walks without duplicating the classify/estimate dispatch.

The exactness contract callers rely on:

* :meth:`PrefixFleet.estimate` at budget ``b`` is **bit-identical** to
  building a fresh fleet of exactly ``b`` steps from the same
  :class:`FleetSpec` and estimating off that (pinned by
  ``tests/service/test_planner.py``), because the fleet engines consume
  their random streams step-by-step across all walkers;
* two queries differing only in target pair and/or budget are served
  from the *same* walk, so coalescing them changes no estimate;
* fleets of *different* specs can share one packed walk
  (:func:`pack_prefix_fleets`): each keeps its own random stream, so a
  packed fleet is bit-identical to the same spec walked alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple, Union

from repro.baselines.fleet import (
    classify_line_fleet,
    reweighted_estimates,
    run_baseline_fleet,
)
from repro.core.pipeline import ProposedRunner
from repro.core.samplers.csr_backend import (
    classify_edge_fleet,
    classify_node_fleet,
    run_fleet_walk,
)
from repro.exceptions import ConfigurationError, WalkError
from repro.graph.csr import CSRGraph
from repro.utils.rng import RandomSource
from repro.utils.validation import check_positive_int
from repro.walks.batched import FleetGroup, FleetWalkResult
from repro.walks.line_batched import LineFleetResult

from repro.experiments.algorithms import AlgorithmRunner, BaselineRunner


@dataclass(frozen=True)
class FleetSpec:
    """Everything that pins one fleet's walk bit-for-bit.

    Two queries can share a fleet exactly when their specs are equal:
    the *seed* fixes the random streams, *repetitions* the walker count,
    *burn_in* the discarded prefix, and *algorithm* selects the runner
    (NS/NE walker fleet vs EX-* line-graph fleet and, downstream, the
    estimator).  Target pair and budget are deliberately **not** here —
    they are classification-time parameters served off prefixes.
    """

    algorithm: str
    seed: RandomSource
    repetitions: int
    burn_in: int


def walk_family(runner: AlgorithmRunner) -> str:
    """Which packed walk serves *runner*: ``"line"`` (EX-*) or ``"node"``."""
    return "line" if isinstance(runner, BaselineRunner) else "node"


def _fleet_group(runner: AlgorithmRunner, spec: FleetSpec, max_budget: int) -> FleetGroup:
    """The packed-walk group one (runner, spec, max budget) request walks."""
    if not isinstance(runner, (ProposedRunner, BaselineRunner)):
        raise ConfigurationError(
            f"prefix reuse needs a vectorizable registry runner "
            f"(ProposedRunner or BaselineRunner); {spec.algorithm!r} is "
            "not one — run it with reuse='none'"
        )
    check_positive_int(max_budget, "max_budget")
    check_positive_int(spec.repetitions, "repetitions")
    # The proposed algorithms all walk the simple random walk; the EX-*
    # kernel (and its knobs) comes off the wrapped baseline instance.
    kernel = (
        runner.baseline.csr_kernel_spec()
        if isinstance(runner, BaselineRunner)
        else "simple"
    )
    return FleetGroup(kernel, spec.seed, spec.repetitions, int(max_budget), spec.burn_in)


def walk_fleets(
    csr: CSRGraph,
    requests: Sequence[Tuple[AlgorithmRunner, FleetSpec, int]],
) -> List[Union[FleetWalkResult, LineFleetResult, ConfigurationError, WalkError]]:
    """Walk every ``(runner, spec, max_budget)`` request in at most two walks.

    The NS/NE requests share one packed node walk
    (:func:`run_fleet_walk`), the EX-* requests one packed line walk
    with a per-walker kernel (:func:`run_baseline_fleet`).  Each
    request's fleet is bit-identical to its solo walk, because every
    group draws from its own seed.  A request that cannot be walked (a
    runner that does not vectorize, a bad budget) or whose walk raised
    gets its :class:`ConfigurationError` / :class:`WalkError` instead,
    and the others are unaffected.
    """
    families: Dict[str, List[Tuple[int, FleetGroup]]] = {"node": [], "line": []}
    outcomes: list = [None] * len(requests)
    for position, (runner, spec, max_budget) in enumerate(requests):
        try:
            group = _fleet_group(runner, spec, max_budget)
        except ConfigurationError as exc:
            outcomes[position] = exc
            continue
        families[walk_family(runner)].append((position, group))
    for members, walk in (
        (families["node"], run_fleet_walk),
        (families["line"], run_baseline_fleet),
    ):
        if members:
            walked = walk(csr, [group for _, group in members])
            for (position, _), outcome in zip(members, walked):
                outcomes[position] = outcome
    return outcomes


class PrefixFleet:
    """One max-budget walker fleet, answering any (pair, budget ≤ max).

    Wraps the two vectorized fleet families behind one query surface:

    * :class:`~repro.core.pipeline.ProposedRunner` → one NS/NE fleet
      (:func:`run_fleet_walk`); the runner's own sampler kind selects
      edge- vs node-classification and its estimator factory the
      batch estimator.
    * :class:`~repro.experiments.algorithms.BaselineRunner` (EX-*) →
      one implicit line-graph fleet (:func:`run_baseline_fleet`) with
      the wrapped baseline's ``alpha`` / ``delta`` / line-max-degree
      knobs; prefixes keep the rejected-proposal probes in the
      per-trial ledgers.

    Hand-written runner callables cannot vectorize and raise
    :class:`ConfigurationError`, exactly like the historical inline
    check in ``run_trials_prefix``.

    Without *fleet* the constructor walks the fleet itself, as a pack
    of one (:func:`walk_fleets`).  *fleet* hands it an already walked
    fleet instead — its slice of a packed walk
    (:func:`pack_prefix_fleets`), which is bit-identical to what the
    constructor would have walked.
    """

    def __init__(
        self,
        csr: CSRGraph,
        runner: AlgorithmRunner,
        spec: FleetSpec,
        max_budget: int,
        fleet: Union[FleetWalkResult, LineFleetResult, None] = None,
    ) -> None:
        if fleet is None:
            (fleet,) = walk_fleets(csr, [(runner, spec, max_budget)])
            if isinstance(fleet, Exception):
                raise fleet
        else:
            _fleet_group(runner, spec, max_budget)  # same validation
        self.csr = csr
        self.runner = runner
        self.spec = spec
        self.max_budget = int(max_budget)
        self._fleet = fleet

    @property
    def algorithm(self) -> str:
        """Registry name of the runner this fleet walks for."""
        return self.spec.algorithm

    @property
    def steps_walked(self) -> int:
        """Total transitions this fleet advanced (burn-in included).

        The serving layer's throughput accounting: every walker took
        ``burn_in + max_budget`` transitions regardless of how many
        budgets/pairs are later read off prefixes.
        """
        return self.spec.repetitions * (self.spec.burn_in + self.max_budget)

    def estimate(self, t1, t2, budget: int) -> Tuple[List[float], List[int]]:
        """Per-repetition estimates and charged-call ledgers at *budget*.

        Classifies the fleet's first *budget* collected steps against
        the (*t1*, *t2*) label masks and pushes them through the
        runner's batch estimator.  Bit-identical to a fresh fleet of
        exactly *budget* steps from the same spec; the per-walker
        ledgers are recomputed over the truncated trajectories
        (rejection probes included), so the charged-call accounting
        matches a crawl stopped at exactly that budget.
        """
        check_positive_int(budget, "budget")
        if budget > self.max_budget:
            raise ConfigurationError(
                f"budget {budget} exceeds this fleet's max budget "
                f"{self.max_budget}"
            )
        prefix = self._fleet.prefix(budget)
        if isinstance(self.runner, BaselineRunner):
            batch = classify_line_fleet(self.csr, prefix, t1, t2)
            estimates = reweighted_estimates(batch)
        else:
            classify = (
                classify_edge_fleet
                if self.runner.sampler == "edge"
                else classify_node_fleet
            )
            batch = classify(self.csr, prefix, t1, t2)
            estimates = self.runner.estimator_factory().estimate_batch(batch)
        return (
            [float(value) for value in estimates],
            [int(calls) for calls in batch.api_calls],
        )


def pack_prefix_fleets(
    csr: CSRGraph,
    requests: Sequence[Tuple[AlgorithmRunner, FleetSpec, int]],
) -> List[Union[PrefixFleet, ConfigurationError, WalkError]]:
    """One :class:`PrefixFleet` (or the request's error) per request.

    The serving layer's batch path: every request of a batch is walked
    in at most two packed walks (:func:`walk_fleets`) and each
    :class:`PrefixFleet` is built from its slice, so its answers are
    bit-identical to a fleet built alone from the same spec.
    """
    walked = walk_fleets(csr, requests)
    return [
        outcome
        if isinstance(outcome, Exception)
        else PrefixFleet(csr, runner, spec, max_budget, fleet=outcome)
        for (runner, spec, max_budget), outcome in zip(requests, walked)
    ]


__all__ = [
    "FleetSpec",
    "PrefixFleet",
    "pack_prefix_fleets",
    "walk_family",
    "walk_fleets",
]
