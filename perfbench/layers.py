"""Which program functions the traced run wraps, and under what span names.

Each entry point is wrapped under the name its caller binds, so the
span sees exactly the calls that caller makes:

* ``repro.experiments.runner`` binds ``run_trials_prefix`` (one table
  row);
* ``repro.experiments.planner`` binds the fleet walkers
  (``run_fleet_walk``: node fleets in ``walks.batched``;
  ``run_baseline_fleet``: EX-* line fleets in ``walks.line_batched``),
  the classifiers and ``reweighted_estimates``;
* ``repro.service.core`` binds ``publish_csr``, ``plan_queries``,
  ``build_algorithm_suite`` and ``recommended_burn_in``;
* ``repro.graph.store`` binds ``attach_csr`` (reached through
  ``CSRPublication.attach``) and ``verify_artifact``;
* methods are wrapped on their classes: ``PrefixFleet``,
  ``CSRGraph.count_target_edges``, ``AnswerCache.get``, the batch
  estimators, ``EstimationService.estimate_many`` and
  ``MicroBatcher.submit``.

Span names are ``<layer>.<operation>``; the layer is the repo module the
function belongs to.
"""

from __future__ import annotations

import os
from typing import Dict

from spans import Tracer

TABLE = "experiments.runner.compare_algorithms"
ESTIMATE_MANY = "service.core.estimate_many"
LINE_WALK = "walks.line_batched.run_fleet"
NODE_WALK = "walks.batched.run_fleet"
TRUTH = "graph.csr.count_target_edges"
CLASSIFY = "core.samplers.classify"
ESTIMATE = "core.estimators.estimate_batch"


def install(tracer: Tracer) -> None:
    """Wrap every traced entry point; undo with ``tracer.restore()``."""
    import repro.experiments.planner as planner
    import repro.experiments.runner as runner
    import repro.graph.store as store
    import repro.service.core as core
    from repro.core.estimators.hansen_hurwitz import (
        EdgeHansenHurwitzEstimator,
        NodeHansenHurwitzEstimator,
    )
    from repro.core.estimators.horvitz_thompson import (
        EdgeHorvitzThompsonEstimator,
        NodeHorvitzThompsonEstimator,
    )
    from repro.core.estimators.reweighted import NodeReweightedEstimator
    from repro.experiments.algorithms import BaselineRunner
    from repro.graph.csr import CSRGraph
    from repro.service.batcher import MicroBatcher
    from repro.service.cache import AnswerCache

    # experiments.runner
    tracer.wrap(runner, "run_trials_prefix", "experiments.runner.run_trials_prefix")

    # experiments.planner -> walks / core.samplers / core.estimators
    tracer.wrap(planner, "run_fleet_walk", NODE_WALK)
    tracer.wrap(planner, "run_baseline_fleet", LINE_WALK)
    for name in ("classify_edge_fleet", "classify_node_fleet", "classify_line_fleet"):
        tracer.wrap(planner, name, CLASSIFY)
    tracer.wrap(planner, "reweighted_estimates", ESTIMATE)
    for estimator in (
        EdgeHansenHurwitzEstimator,
        NodeHansenHurwitzEstimator,
        EdgeHorvitzThompsonEstimator,
        NodeHorvitzThompsonEstimator,
        NodeReweightedEstimator,
    ):
        tracer.wrap(estimator, "estimate_batch", ESTIMATE)
    tracer.wrap(planner.PrefixFleet, "estimate", "experiments.planner.estimate")

    fleet_init = planner.PrefixFleet.__init__

    def prefix_fleet_init(self, csr, runner_, spec, max_budget, *args, **kwargs):
        with tracer.span("experiments.planner.PrefixFleet"):
            fleet_init(self, csr, runner_, spec, max_budget, *args, **kwargs)
        steps = spec.repetitions * (spec.burn_in + int(max_budget))
        walker = "walks.line_batched" if isinstance(runner_, BaselineRunner) else "walks.batched"
        tracer.count(f"{walker}.steps", steps)
        tracer.sample("experiments.planner.fleet_width", spec.repetitions)

    tracer.patch(planner.PrefixFleet, "__init__", prefix_fleet_init)

    # graph.csr ground truth: a miss is a pair whose count is not cached yet
    truth = CSRGraph.count_target_edges

    def count_target_edges(self, t1, t2):
        miss = (t1, t2) not in self._target_count_cache
        with tracer.span(TRUTH):
            result = truth(self, t1, t2)
        tracer.count("graph.csr.truth_misses", float(miss))
        return result

    tracer.patch(CSRGraph, "count_target_edges", count_target_edges)

    # set-up layers reached through the service boot
    tracer.wrap(core, "publish_csr", "graph.store.publish_csr")
    tracer.wrap(core, "build_algorithm_suite", "experiments.algorithms.build_algorithm_suite")
    tracer.wrap(core, "recommended_burn_in", "walks.mixing.recommended_burn_in")
    tracer.wrap(store, "attach_csr", "graph.store.attach_csr")
    verify = store.verify_artifact

    def verify_artifact(path, *args, **kwargs):
        with tracer.span("durability.manifest.verify_artifact"):
            result = verify(path, *args, **kwargs)
        tracer.count("durability.manifest.verify_bytes", os.path.getsize(path))
        return result

    tracer.patch(store, "verify_artifact", verify_artifact)

    # service.planner / service.cache
    plan_queries = core.plan_queries

    def traced_plan_queries(queries):
        with tracer.span("service.planner.plan_queries"):
            plans = plan_queries(queries)
        tracer.count("service.planner.plans", len(plans))
        tracer.count("service.planner.planned_queries", len(queries))
        return plans

    tracer.patch(core, "plan_queries", traced_plan_queries)

    cache_get = AnswerCache.get

    def traced_cache_get(self, key):
        with tracer.span("service.cache.get"):
            answer = cache_get(self, key)
        tracer.count("service.cache.lookups")
        tracer.count("service.cache.hits", float(answer is not None))
        return answer

    tracer.patch(AnswerCache, "get", traced_cache_get)

    # service.batcher -> service.core: queue wait runs from submit to the
    # moment the engine starts on the query's batch (its first child span,
    # which begins once the engine lock is held).
    submitted: Dict[int, float] = {}
    submit = MicroBatcher.submit

    async def traced_submit(self, query, *args, **kwargs):
        with tracer.span("service.batcher.submit", new_trace=True) as span:
            submitted[id(query)] = span.start
            try:
                return await submit(self, query, *args, **kwargs)
            finally:
                submitted.pop(id(query), None)

    tracer.patch(MicroBatcher, "submit", traced_submit)

    estimate_many = core.EstimationService.estimate_many

    def traced_estimate_many(self, queries, *args, **kwargs):
        with tracer.span(ESTIMATE_MANY, new_trace=True) as span:
            results = estimate_many(self, queries, *args, **kwargs)
        engine_start = span.first_child_start or span.start
        tracer.sample("service.batcher.batch_size", len(queries))
        for query in queries:
            queued_at = submitted.get(id(query))
            if queued_at is not None:
                tracer.sample("service.batcher.queue_wait_s", engine_start - queued_at)
        return results

    tracer.patch(core.EstimationService, "estimate_many", traced_estimate_many)

