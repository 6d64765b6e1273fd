"""Packed serving: one batch of distinct-seed queries, two walks.

A batch spanning all ten algorithms is walked as one node pack (the
NS/NE plans) and one line pack (the EX-* plans).  The contract: every
answer equals ``run_trials_prefix`` at its user seed, and every failure
— an open breaker, an injected ``fleet.run`` fault, a ``WalkError`` of
one plan's walk, an expired deadline — stays with its own plan.
"""

import pytest

from repro.baselines.adaptations import ExMaximumDegreeBaseline
from repro.exceptions import (
    CircuitOpenError,
    ConfigurationError,
    DeadlineExceededError,
    WalkError,
)
from repro.experiments.algorithms import BaselineRunner, build_algorithm_suite
from repro.experiments.runner import run_trials_prefix
from repro.resilience import (
    Deadline,
    FaultInjector,
    FaultPlan,
    InjectedFaultError,
    install_injector,
)
from repro.service import EstimationService
from repro.utils.rng import derive_seed

BURN_IN = 5  # matches the conftest fixtures
REPETITIONS = 6
BUDGETS = (20, 35, 50)


@pytest.fixture(autouse=True)
def clean_ambient():
    previous = install_injector(None)
    yield
    install_injector(previous)


@pytest.fixture(scope="module")
def suite(serving_graph):
    return build_algorithm_suite(serving_graph, include_baselines=True)


def _service(serving_graph, algorithms=None):
    return EstimationService(
        serving_graph,
        graph_store="ram",
        algorithms=algorithms,
        default_repetitions=REPETITIONS,
        default_burn_in=BURN_IN,
        name="test-packed",
        breaker_threshold=1,
        breaker_cooldown_seconds=60.0,
    )


def _queries(algorithms):
    """One distinct-seed query per algorithm, budgets cycling."""
    return [
        dict(
            algorithm=name, t1=1, t2=2, budget=BUDGETS[index % len(BUDGETS)],
            seed=4000 + 17 * index, repetitions=REPETITIONS, burn_in=BURN_IN,
        )
        for index, name in enumerate(algorithms)
    ]


def _batch_answer(serving_graph, runner, query):
    [outcome] = run_trials_prefix(
        serving_graph, 1, 2, runner, query["algorithm"],
        [query["budget"]], REPETITIONS, BURN_IN,
        seed=derive_seed(query["seed"], query["algorithm"], "prefix"),
    )
    return outcome


def _assert_matches_batch(serving_graph, suite, query, answer):
    outcome = _batch_answer(serving_graph, suite[query["algorithm"]], query)
    assert answer.estimates == outcome.estimates, query["algorithm"]
    assert answer.api_calls == outcome.api_calls, query["algorithm"]
    assert answer.true_count == outcome.true_count


class TestPackedBatch:
    def test_every_answer_equals_the_batch_harness(self, serving_graph, suite):
        queries = _queries(suite)
        with _service(serving_graph) as service:
            answers = service.estimate_many(queries)
            stats = service.stats()["fleets"]
        for query, answer in zip(queries, answers):
            _assert_matches_batch(serving_graph, suite, query, answer)
        assert stats["built"] == len(queries)  # plans walked
        assert stats["walks_run"] == 2  # one node pack, one line pack
        assert stats["walkers_per_walk"] == len(queries) * REPETITIONS / 2

    def test_open_breaker_fails_only_its_plan(self, serving_graph, suite):
        queries = _queries(suite)
        with _service(serving_graph) as service:
            service.breakers.breaker("EX-RCMH").record_failure()
            answers = service.estimate_many(queries)
        for query, answer in zip(queries, answers):
            if query["algorithm"] == "EX-RCMH":
                assert isinstance(answer, CircuitOpenError)
            else:
                _assert_matches_batch(serving_graph, suite, query, answer)

    def test_injected_fault_fails_only_its_plan(self, serving_graph, suite):
        queries = _queries(suite)
        # Plans fire in arrival order: the fourth plan draws the fault.
        install_injector(FaultInjector(FaultPlan.parse("fleet.run=error,after=3,count=1")))
        with _service(serving_graph) as service:
            answers = service.estimate_many(queries)
            breakers = service.breakers.snapshot()
        faulted = queries[3]["algorithm"]
        for query, answer in zip(queries, answers):
            if query["algorithm"] == faulted:
                assert isinstance(answer, InjectedFaultError)
            else:
                _assert_matches_batch(serving_graph, suite, query, answer)
        assert breakers[faulted]["state"] == "open"
        assert all(
            entry["state"] == "closed"
            for name, entry in breakers.items()
            if name != faulted
        )

    def test_walk_error_fails_only_its_plan(self, serving_graph, suite):
        # A line max degree below the real one: EX-MDRW's walk raises.
        algorithms = dict(suite)
        algorithms["EX-MDRW"] = BaselineRunner(ExMaximumDegreeBaseline(2.0))
        queries = _queries(algorithms)
        with _service(serving_graph, algorithms) as service:
            answers = service.estimate_many(queries)
            breakers = service.breakers.snapshot()
            built = service.fleets_built
        for query, answer in zip(queries, answers):
            if query["algorithm"] == "EX-MDRW":
                assert isinstance(answer, WalkError)
                assert "max_degree=2.0" in str(answer)
            else:
                _assert_matches_batch(serving_graph, suite, query, answer)
        assert built == len(queries) - 1
        assert breakers["EX-MDRW"]["state"] == "open"
        assert all(
            entry["state"] == "closed"
            for name, entry in breakers.items()
            if name != "EX-MDRW"
        )

    def test_unvectorizable_runner_fails_only_its_plan(self, serving_graph, suite):
        def hand_written(api, t1, t2, k, burn_in, rng):  # pragma: no cover
            raise AssertionError("a served runner is never called directly")

        algorithms = dict(suite, Custom=hand_written)
        queries = _queries(algorithms)
        with _service(serving_graph, algorithms) as service:
            answers = service.estimate_many(queries)
            walks = service.walks_run
        for query, answer in zip(queries, answers):
            if query["algorithm"] == "Custom":
                assert isinstance(answer, ConfigurationError)
            else:
                _assert_matches_batch(serving_graph, suite, query, answer)
        assert walks == 2

    def test_expired_deadline_is_dropped_before_walking(self, serving_graph, suite):
        class Clock:
            now = 10.0

            def __call__(self):
                return self.now

        clock = Clock()
        queries = _queries(suite)
        deadlines = [None] * len(queries)
        deadlines[6] = Deadline(0.05, clock=clock)
        clock.now += 1.0
        with _service(serving_graph) as service:
            answers = service.estimate_many(queries, deadlines=deadlines)
            built = service.fleets_built
            steps = service.steps_walked
        assert isinstance(answers[6], DeadlineExceededError)
        assert built == len(queries) - 1
        expected_steps = sum(
            REPETITIONS * (BURN_IN + query["budget"])
            for index, query in enumerate(queries)
            if index != 6
        )
        assert steps == expected_steps
        for index, (query, answer) in enumerate(zip(queries, answers)):
            if index != 6:
                _assert_matches_batch(serving_graph, suite, query, answer)
