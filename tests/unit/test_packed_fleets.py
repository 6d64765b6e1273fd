"""Packed fleets: many independent fleets in one vectorized walk.

The contract under test: a group walked inside a pack is **bit-identical**
to the same group walked alone — trajectories, proposal probes and
per-walker ledgers — whatever its pack-mates, their kernels, widths and
lengths, and their order.  Two layers:

* the engines (``run_packed_fleets`` / ``run_packed_line_fleets``)
  against the solo engines *and* against a step-by-step oracle that
  draws each step's uniforms with its own ``random(n)`` call, the way
  the per-step engines always consumed their streams;
* the planner (``walk_fleets``) for all ten algorithms of the paper's
  suite, against solo ``PrefixFleet`` walks.
"""

import numpy as np
import pytest

from repro.datasets.labeling import assign_binary_labels
from repro.datasets.synthetic import powerlaw_cluster_osn
from repro.exceptions import ConfigurationError, WalkError
from repro.experiments.algorithms import BaselineRunner, build_algorithm_suite
from repro.experiments.planner import FleetSpec, PrefixFleet, walk_fleets
from repro.graph.csr import CSRGraph, csr_view
from repro.walks.batched import (
    PACK_CHUNK_STEPS,
    BatchedWalkEngine,
    FleetGroup,
    KernelSpec,
    kernel_move_probabilities,
    run_packed_fleets,
)
from repro.walks.line_batched import BatchedLineWalkEngine, run_packed_line_fleets

NODE_KERNELS = [
    KernelSpec("simple"),
    KernelSpec("non_backtracking"),
    KernelSpec("mhrw"),
    KernelSpec("rcmh", alpha=0.2),
    KernelSpec("rcmh", alpha=0.0),
    KernelSpec("mdrw", max_degree=500.0),
    KernelSpec("gmd", max_degree=60.0, delta=0.5),
]
LINE_KERNELS = [
    KernelSpec("simple"),
    KernelSpec("mhrw"),
    KernelSpec("rcmh", alpha=0.2),
    KernelSpec("rcmh", alpha=0.0),
    KernelSpec("mdrw", max_degree=2000.0),
    KernelSpec("gmd", max_degree=300.0, delta=0.5),
]
WIDTHS = (1, 7, 20, 25)
#: Walk lengths (burn-in + steps) that retire groups mid-chunk, exactly
#: at a chunk boundary and one step past it.
LENGTHS = (
    (3, 17),
    (0, PACK_CHUNK_STEPS),
    (1, PACK_CHUNK_STEPS),
    (5, 2 * PACK_CHUNK_STEPS + 9),
    (0, 40),
)


@pytest.fixture(scope="module")
def osn():
    graph = powerlaw_cluster_osn(300, 4, 0.3, rng=11)
    assign_binary_labels(graph, 0.4, labels=(1, 2), rng=12)
    return graph


@pytest.fixture(scope="module")
def csr(osn):
    return csr_view(osn)


def _groups(kernels, seed0):
    """Groups cycling through *kernels*, every width and every length."""
    groups = []
    for index, kernel in enumerate(kernels):
        burn_in, steps = LENGTHS[index % len(LENGTHS)]
        width = WIDTHS[index % len(WIDTHS)]
        groups.append(FleetGroup(kernel, seed0 + index, width, steps, burn_in))
    return groups


# ----------------------------------------------------------------------
# step-by-step oracles: one random(n) call per draw per step
# ----------------------------------------------------------------------
def _oracle_node_fleet(csr, group):
    spec, rng = group.kernel, np.random.default_rng(group.rng)
    n, total = group.num_walkers, group.total
    current = rng.integers(0, csr.num_nodes, size=n, dtype=np.int64)
    previous = np.full(n, -1, dtype=np.int64)
    trajectories = [current]
    probes = []
    for _ in range(total):
        degrees = csr.degrees[current]
        draws = rng.random(n)
        span = degrees
        eligible = np.zeros(n, dtype=bool)
        if spec.name == "non_backtracking":
            eligible = (previous >= 0) & (degrees > 1)
            span = np.where(eligible, degrees - 1, degrees)
        offsets = np.minimum((draws * span).astype(np.int64), span - 1)
        rows = csr.indptr[current]
        proposal = csr.indices[rows + offsets].astype(np.int64)
        bump = eligible & (proposal == previous)
        proposal[bump] = csr.indices[rows[bump] + degrees[bump] - 1]
        nxt = proposal
        p = kernel_move_probabilities(spec, degrees, csr.degrees[proposal])
        if p is not None:
            nxt = np.where(rng.random(n) < p, proposal, current)
        probes.append(proposal)
        previous, current = current, nxt
        trajectories.append(current)
    probed = np.stack(probes, axis=1) if spec.probes_proposals else None
    return np.stack(trajectories, axis=1), probed


def _oracle_line_fleet(csr, group):
    spec, rng = group.kernel, np.random.default_rng(group.rng)
    n, total = group.num_walkers, group.total
    degrees = csr.degrees
    u = rng.integers(0, csr.num_nodes, size=n, dtype=np.int64)
    offsets = np.minimum((rng.random(n) * degrees[u]).astype(np.int64), degrees[u] - 1)
    v = csr.indices[csr.indptr[u] + offsets].astype(np.int64)
    src, dst, probe_src, probe_dst = [u], [v], [], []
    for _ in range(total):
        du, dv = degrees[u], degrees[v]
        line = du + dv - 2
        side = np.minimum((rng.random(n) * line).astype(np.int64), line - 1)
        side_u = side < du - 1
        pivot, other = np.where(side_u, u, v), np.where(side_u, v, u)
        span = degrees[pivot] - 1
        offsets = np.minimum((rng.random(n) * span).astype(np.int64), span - 1)
        rows = csr.indptr[pivot]
        w = csr.indices[rows + offsets].astype(np.int64)
        bump = w == other
        w[bump] = csr.indices[rows[bump] + degrees[pivot][bump] - 1]
        p = kernel_move_probabilities(spec, line, degrees[pivot] + degrees[w] - 2)
        if p is None:
            u, v = pivot, w
        else:
            accept = rng.random(n) < p
            u, v = np.where(accept, pivot, u), np.where(accept, w, v)
        probe_src.append(pivot)
        probe_dst.append(w)
        src.append(u)
        dst.append(v)
    probes = (None, None)
    if spec.probes_proposals:
        probes = (np.stack(probe_src, axis=1), np.stack(probe_dst, axis=1))
    return np.stack(src, axis=1), np.stack(dst, axis=1), probes


# ----------------------------------------------------------------------
# engines
# ----------------------------------------------------------------------
def _assert_node_equal(packed, solo):
    assert np.array_equal(packed.trajectories, solo.trajectories)
    assert packed.burn_in == solo.burn_in
    assert (packed.probed is None) == (solo.probed is None)
    if solo.probed is not None:
        assert np.array_equal(packed.probed, solo.probed)
    assert np.array_equal(packed.charged_calls(), solo.charged_calls())


def _assert_line_equal(packed, solo):
    assert np.array_equal(packed.src, solo.src)
    assert np.array_equal(packed.dst, solo.dst)
    assert packed.burn_in == solo.burn_in
    assert (packed.probed_src is None) == (solo.probed_src is None)
    if solo.probed_src is not None:
        assert np.array_equal(packed.probed_src, solo.probed_src)
        assert np.array_equal(packed.probed_dst, solo.probed_dst)
    assert np.array_equal(packed.charged_calls(), solo.charged_calls())


class TestNodePacks:
    def test_every_group_equals_its_solo_fleet(self, csr):
        groups = _groups(NODE_KERNELS * 2, seed0=100)
        for group, packed in zip(groups, run_packed_fleets(csr, groups)):
            solo = BatchedWalkEngine(csr, kernel=group.kernel, rng=group.rng).run_fleet(
                group.num_walkers, group.num_steps, burn_in=group.burn_in
            )
            _assert_node_equal(packed, solo)

    def test_pack_matches_the_step_by_step_oracle(self, csr):
        groups = _groups(NODE_KERNELS, seed0=200)
        for group, packed in zip(groups, run_packed_fleets(csr, groups)):
            trajectories, probed = _oracle_node_fleet(csr, group)
            assert np.array_equal(packed.trajectories, trajectories), group.kernel
            if probed is None:
                assert packed.probed is None
            else:
                assert np.array_equal(packed.probed, probed), group.kernel

    @pytest.mark.parametrize("width", WIDTHS)
    def test_pack_of_one_is_the_solo_fleet(self, csr, width):
        group = FleetGroup("simple", 5, width, 90, 10)
        [packed] = run_packed_fleets(csr, [group])
        trajectories, _ = _oracle_node_fleet(csr, group)
        assert np.array_equal(packed.trajectories, trajectories)

    def test_results_do_not_depend_on_pack_mates_or_order(self, csr):
        groups = _groups(NODE_KERNELS, seed0=300)
        reference = run_packed_fleets(csr, groups)
        order = np.random.default_rng(0).permutation(len(groups))
        shuffled = run_packed_fleets(csr, [groups[i] for i in order])
        for position, index in enumerate(order):
            _assert_node_equal(shuffled[position], reference[index])
        # ...and a subset of the pack-mates changes nothing either.
        subset = run_packed_fleets(csr, groups[::2])
        for packed, index in zip(subset, range(0, len(groups), 2)):
            _assert_node_equal(packed, reference[index])

    def test_wide_pack_shortens_the_chunk_but_not_the_stream(self, csr, monkeypatch):
        import repro.walks.batched as batched

        groups = _groups(NODE_KERNELS, seed0=400)
        reference = run_packed_fleets(csr, groups)
        monkeypatch.setattr(batched, "_PACK_CHUNK_DOUBLES", 50)
        for packed, expected in zip(run_packed_fleets(csr, groups), reference):
            _assert_node_equal(packed, expected)

    def test_prefixes_equal_shorter_solo_fleets(self, csr):
        """A packed group's prefix is the fleet walked to that length."""
        groups = _groups(NODE_KERNELS, seed0=450)
        for group, packed in zip(groups, run_packed_fleets(csr, groups)):
            for num_steps in {1, group.num_steps // 2 or 1, group.num_steps}:
                shorter = BatchedWalkEngine(
                    csr, kernel=group.kernel, rng=group.rng
                ).run_fleet(group.num_walkers, num_steps, burn_in=group.burn_in)
                _assert_node_equal(packed.prefix(num_steps), shorter)

    def test_mdrw_failure_stays_in_its_group(self, csr):
        tight = KernelSpec("mdrw", max_degree=6.0)  # below the graph's max degree
        groups = _groups(NODE_KERNELS, seed0=500)
        groups.insert(2, FleetGroup(tight, 77, 20, 200, 5))
        outcomes = run_packed_fleets(csr, groups)
        assert isinstance(outcomes[2], WalkError)
        with pytest.raises(WalkError, match="max_degree=6.0") as solo_error:
            BatchedWalkEngine(csr, kernel=tight, rng=77).run_fleet(20, 200, burn_in=5)
        assert str(outcomes[2]) == str(solo_error.value)
        others = [group for index, group in enumerate(groups) if index != 2]
        for group, packed in zip(others, outcomes[:2] + outcomes[3:]):
            _assert_node_equal(packed, run_packed_fleets(csr, [group])[0])

    def test_isolated_start_fails_only_its_group(self):
        # Node 3 is isolated: a walker started there cannot move.
        csr = CSRGraph.from_edge_array(
            np.array([[0, 1], [1, 2], [2, 0]]), num_nodes=4
        )
        good = FleetGroup("simple", 1, 3, 20, start_nodes=[0, 1, 2])
        bad = FleetGroup("simple", 2, 2, 20, start_nodes=[0, 3])
        outcomes = run_packed_fleets(csr, [good, bad])
        assert isinstance(outcomes[1], WalkError)
        assert "isolated" in str(outcomes[1])
        _assert_node_equal(outcomes[0], run_packed_fleets(csr, [good])[0])

    def test_shared_generator_is_rejected(self, csr):
        rng = np.random.default_rng(3)
        groups = [FleetGroup("simple", rng, 4, 10), FleetGroup("simple", rng, 4, 10)]
        with pytest.raises(ConfigurationError, match="one generator per group"):
            run_packed_fleets(csr, groups)

    def test_caller_generators_end_where_solo_walks_leave_them(self, csr):
        packed_rngs = [np.random.default_rng(seed) for seed in (1, 2)]
        solo_rngs = [np.random.default_rng(seed) for seed in (1, 2)]
        groups = [
            FleetGroup("mhrw", packed_rngs[0], 5, 70),
            FleetGroup("simple", packed_rngs[1], 3, 10),
        ]
        run_packed_fleets(csr, groups)
        BatchedWalkEngine(csr, kernel="mhrw", rng=solo_rngs[0]).run_fleet(5, 70)
        BatchedWalkEngine(csr, kernel="simple", rng=solo_rngs[1]).run_fleet(3, 10)
        for packed, solo in zip(packed_rngs, solo_rngs):
            assert packed.random() == solo.random()


class TestLinePacks:
    def test_every_group_equals_its_solo_fleet(self, csr):
        groups = _groups(LINE_KERNELS * 2, seed0=600)
        for group, packed in zip(groups, run_packed_line_fleets(csr, groups)):
            solo = BatchedLineWalkEngine(csr, kernel=group.kernel, rng=group.rng).run_fleet(
                group.num_walkers, group.num_steps, burn_in=group.burn_in
            )
            _assert_line_equal(packed, solo)

    def test_pack_matches_the_step_by_step_oracle(self, csr):
        groups = _groups(LINE_KERNELS, seed0=700)
        for group, packed in zip(groups, run_packed_line_fleets(csr, groups)):
            src, dst, (probe_src, probe_dst) = _oracle_line_fleet(csr, group)
            assert np.array_equal(packed.src, src), group.kernel
            assert np.array_equal(packed.dst, dst), group.kernel
            if probe_src is None:
                assert packed.probed_src is None
            else:
                assert np.array_equal(packed.probed_src, probe_src)
                assert np.array_equal(packed.probed_dst, probe_dst)

    @pytest.mark.parametrize("width", WIDTHS)
    def test_pack_of_one_is_the_solo_fleet(self, csr, width):
        group = FleetGroup(KernelSpec("rcmh", alpha=0.2), 5, width, 90, 10)
        [packed] = run_packed_line_fleets(csr, [group])
        src, dst, (probe_src, probe_dst) = _oracle_line_fleet(csr, group)
        assert np.array_equal(packed.src, src)
        assert np.array_equal(packed.dst, dst)
        assert np.array_equal(packed.probed_src, probe_src)
        assert np.array_equal(packed.probed_dst, probe_dst)

    def test_results_do_not_depend_on_pack_mates_or_order(self, csr):
        groups = _groups(LINE_KERNELS, seed0=800)
        reference = run_packed_line_fleets(csr, groups)
        order = np.random.default_rng(1).permutation(len(groups))
        shuffled = run_packed_line_fleets(csr, [groups[i] for i in order])
        for position, index in enumerate(order):
            _assert_line_equal(shuffled[position], reference[index])

    def test_wide_pack_shortens_the_chunk_but_not_the_stream(self, csr, monkeypatch):
        import repro.walks.batched as batched

        groups = _groups(LINE_KERNELS, seed0=850)
        reference = run_packed_line_fleets(csr, groups)
        monkeypatch.setattr(batched, "_PACK_CHUNK_DOUBLES", 50)
        for packed, expected in zip(run_packed_line_fleets(csr, groups), reference):
            _assert_line_equal(packed, expected)

    def test_prefixes_equal_shorter_solo_fleets(self, csr):
        groups = _groups(LINE_KERNELS, seed0=870)
        for group, packed in zip(groups, run_packed_line_fleets(csr, groups)):
            for num_steps in {1, group.num_steps // 2 or 1, group.num_steps}:
                shorter = BatchedLineWalkEngine(
                    csr, kernel=group.kernel, rng=group.rng
                ).run_fleet(group.num_walkers, num_steps, burn_in=group.burn_in)
                _assert_line_equal(packed.prefix(num_steps), shorter)

    def test_mdrw_failure_stays_in_its_group(self, csr):
        tight = KernelSpec("mdrw", max_degree=8.0)
        groups = _groups(LINE_KERNELS, seed0=900) + [FleetGroup(tight, 9, 7, 150)]
        outcomes = run_packed_line_fleets(csr, groups)
        assert isinstance(outcomes[-1], WalkError)
        with pytest.raises(WalkError) as solo_error:
            BatchedLineWalkEngine(csr, kernel=tight, rng=9).run_fleet(7, 150)
        assert str(outcomes[-1]) == str(solo_error.value)
        for group, packed in zip(groups[:-1], outcomes[:-1]):
            _assert_line_equal(packed, run_packed_line_fleets(csr, [group])[0])

    def test_isolated_line_node_fails_only_its_group(self):
        # Edge (3, 4) is an isolated line node: both endpoints have degree 1.
        csr = CSRGraph.from_edge_array(
            np.array([[0, 1], [1, 2], [2, 0], [3, 4]]), num_nodes=5
        )
        outcomes = run_packed_line_fleets(
            csr, [FleetGroup("simple", seed, 6, 10) for seed in range(20)]
        )
        failed = [o for o in outcomes if isinstance(o, WalkError)]
        assert failed and all("isolated line node" in str(o) for o in failed)
        for seed, outcome in enumerate(outcomes):
            if isinstance(outcome, WalkError):
                with pytest.raises(WalkError, match="isolated line node"):
                    BatchedLineWalkEngine(csr, rng=seed).run_fleet(6, 10)
            else:
                solo = BatchedLineWalkEngine(csr, rng=seed).run_fleet(6, 10)
                _assert_line_equal(outcome, solo)


# ----------------------------------------------------------------------
# planner: all ten algorithms
# ----------------------------------------------------------------------
class TestPlannerPacks:
    def test_all_ten_algorithms_equal_their_solo_prefix_fleets(self, osn, csr):
        suite = build_algorithm_suite(osn, include_baselines=True)
        assert len(suite) == 10
        requests = []
        for index, (name, runner) in enumerate(suite.items()):
            width = WIDTHS[index % len(WIDTHS)]
            burn_in, budget = LENGTHS[index % len(LENGTHS)]
            spec = FleetSpec(name, 1000 + index, width, burn_in)
            requests.append((runner, spec, budget))
        for order in (slice(None), slice(None, None, -1)):
            batch = requests[order]
            for (runner, spec, budget), packed in zip(batch, walk_fleets(csr, batch)):
                solo = PrefixFleet(csr, runner, spec, budget)._fleet
                if isinstance(runner, BaselineRunner):
                    _assert_line_equal(packed, solo)
                else:
                    _assert_node_equal(packed, solo)
                served = PrefixFleet(csr, runner, spec, budget, fleet=packed)
                fresh = PrefixFleet(csr, runner, spec, budget)
                assert served.estimate(1, 2, budget) == fresh.estimate(1, 2, budget)
