"""Property-based tests for thinning, mixing helpers and walk bookkeeping."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.graph.labeled_graph import LabeledGraph
from repro.walks.batched import (
    FleetGroup,
    KernelSpec,
    PackLayout,
    _scalar_pow,
    accept_mask,
    kernel_move_probabilities,
    kernel_stationary_weights,
    pow_like_scalar,
)
from repro.walks.mixing import (
    node_index,
    stationary_distribution,
    total_variation_distance,
    transition_matrix,
)
from repro.walks.thinning import thin_indices, thinning_interval


class TestThinningProperties:
    @given(k=st.integers(0, 5000), fraction=st.floats(0.001, 1.0))
    @settings(max_examples=200, deadline=None)
    def test_indices_are_sorted_unique_and_in_range(self, k, fraction):
        indices = thin_indices(k, fraction)
        assert indices == sorted(set(indices))
        assert all(0 <= i < k for i in indices)

    @given(k=st.integers(1, 5000), fraction=st.floats(0.001, 1.0))
    @settings(max_examples=200, deadline=None)
    def test_first_index_is_zero_and_gap_constant(self, k, fraction):
        indices = thin_indices(k, fraction)
        assert indices[0] == 0
        interval = thinning_interval(k, fraction)
        gaps = {b - a for a, b in zip(indices, indices[1:])}
        assert gaps <= {interval}

    @given(k=st.integers(1, 5000))
    @settings(max_examples=100, deadline=None)
    def test_larger_fraction_keeps_fewer_samples(self, k):
        fine = thin_indices(k, 0.01)
        coarse = thin_indices(k, 0.2)
        assert len(coarse) <= len(fine)


def random_connected_graph(rng, size):
    """A random connected graph built from a random tree plus extra edges."""
    graph = LabeledGraph()
    nodes = list(range(size))
    for index in range(1, size):
        graph.add_edge(nodes[index], nodes[rng.randrange(index)])
    extra = rng.randrange(0, size)
    for _ in range(extra):
        u, v = rng.sample(nodes, 2)
        if not graph.has_edge(u, v):
            graph.add_edge(u, v)
    return graph


class TestMixingProperties:
    @given(seed=st.integers(0, 2**16), size=st.integers(3, 25))
    @settings(max_examples=60, deadline=None)
    def test_transition_matrix_row_stochastic_and_pi_fixed_point(self, seed, size):
        import random

        rng = random.Random(seed)
        graph = random_connected_graph(rng, size)
        index = node_index(graph)
        matrix = transition_matrix(graph, index)
        assert np.allclose(matrix.sum(axis=1), 1.0)
        pi = stationary_distribution(graph, index)
        assert abs(pi.sum() - 1.0) < 1e-9
        assert np.allclose(pi @ matrix, pi, atol=1e-12)

    @given(
        p=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=20),
        q=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=20),
    )
    @settings(max_examples=150, deadline=None)
    def test_total_variation_bounds(self, p, q):
        size = min(len(p), len(q))
        p_arr = np.array(p[:size])
        q_arr = np.array(q[:size])
        if p_arr.sum() == 0 or q_arr.sum() == 0:
            return
        p_arr = p_arr / p_arr.sum()
        q_arr = q_arr / q_arr.sum()
        distance = total_variation_distance(p_arr, q_arr)
        assert -1e-12 <= distance <= 1.0 + 1e-12
        assert total_variation_distance(p_arr, p_arr) == 0.0
        # symmetry
        assert distance == total_variation_distance(q_arr, p_arr)


#: Degrees cover everything a paper-scale OSN can produce.
DEGREES = st.integers(1, 1_000_000)


class TestScalarPowTwins:
    """The libm-rounded power the vectorized engines use must agree with
    the scalar tiers to the last ULP — ``==`` on floats, no tolerance —
    or rcmh accept probabilities and stationary weights drift bit-wise
    between the scalar and vectorized paths."""

    @given(degree=DEGREES, alpha=st.floats(0.0, 1.0))
    @settings(max_examples=300, deadline=None)
    @example(degree=5, alpha=0.5)  # 1 - alpha = 0.5: the sqrt fast path
    def test_rcmh_stationary_weight_ulp_identical(self, degree, alpha):
        spec = KernelSpec("rcmh", alpha=alpha)
        expected = kernel_stationary_weights(spec, np.array([degree]))
        assert _scalar_pow(float(degree), 1.0 - alpha) == expected[0]

    @given(
        x=st.floats(1e-6, 1e6),
        y=st.one_of(st.sampled_from([0.5, 1.0, 2.0]), st.floats(0.0, 1.0)),
    )
    @settings(max_examples=300, deadline=None)
    def test_scalar_pow_matches_vectorized_twin_and_python_pow(self, x, y):
        """One pow, three tiers: the scalar twin, the numpy engine's
        vectorized helper, and — for generic exponents — Python's ``**``
        (libm, what the scalar reference paths call) must agree to the
        bit.  At the 0.5/1.0/2.0 fast paths both helpers use sqrt /
        identity / x*x, which libm pow need not match ULP-for-ULP."""
        scalar = _scalar_pow(x, y)
        assert scalar == pow_like_scalar(np.array([x]), y)[0]
        if y not in (0.5, 1.0, 2.0):
            assert scalar == x ** y

    @given(alpha=st.floats(0.0, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_accept_draw_consumption_matches_formula_table(self, alpha):
        """A packed walk pre-draws an accept uniform iff the formula
        table returns probabilities — the RNG-consumption contract."""
        spec = KernelSpec("rcmh", alpha=alpha)
        probabilities = kernel_move_probabilities(
            spec, np.array([3]), np.array([5])
        )
        assert spec.draws_accept == (probabilities is not None)

    def test_draws_accept_table(self):
        assert not KernelSpec("simple").draws_accept
        assert not KernelSpec("non_backtracking").draws_accept
        assert not KernelSpec("rcmh", alpha=0.0).draws_accept
        assert KernelSpec("rcmh", alpha=0.2).draws_accept
        assert KernelSpec("mhrw").draws_accept
        assert KernelSpec("mdrw", max_degree=8.0).draws_accept
        assert KernelSpec("gmd", max_degree=8.0).draws_accept


#: Kernels a pack may mix; equal specs share one accept test.
PACK_KERNELS = st.sampled_from(
    [
        KernelSpec("simple"),
        KernelSpec("non_backtracking"),
        KernelSpec("mhrw"),
        KernelSpec("rcmh", alpha=0.0),
        KernelSpec("rcmh", alpha=0.3),
        KernelSpec("rcmh", alpha=0.5),
        KernelSpec("mdrw", max_degree=1000.0),
        KernelSpec("gmd", max_degree=400.0, delta=0.5),
    ]
)


class TestPackedAcceptTests:
    @given(
        groups=st.lists(
            st.tuples(PACK_KERNELS, st.integers(1, 9), st.integers(1, 30)),
            min_size=1,
            max_size=6,
        ),
        retired=st.integers(0, 5),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=200, deadline=None)
    def test_one_test_per_kernel_equals_per_group_tests(self, groups, retired, seed):
        """A pack step's accept mask — one test per distinct kernel over
        the active walkers — equals each group's own accept test, bit for
        bit, whichever groups have retired."""
        fleet = [
            FleetGroup(spec, index, width, steps)
            for index, (spec, width, steps) in enumerate(groups)
        ]
        layout = PackLayout(fleet, lambda spec: 1)
        active = max(1, len(fleet) - retired)
        phase = layout.phase(active)
        rng = np.random.default_rng(seed)
        current = rng.integers(1, 1001, size=phase.width)
        proposal = rng.integers(1, 1001, size=phase.width)
        uniforms = rng.random(layout.width)
        mask = accept_mask(phase, current, proposal, uniforms)
        assert mask.shape == (phase.width,)
        for g in layout.order[:active]:
            rows = layout.rows[g]
            p = kernel_move_probabilities(fleet[g].kernel, current[rows], proposal[rows])
            if p is None:
                expected = np.ones(rows.stop - rows.start, dtype=bool)
            else:
                expected = uniforms[rows] < p
            assert np.array_equal(mask[rows], expected), fleet[g].kernel


#: Every accept kernel a fused step mixes: rcmh covers generic
#: exponents, the sqrt exponent and the identity, next to walkers that
#: never draw an accept uniform.
FUSED_KERNELS = st.sampled_from(
    [
        KernelSpec("simple"),
        KernelSpec("rcmh", alpha=0.0),
        KernelSpec("mhrw"),
        *(KernelSpec("rcmh", alpha=alpha) for alpha in (0.05, 0.2, 0.3, 0.5, 1.0)),
        KernelSpec("mdrw", max_degree=1000.0),
        KernelSpec("gmd", max_degree=400.0, delta=0.5),
        KernelSpec("gmd", max_degree=1000.0, delta=0.3),
    ]
)


class TestFusedAcceptTest:
    @given(
        groups=st.lists(
            st.tuples(FUSED_KERNELS, st.integers(1, 30)), min_size=1, max_size=8
        ),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=200, deadline=None)
    def test_decisions_at_the_libm_threshold_equal_the_kernel_rule(self, groups, seed):
        """Uniforms sit exactly on each walker's libm accept threshold
        or one ULP to either side — where numpy's ``pow`` and libm's can
        disagree — and the fused mask still equals every kernel's own
        :func:`kernel_move_probabilities` test."""
        fleet = [FleetGroup(spec, index, width, 10) for index, (spec, width) in enumerate(groups)]
        layout = PackLayout(fleet, lambda spec: 1)
        phase = layout.phase(len(fleet))
        rng = np.random.default_rng(seed)
        current = rng.integers(1, 1001, size=layout.width)
        proposal = rng.integers(1, 1001, size=layout.width)
        uniforms = rng.random(layout.width)
        expected = np.ones(layout.width, dtype=bool)
        below_one = np.nextafter(1.0, 0.0)  # uniforms are drawn from [0, 1)
        for g in layout.order:
            rows = layout.rows[g]
            p = kernel_move_probabilities(fleet[g].kernel, current[rows], proposal[rows])
            if p is None:
                continue
            threshold = np.minimum(p, below_one)
            choices = np.stack(
                [np.nextafter(threshold, 0.0), threshold, np.nextafter(threshold, 1.0)]
            )
            pick = rng.integers(0, 3, size=threshold.size)
            uniforms[rows] = np.minimum(choices[pick, np.arange(threshold.size)], below_one)
            expected[rows] = uniforms[rows] < p
        assert np.array_equal(accept_mask(phase, current, proposal, uniforms), expected)

    def test_numpy_pow_stays_inside_the_band(self):
        """The band's premise: numpy's ``pow`` is within ``POW_BAND``
        (relative) of libm's on line-degree ratios, so a uniform outside
        the band is on the same side of both."""
        from repro.walks.batched import POW_BAND

        rng = np.random.default_rng(0)
        ratios = rng.integers(1, 5000, size=20_000) / rng.integers(1, 5000, size=20_000)
        for alpha in (0.05, 0.2, 0.3, 0.5, 0.7):
            fast = np.power(ratios, alpha)
            libm = pow_like_scalar(ratios, alpha)
            assert np.max(np.abs(fast - libm) / libm) <= POW_BAND / 1024


class TestRcmhWeightTable:
    @given(
        degrees=st.lists(st.integers(0, 70_000), min_size=1, max_size=50),
        alpha=st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0)),
    )
    @settings(max_examples=150, deadline=None)
    def test_table_gather_equals_libm_pow(self, degrees, alpha):
        """Integer degrees — below and past the table's limit — weigh
        exactly what ``pow_like_scalar`` computes, float degrees too."""
        spec = KernelSpec("rcmh", alpha=alpha)
        array = np.array(degrees)
        expected = pow_like_scalar(array, 1.0 - alpha)
        assert np.array_equal(kernel_stationary_weights(spec, array), expected)
        floats = array.astype(np.float64)
        assert np.array_equal(kernel_stationary_weights(spec, floats), expected)

    def test_integer_degrees_skip_the_unique_pass(self, monkeypatch):
        import repro.walks.batched as batched

        def forbidden(values, exponent):
            raise AssertionError("integer degrees should gather from the table")

        monkeypatch.setattr(batched, "pow_like_scalar", forbidden)
        degrees = np.random.default_rng(1).integers(1, 3000, size=10_000)
        weights = kernel_stationary_weights(KernelSpec("rcmh", alpha=0.2), degrees)
        assert weights[0] == _scalar_pow(float(degrees[0]), 0.8)
