"""Tests of the benchmark's own helpers.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import loadgen  # noqa: E402
from spans import (  # noqa: E402
    Span,
    Tracer,
    covered_length,
    percentile,
    self_times,
    tail_percentile,
    windowed_percentile,
)


class TestTailPercentile:
    def test_thousand_samples_reach_p99(self):
        assert tail_percentile(1000) == 99.0

    def test_fewer_samples_lower_the_percentile(self):
        # 300 samples: at most p96.67 leaves ten beyond it.
        p = tail_percentile(300)
        assert 300 * (1 - p / 100) >= 10
        assert 300 * (1 - (p + 0.01) / 100) < 10

    def test_capped_at_p99(self):
        assert tail_percentile(100_000) == 99.0

    def test_none_without_ten_samples_to_spare(self):
        assert tail_percentile(10) is None
        assert tail_percentile(3) is None

    def test_percentile_interpolates_like_numpy(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0, 10.0]
        for p in (0, 25, 50, 90, 99, 100):
            assert percentile(values, p) == pytest.approx(np.percentile(values, p))


    def test_windowed_percentile_ignores_one_slow_window(self):
        times = [0.5, 1.5, 2.5, 5.5, 6.5, 7.5, 10.5, 11.5, 12.5]
        values = [10, 11, 12, 10, 11, 12, 100, 110, 120]  # the last window is slow
        assert windowed_percentile(values, times, 5.0, 50.0) == pytest.approx(11.0)
        assert percentile(values, 50.0) == 12


class TestSelfTime:
    def span(self, index, start, end, parent=None):
        return Span("layer", start, end, parent, 1, index)

    def test_overlapping_children_count_once(self):
        spans = [
            self.span(0, 0.0, 10.0),
            self.span(1, 1.0, 4.0, parent=0),
            self.span(2, 3.0, 6.0, parent=0),  # overlaps child 1 on [3, 4]
            self.span(3, 8.0, 9.0, parent=0),
        ]
        own = self_times(spans)
        assert own[0] == pytest.approx(10.0 - (5.0 + 1.0))
        assert own[1] == pytest.approx(3.0)

    def test_children_outside_the_parent_are_clipped(self):
        spans = [self.span(0, 0.0, 2.0), self.span(1, 1.5, 5.0, parent=0)]
        assert self_times(spans)[0] == pytest.approx(1.5)

    def test_grandchildren_belong_to_their_parent(self):
        spans = [
            self.span(0, 0.0, 10.0),
            self.span(1, 2.0, 8.0, parent=0),
            self.span(2, 3.0, 5.0, parent=1),
        ]
        own = self_times(spans)
        assert own[0] == pytest.approx(4.0)
        assert own[1] == pytest.approx(4.0)
        assert own[2] == pytest.approx(2.0)

    def test_covered_length_of_nested_intervals(self):
        assert covered_length([(0, 5), (1, 2), (4, 7)], 0, 10) == pytest.approx(7.0)

    def test_tracer_links_parents_and_traces(self):
        tracer = Tracer()
        with tracer.span("outer", new_trace=True):
            with tracer.span("inner"):
                pass
        with tracer.span("next", new_trace=True):
            pass
        outer, inner, following = tracer.spans
        assert inner.parent == outer.index and inner.trace_id == outer.trace_id
        assert following.parent is None and following.trace_id != outer.trace_id
        assert outer.first_child_start == inner.start

    def test_restore_undoes_wrapping(self):
        class Layer:
            def work(self):
                return 42

        tracer = Tracer()
        original = Layer.work
        tracer.wrap(Layer, "work", "layer.work")
        assert Layer().work() == 42 and len(tracer.by_name("layer.work")) == 1
        tracer.restore()
        assert Layer.work is original


class TestQueryGeneration:
    traffic = loadgen.Traffic(("A", "B", "C"), ((1, 2), (1, 3), (2, 3)))

    def test_same_seed_same_queries(self):
        first = loadgen.generate_queries(self.traffic, 7, 1, 200)
        again = loadgen.generate_queries(self.traffic, 7, 1, 200)
        assert first == again

    def test_seed_and_stream_change_the_queries(self):
        base = loadgen.generate_queries(self.traffic, 7, 1, 200)
        assert loadgen.generate_queries(self.traffic, 8, 1, 200) != base
        assert loadgen.generate_queries(self.traffic, 7, 2, 200) != base

    def test_same_seed_same_schedule(self):
        assert loadgen.poisson_schedule(3, 20.0, 5) == loadgen.poisson_schedule(3, 20.0, 5)

    def test_most_seeds_unique_and_a_few_repeat(self):
        queries = loadgen.generate_queries(self.traffic, 7, 1, 1000)
        uses = Counter(query["seed"] for query in queries)
        assert sum(1 for count in uses.values() if count == 1) > 0.75 * len(uses)
        assert uses.most_common(1)[0][1] > 50

    def test_systematic_sample_follows_the_weights(self):
        weights = np.array([5.0, 3.0, 1.5, 0.5])
        for seed in range(5):
            drawn = loadgen.systematic_sample(weights, 100, np.random.default_rng(seed))
            counts = np.bincount(drawn, minlength=4)
            assert counts.sum() == 100
            assert np.all(np.abs(counts - 100 * weights / weights.sum()) < 1)

    def test_pairs_and_counts_come_from_arrays(self):
        # path 0-1-2-3 with labels 5, 5, 6, 7
        indptr = np.array([0, 1, 3, 5, 6])
        indices = np.array([1, 0, 2, 1, 3, 2])
        labels = np.array([5, 5, 6, 7])
        assert loadgen.pair_edge_counts(indptr, indices, labels) == {
            (5, 5): 1, (5, 6): 1, (6, 7): 1,
        }
        assert loadgen.top_label_pairs(labels, top=3) == [(5, 6), (5, 7), (6, 7)]
