"""The two workloads: set-up, measured phases and correctness gates.

``table-1e5`` regenerates the ten-algorithm NRMSE table on the 10⁵-node
Chung–Lu stand-in (walk and classify heavy, fixed burn-in, no service).
``serve-distinct`` drives a freshly booted ``EstimationService`` on the
same graph, served from the mmap sidecar, through
``MicroBatcher.submit`` with clients that each use their own seeds (one
small fleet per query, few cache hits).
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

import layers
import loadgen
from spans import (
    Tracer,
    covered_length,
    median,
    percentile,
    self_times,
    tail_percentile,
    windowed_percentile,
)

from repro.datasets.labeling import zipf_label_array
from repro.datasets.synthetic import chung_lu_edges, powerlaw_degree_sequence
from repro.experiments import runner
from repro.experiments.algorithms import build_algorithm_suite
from repro.graph.cleaning import largest_connected_component_csr
from repro.graph.csr import CSRGraph
from repro.service import EstimationService
from repro.service.batcher import MicroBatcher
from repro.service.config import ServiceConfig
from repro.service.http import ServiceHTTPServer
from repro.utils.rng import derive_seed

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "table_digests.json"

NUM_NODES = 100_000
NUM_LABELS = 50
SETUPS = 3

# table-1e5: examples/full_table_csr.py
TABLE_PAIR = (1, 2)
TABLE_FRACTIONS = (0.005, 0.01, 0.03, 0.05)
TABLE_REPETITIONS = 25
TABLE_BURN_IN = 300
#: Table seeds a run draws from; every one has a recorded digest.
TABLE_SEEDS = tuple(range(2018, 2026))

# serve-*: ServiceConfig defaults; the offered rate stays below half the
# cold-start capacity of serve-distinct on a 2-core machine (see NOTES.md)
OFFERED_RATE = 6.0
CLIENTS = 32
OPEN_SHARE = 0.5
#: Open-loop latency percentiles are taken per window of this many
#: seconds (by due time) and reported as the median over the windows:
#: the shared machine slows down for seconds at a time, and one slow
#: window moves a whole-phase percentile but not that median.
LATENCY_WINDOW_S = 5
GATE_SAMPLES = 6
HTTP_PROBE_REQUESTS = 60
#: A run whose generator sent later than this (p99) is rejected.
MAX_LATE_S = 0.25


@dataclass
class Outcome:
    """What a workload hands back to ``run.py``."""

    end_to_end: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    gate_failures: List[str] = field(default_factory=list)
    phases: List[str] = field(default_factory=list)


# ----------------------------------------------------------------------
# set-up
# ----------------------------------------------------------------------
def build_graph(tracer: Tracer) -> CSRGraph:
    """Generate, build, clean and label the 10⁵-node stand-in."""
    with tracer.span("datasets.synthetic.generate"):
        weights = powerlaw_degree_sequence(NUM_NODES, average_degree=12.0)
        edges = chung_lu_edges(weights, rng=1)
    with tracer.span("graph.csr.from_edge_array"):
        graph = CSRGraph.from_edge_array(edges, num_nodes=NUM_NODES)
    with tracer.span("graph.cleaning.largest_connected_component_csr"):
        graph = largest_connected_component_csr(graph)
    with tracer.span("datasets.labeling.zipf_label_array"):
        labels = zipf_label_array(graph.num_nodes, num_labels=NUM_LABELS, exponent=1.0, rng=2)
        graph = graph.with_labels(label_array=labels)
    return graph


def repeated_setup(tracer: Tracer, build) -> Tuple[object, List[float]]:
    """Set up :data:`SETUPS` times; keep the last, release the others."""
    seconds: List[float] = []
    kept = None
    for _ in range(SETUPS):
        if kept is not None and hasattr(kept, "close"):
            kept.close()
        started = time.perf_counter()
        with tracer.span("setup", new_trace=True):
            kept = build()
        seconds.append(time.perf_counter() - started)
    return kept, seconds


SETUP_LAYERS = {
    "datasets.synthetic.generate_s": ("datasets.synthetic.generate",),
    "graph.csr.build_s": ("graph.csr.from_edge_array",),
    "graph.cleaning.clean_s": ("graph.cleaning.largest_connected_component_csr",),
    "datasets.labeling.label_s": ("datasets.labeling.zipf_label_array",),
    "experiments.algorithms.suite_s": ("experiments.algorithms.build_algorithm_suite",),
    "graph.store.publish_s": ("graph.store.publish_csr",),
    "graph.store.attach_s": ("graph.store.attach_csr",),
    "durability.manifest.verify_s": ("durability.manifest.verify_artifact",),
    "walks.mixing.burn_in_s": ("walks.mixing.recommended_burn_in",),
}


def setup_layers(tracer: Tracer) -> Dict[str, float]:
    """Median over the set-ups of each set-up layer's time per set-up."""
    setups = [span for span in tracer.by_name("setup")]
    result: Dict[str, float] = {}
    for metric, names in SETUP_LAYERS.items():
        per_setup = []
        for setup in setups:
            per_setup.append(sum(
                span.duration for span in tracer.spans
                if span.trace_id == setup.trace_id and span.name in names
            ))
        result[metric] = median(per_setup) if per_setup else 0.0
    verify_bytes = tracer.counts.get("durability.manifest.verify_bytes", 0.0)
    result["durability.manifest.verify_mb"] = verify_bytes / max(len(setups), 1) / 1e6
    return result


# ----------------------------------------------------------------------
# table-1e5
# ----------------------------------------------------------------------
def table_digest(table) -> str:
    """Digest of every number a table holds, in row and column order."""
    digest = hashlib.blake2b(digest_size=16)
    digest.update(json.dumps([table.true_count, table.sample_sizes]).encode())
    for name, outcomes in table.cells.items():
        digest.update(name.encode())
        for outcome in outcomes:
            digest.update(np.asarray(outcome.estimates, dtype=np.float64).tobytes())
            digest.update(np.asarray(outcome.api_calls, dtype=np.int64).tobytes())
    return digest.hexdigest()


def run_table(graph: CSRGraph, suite, seed: int):
    return runner.compare_algorithms(
        graph,
        *TABLE_PAIR,
        sample_fractions=TABLE_FRACTIONS,
        repetitions=TABLE_REPETITIONS,
        algorithms=suite,
        burn_in=TABLE_BURN_IN,
        seed=seed,
        dataset_name=f"chung-lu-{graph.num_nodes}",
        execution="fleet",
        reuse="prefix",
        n_jobs=1,
    )


def table_workload(seed: int, seconds: float, tracer: Tracer) -> Outcome:
    outcome = Outcome(phases=["setup", "tables"])

    def build():
        graph = build_graph(tracer)
        with tracer.span("experiments.algorithms.build_algorithm_suite"):
            suite = build_algorithm_suite(graph)
        return graph, suite

    (graph, suite), setup_seconds = repeated_setup(tracer, build)
    recorded = json.loads(DIGESTS.read_text())["tables"]
    order = np.random.default_rng(seed).permutation(TABLE_SEEDS)

    # One row (one algorithm's prefix fleet and its four budget columns)
    # is the batch analogue of one served query; time each with a bare
    # timer so the untraced run stays untraced.
    row_seconds: List[float] = []
    prefix = runner.run_trials_prefix

    def timed_row(*args, **kwargs):
        started = time.perf_counter()
        result = prefix(*args, **kwargs)
        row_seconds.append(time.perf_counter() - started)
        return result

    runner.run_trials_prefix = timed_row
    if tracer.enabled:
        layers.install(tracer)
    table_seconds: List[float] = []
    tables = []
    overhead_before = tracer.overhead_s
    started = time.perf_counter()
    try:
        while time.perf_counter() - started < seconds or len(table_seconds) < 3:
            table_seed = int(order[len(table_seconds) % len(order)])
            outcome.attempted += 1
            began = time.perf_counter()
            with tracer.span(layers.TABLE, new_trace=True):
                table = run_table(graph, suite, table_seed)
            table_seconds.append(time.perf_counter() - began)
            tables.append((table_seed, table))
    finally:
        tracer.restore()
        runner.run_trials_prefix = prefix
    measured = time.perf_counter() - started
    overhead = tracer.overhead_s - overhead_before

    for table_seed, table in tables:
        if table_digest(table) != recorded[str(table_seed)]:
            outcome.gate_failures.append(
                f"table at seed {table_seed} differs from its recorded digest"
            )
    cells = len(TABLE_FRACTIONS) * len(suite)
    table_s = median(table_seconds)
    outcome.end_to_end = {
        "setup_s": median(setup_seconds),
        "table_s": table_s,
        "qps": cells / table_s,
        "p50_ms": 1e3 * percentile(row_seconds, 50.0),
        "p90_ms": 1e3 * percentile(row_seconds, 90.0),
    }
    if tracer.enabled:
        outcome.layers = table_layers(tracer, measured, overhead)
    return outcome


# ----------------------------------------------------------------------
# serve-distinct
# ----------------------------------------------------------------------
def boot_service(tracer: Tracer) -> EstimationService:
    """Set up the graph and boot the service as ``repro-osn serve`` would.

    The graph is served from the mmap sidecar, so boot writes it, verifies
    its manifest and attaches it.
    """
    defaults = ServiceConfig()
    graph = build_graph(tracer)
    with tracer.span("service.core.EstimationService"):
        return EstimationService(
            graph,
            graph_store="mmap",
            default_repetitions=defaults.repetitions,
            default_burn_in=defaults.burn_in,
            cache_size=defaults.cache_size,
            backend=defaults.backend,
        )


def serve_workload(seed: int, seconds: float, tracer: Tracer) -> Outcome:
    outcome = Outcome(phases=["setup", "open-loop", "closed-loop"])
    if tracer.enabled:
        layers.install(tracer)
    service = None
    try:
        service, setup_seconds = repeated_setup(
            tracer, lambda: boot_service(tracer)
        )
        csr = service.csr
        labels = np.asarray(csr.label_array())
        pairs = loadgen.top_label_pairs(labels)
        truth = loadgen.pair_edge_counts(
            np.asarray(csr.indptr), np.asarray(csr.indices), labels
        )
        traffic = loadgen.Traffic(tuple(service.algorithms), tuple(pairs))
        open_seconds = max(1, int(seconds * OPEN_SHARE))
        closed_seconds = max(1.0, seconds - open_seconds)
        due = loadgen.poisson_schedule(seed, OFFERED_RATE, open_seconds)
        open_queries = loadgen.generate_queries(traffic, seed, 1, len(due))
        closed_queries = loadgen.generate_queries(
            traffic, seed, 2, int(closed_seconds * 5000) + 1000
        )
        phases = asyncio.run(
            drive(service, tracer, open_queries, due, closed_queries, closed_seconds)
        )
        opened, closed = phases.open, phases.closed
        for result in (opened, closed):
            outcome.attempted += result.attempted
            outcome.failed += result.failed
            for error in sorted(set(result.errors))[:3]:
                print(f"failed query: {error}")
        late_p99 = percentile(opened.late_s, 99.0)
        if late_p99 > MAX_LATE_S:
            outcome.gate_failures.append(
                f"load generator fell behind: late p99 {late_p99 * 1e3:.1f} ms "
                f"> {MAX_LATE_S * 1e3:.0f} ms"
            )
        outcome.gate_failures.extend(
            serve_gate(service, seed, opened.answers + closed.answers, truth)
        )
        latencies = opened.latencies_s
        qps = len(closed.answers) / closed.window_s
        outcome.end_to_end = {
            "setup_s": median(setup_seconds),
            "table_s": len(TABLE_FRACTIONS) * len(service.algorithms) / qps,
            "qps": qps,
            "p50_ms": 1e3 * windowed_percentile(latencies, opened.due_s, LATENCY_WINDOW_S, 50.0),
            "p90_ms": 1e3 * windowed_percentile(latencies, opened.due_s, LATENCY_WINDOW_S, 90.0),
        }
        tail = tail_percentile(len(latencies))
        print(
            f"open loop: {len(latencies)} answered, p50 {1e3 * median(latencies):.1f} ms, "
            + ", ".join(f"p{p:g} {1e3 * percentile(latencies, p):.1f} ms" for p in (90, 95, 98, 99))
            + (f"; highest percentile with ten samples beyond it: p{tail:.2f} "
               f"{1e3 * percentile(latencies, tail):.1f} ms" if tail else "")
        )
        outcome.layers = {
            "loadgen.late_ms_p99": 1e3 * late_p99,
            "loadgen.open_loop_queries": float(len(latencies)),
        }
        if tracer.enabled:
            outcome.phases.append("http-probe")
            outcome.layers.update(serve_layers(tracer, phases))
    finally:
        tracer.restore()
        if service is not None:
            service.close()
    return outcome


@dataclass
class ServePhases:
    """What the measured serving phases observed."""

    open: loadgen.LoopResult
    closed: loadgen.LoopResult
    wall_s: float
    trace_overhead_s: float
    http_s: List[float]


async def drive(service, tracer, open_queries, due, closed_queries, closed_seconds) -> ServePhases:
    """Open loop, then closed loop, then (traced runs) the HTTP probe."""
    defaults = ServiceConfig()
    batcher = MicroBatcher(service, window_seconds=defaults.batch_window_ms / 1000.0)
    overhead_before = tracer.overhead_s
    started = time.perf_counter()
    opened = await loadgen.open_loop(batcher.submit, open_queries, due)
    closed = await loadgen.closed_loop(batcher.submit, closed_queries, CLIENTS, closed_seconds)
    await batcher.drain()
    phases = ServePhases(
        opened, closed, time.perf_counter() - started,
        tracer.overhead_s - overhead_before, [],
    )
    if tracer.enabled:
        tracer.restore()  # the probe is reported apart from the engine layers
        server = ServiceHTTPServer(service, port=0)
        await server.start()
        try:
            recent = [query for query, _ in closed.answers[-HTTP_PROBE_REQUESTS:]]
            phases.http_s = await loadgen.http_probe(server.host, server.port, recent)
        finally:
            await server.stop()
    return phases


def serve_gate(service, seed: int, answers, truth) -> List[str]:
    """Served answers must equal ``run_trials_prefix`` at the same user seed."""
    failures: List[str] = []
    fresh = [(query, answer) for query, answer in answers if not answer.cached]
    if not fresh:
        return ["no walked answers to check"]
    rng = np.random.default_rng([seed, 3])
    picks = rng.choice(len(fresh), size=min(GATE_SAMPLES, len(fresh)), replace=False)
    suite = build_algorithm_suite(service.csr, include_baselines=True)
    for index in sorted(int(i) for i in picks):
        query, answer = fresh[index]
        name = answer.algorithm
        [batch] = runner.run_trials_prefix(
            service.csr, answer.t1, answer.t2, suite[name], name,
            [answer.budget], answer.repetitions, answer.burn_in,
            seed=derive_seed(answer.seed, name, "prefix"),
        )
        pair = (min(answer.t1, answer.t2), max(answer.t1, answer.t2))
        if (
            batch.estimates != answer.estimates
            or batch.api_calls != answer.api_calls
            or answer.true_count != truth.get(pair, 0)
        ):
            failures.append(f"served answer differs from the batch harness: {query}")
    return failures


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------
def _total(tracer: Tracer, name: str) -> float:
    return sum(span.duration for span in tracer.by_name(name))


def _rate(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator > 0 else 0.0


def hot_path_layers(tracer: Tracer, own: Dict[int, float]) -> Dict[str, float]:
    """Walk, classify, estimate, planner, runner and ground-truth metrics."""
    line_s = _total(tracer, layers.LINE_WALK)
    node_s = _total(tracer, layers.NODE_WALK)
    widths = tracer.samples.get("experiments.planner.fleet_width", [])
    runner_spans = (layers.TABLE, "experiments.runner.run_trials_prefix")
    return {
        "walks.line_batched.walk_s": line_s,
        "walks.line_batched.steps_per_s": _rate(
            tracer.counts.get("walks.line_batched.steps", 0.0), line_s
        ),
        "walks.batched.walk_s": node_s,
        "walks.batched.steps_per_s": _rate(
            tracer.counts.get("walks.batched.steps", 0.0), node_s
        ),
        "experiments.planner.fleets": float(len(widths)),
        "experiments.planner.fleet_width_p50": median(widths) if widths else 0.0,
        "core.samplers.classify_s": _total(tracer, layers.CLASSIFY),
        "core.estimators.estimate_s": _total(tracer, layers.ESTIMATE),
        "graph.csr.truth_s": _total(tracer, layers.TRUTH),
        "graph.csr.truth_misses": tracer.counts.get("graph.csr.truth_misses", 0.0),
        "experiments.runner.self_s": sum(
            own[span.index] for span in tracer.spans if span.name in runner_spans
        ),
    }


def table_layers(tracer: Tracer, measured: float, overhead: float) -> Dict[str, float]:
    result = setup_layers(tracer)
    result.update(hot_path_layers(tracer, self_times(tracer.spans)))
    result["trace.overhead_ratio"] = measured / (measured - overhead)
    return result


def serve_layers(tracer: Tracer, phases: ServePhases) -> Dict[str, float]:
    own = self_times(tracer.spans)
    result = setup_layers(tracer)
    result.update(hot_path_layers(tracer, own))
    waits = tracer.samples.get("service.batcher.queue_wait_s", [])
    sizes = tracer.samples.get("service.batcher.batch_size", [])
    # The engine's own time starts once its lock is held (first child span).
    engine = [
        (span, span.first_child_start or span.start)
        for span in tracer.by_name(layers.ESTIMATE_MANY)
    ]
    busy = covered_length([(start, span.end) for span, start in engine], -math.inf, math.inf)
    result.update({
        "service.planner.plan_s": _total(tracer, "service.planner.plan_queries"),
        "service.planner.queries_per_fleet": _rate(
            tracer.counts.get("service.planner.planned_queries", 0.0),
            tracer.counts.get("service.planner.plans", 0.0),
        ),
        "service.cache.hit_ratio": _rate(
            tracer.counts.get("service.cache.hits", 0.0),
            tracer.counts.get("service.cache.lookups", 0.0),
        ),
        "service.batcher.batch_size_p50": median(sizes) if sizes else 0.0,
        "service.batcher.queue_wait_ms_p50": 1e3 * percentile(waits, 50.0) if waits else 0.0,
        "service.batcher.queue_wait_ms_p99": 1e3 * percentile(waits, 99.0) if waits else 0.0,
        "service.core.busy_ratio": _rate(busy, phases.wall_s),
        "service.core.self_s": sum(
            own[span.index] - (start - span.start) for span, start in engine
        ),
        "service.http.request_ms_p50": 1e3 * median(phases.http_s),
        "trace.overhead_ratio": phases.wall_s / (phases.wall_s - phases.trace_overhead_s),
    })
    return result


WORKLOADS = {
    "table-1e5": table_workload,
    "serve-distinct": serve_workload,
}
