"""Serving load: queries, arrival schedule and the two client loops.

Everything here is a function of the workload seed and the label array
alone.  In particular the pair set comes from label frequencies and the
pair ground truth from plain numpy over the CSR arrays, never from
``CSRGraph`` methods: those cache masks and counts on the graph, and
``publish_csr`` ships whatever is cached, which would boot the service
warm and hide the ground-truth cost the serving workloads measure.

All load comes from one asyncio event loop awaiting
``MicroBatcher.submit``; no client threads or sockets.
"""

from __future__ import annotations

import asyncio
import hashlib
import time
from dataclasses import dataclass, field
from typing import Awaitable, Callable, Dict, List, Sequence, Tuple

import numpy as np

BUDGETS = (100, 300, 1000)
TOP_LABELS = 20
PAIR_EXPONENT = 1.0
SEED_EXPONENT = 1.2

Pair = Tuple[int, int]
Submit = Callable[[dict], Awaitable[object]]


def top_label_pairs(label_array: np.ndarray, top: int = TOP_LABELS) -> List[Pair]:
    """Unordered pairs of the *top* most frequent labels, most frequent first.

    Pairs are ranked by the sum of their labels' frequency ranks (ties
    by the pair itself), so the Zipf head falls on the pairs of the
    commonest labels.
    """
    counts = np.bincount(label_array)
    labels = sorted(range(len(counts)), key=lambda label: (-counts[label], label))[:top]
    rank = {label: index for index, label in enumerate(labels)}
    pairs = [
        (min(a, b), max(a, b))
        for i, a in enumerate(labels)
        for b in labels[i + 1:]
    ]
    return sorted(pairs, key=lambda pair: (rank[pair[0]] + rank[pair[1]], pair))


def pair_edge_counts(
    indptr: np.ndarray, indices: np.ndarray, label_array: np.ndarray
) -> Dict[Pair, int]:
    """Edges per unordered label pair, counted straight off the arrays."""
    sources = np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))
    upper = sources < indices
    a = label_array[sources[upper]].astype(np.int64)
    b = label_array[indices[upper]].astype(np.int64)
    low, high = np.minimum(a, b), np.maximum(a, b)
    width = int(label_array.max()) + 1
    keys, counts = np.unique(low * width + high, return_counts=True)
    return {
        (int(key // width), int(key % width)): int(count)
        for key, count in zip(keys, counts)
    }


@dataclass(frozen=True)
class Traffic:
    """The query mix: who asks what.

    Every (algorithm, budget) combination is equally frequent, *pairs*
    follow a Zipf law over their order, and the user seed is a Zipf(1.2)
    rank hashed into a 31-bit space, so most seed values occur once and
    a few repeat.
    """

    algorithms: Tuple[str, ...]
    pairs: Tuple[Pair, ...]


def _seed_for_rank(workload_seed: int, rank: int) -> int:
    digest = hashlib.blake2b(f"{workload_seed}:{rank}".encode(), digest_size=4).digest()
    return int.from_bytes(digest, "big") & 0x7FFFFFFF


def systematic_sample(weights: np.ndarray, count: int, rng: np.random.Generator) -> np.ndarray:
    """*count* indices drawn in proportion to *weights* by systematic sampling.

    Index ``i`` occurs ``⌊count·pᵢ⌋`` or ``⌈count·pᵢ⌉`` times: one random
    offset places *count* evenly spaced points on the cumulative weights.
    """
    cumulative = np.cumsum(weights) / np.sum(weights)
    points = (rng.uniform() + np.arange(count)) / count
    return np.minimum(np.searchsorted(cumulative, points, side="right"), len(weights) - 1)


def generate_queries(traffic: Traffic, workload_seed: int, stream: int, count: int) -> List[dict]:
    """*count* queries from stream *stream* of the workload seed.

    (algorithm, budget) combinations come in shuffled blocks that hold
    each combination once, and pairs are a shuffled systematic sample of
    their Zipf law, so every seed asks for the same mix of walk work and
    about the same number of distinct pairs (each one a ground-truth
    miss); only the order and the user seeds vary.  This keeps the
    run-to-run spread of the latencies down.
    """
    rng = np.random.default_rng([workload_seed, stream])
    weights = 1.0 / np.arange(1, len(traffic.pairs) + 1) ** PAIR_EXPONENT
    pair_index = rng.permutation(systematic_sample(weights, count, rng))
    combos = [(a, b) for a in traffic.algorithms for b in BUDGETS]
    blocks = -(-count // len(combos))
    order = np.concatenate([rng.permutation(len(combos)) for _ in range(blocks)])
    seed_rank = rng.zipf(SEED_EXPONENT, size=count)
    queries = []
    for i in range(count):
        algorithm, budget = combos[order[i]]
        t1, t2 = traffic.pairs[pair_index[i]]
        queries.append({
            "algorithm": algorithm,
            "t1": t1,
            "t2": t2,
            "budget": budget,
            "seed": _seed_for_rank(workload_seed, int(seed_rank[i])),
        })
    return queries


def poisson_schedule(workload_seed: int, rate: float, seconds: int) -> List[float]:
    """Due times (seconds from the phase start) of Poisson arrivals.

    Each of the *seconds* gets exactly ``rate`` arrivals at uniform
    times: a Poisson process conditioned on its count per second.  Bursts
    within a second are as random as in a plain Poisson process, but a
    run cannot draw a long busy stretch that another seed does not,
    which keeps the run-to-run spread of the latency tail down.
    """
    rng = np.random.default_rng([workload_seed, 0])
    due: List[float] = []
    for block in range(seconds):
        due.extend(sorted(block + rng.uniform(0.0, 1.0, size=round(rate))))
    return [float(t) for t in due]


@dataclass
class LoopResult:
    """What one client loop observed."""

    attempted: int = 0
    failed: int = 0
    latencies_s: List[float] = field(default_factory=list)
    #: Open loop: each answer's due time, seconds from the phase start.
    due_s: List[float] = field(default_factory=list)
    late_s: List[float] = field(default_factory=list)
    answers: List[Tuple[dict, object]] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)
    window_s: float = 0.0


async def open_loop(submit: Submit, queries: Sequence[dict], due: Sequence[float]) -> LoopResult:
    """Send ``queries[i]`` at ``due[i]`` whatever the backlog (open loop).

    Latency runs from the due time, not the send time, so a stall
    charges every query it delays; how late each send was is kept
    separately (``late_s``).
    """
    result = LoopResult()
    started = time.perf_counter()

    async def one(query: dict, due_at: float) -> None:
        result.late_s.append(time.perf_counter() - due_at)
        try:
            answer = await submit(dict(query))
        except Exception as exc:  # a failed query is counted, not fatal
            result.failed += 1
            result.errors.append(f"{type(exc).__name__}: {exc}")
            return
        result.latencies_s.append(time.perf_counter() - due_at)
        result.due_s.append(due_at - started)
        result.answers.append((query, answer))

    tasks = []
    for query, offset in zip(queries, due):
        due_at = started + offset
        delay = due_at - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(asyncio.ensure_future(one(query, due_at)))
        result.attempted += 1
    await asyncio.gather(*tasks)
    result.window_s = time.perf_counter() - started
    return result


async def closed_loop(
    submit: Submit, queries: Sequence[dict], clients: int, duration: float
) -> LoopResult:
    """*clients* coroutines, each sending its next query once answered.

    Clients stop sending after *duration*; throughput is the answers
    completed over the time from the start to the last of them
    (``window_s``), so a batch still in flight at the deadline counts
    with the time it took.
    """
    result = LoopResult()
    started = time.perf_counter()
    deadline = started + duration
    cursor = iter(queries)

    async def client() -> None:
        for query in cursor:
            if time.perf_counter() >= deadline:
                return
            result.attempted += 1
            sent = time.perf_counter()
            try:
                answer = await submit(dict(query))
            except Exception as exc:
                result.failed += 1
                result.errors.append(f"{type(exc).__name__}: {exc}")
                continue
            finished = time.perf_counter()
            result.latencies_s.append(finished - sent)
            result.answers.append((query, answer))
            result.window_s = finished - started
        raise RuntimeError("closed loop ran out of generated queries")

    await asyncio.gather(*(client() for _ in range(clients)))
    return result


async def http_probe(
    host: str, port: int, queries: Sequence[dict], connections: int = 2
) -> List[float]:
    """Closed-loop ``POST /estimate`` round trips over *connections* clients.

    The stdlib transport closes each connection after one response, so
    every request opens its own; returns per-request seconds.
    """
    import json

    timings: List[float] = []
    cursor = iter(queries)

    async def client() -> None:
        for query in cursor:
            body = json.dumps(query).encode()
            sent = time.perf_counter()
            reader, writer = await asyncio.open_connection(host, port)
            try:
                writer.write(
                    b"POST /estimate HTTP/1.1\r\nHost: bench\r\n"
                    + f"Content-Length: {len(body)}\r\n\r\n".encode()
                    + body
                )
                await writer.drain()
                status = await reader.readline()
                await reader.read()
            finally:
                writer.close()
                await writer.wait_closed()
            if b" 200 " not in status:
                raise RuntimeError(f"HTTP probe got {status!r}")
            timings.append(time.perf_counter() - sent)

    await asyncio.gather(*(client() for _ in range(connections)))
    return timings
