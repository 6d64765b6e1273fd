"""HTTP front for the estimation service.

:class:`ServiceHTTPServer` serves an :class:`EstimationService` +
:class:`MicroBatcher` pair over a dependency-free asyncio HTTP/1.1
server (``asyncio.start_server`` + a minimal request parser).  It is
what ``repro-osn serve``, the test suite and the CI smoke jobs run, and
it speaks exactly the three endpoints below and nothing else.

Endpoints:

* ``GET /healthz`` — real health, not an unconditional 200:
  ``{"status": "ok"|"degraded", "graph_version": N, "open_breakers":
  [...], "queue_depth": N}``.  ``degraded`` means some algorithm's
  circuit breaker is open or the admission queue is full; the process
  is still serving (from stale cache where it can).
* ``GET /stats`` — runtime snapshot: graph/publication info, cache hit
  rate, fleet count, steps walked per second, batcher queue depth,
  breaker states, degraded/deadline counters.
* ``POST /estimate`` — body ``{"t1": ..., "t2": ..., "budget": N,
  "algorithm"?, "seed"?, "repetitions"?, "burn_in"?, "deadline_ms"?}``;
  the request parks in the micro-batch window and returns the full
  :meth:`~repro.service.core.EstimateAnswer.to_dict` payload.

Failure-policy status codes (see ``docs/operations.md`` for the client
guidance):

========== ============================================ =================
status     meaning                                      client action
========== ============================================ =================
``400``    invalid query (unknown algorithm, bad        fix the request
           budget, zero-target pair)
``429``    admission queue full, no cached fallback     back off for
           (``Retry-After`` header)                     ``Retry-After``
``503``    circuit breaker open, no cached fallback     back off for
           (``Retry-After`` header)                     ``Retry-After``
``504``    per-query deadline exceeded                  retry with a
                                                        larger deadline
``500``    unexpected engine failure                    report a bug
========== ============================================ =================
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import math
import signal
from typing import Dict, Optional, Tuple

from repro.exceptions import (
    CircuitOpenError,
    DeadlineExceededError,
    ReproError,
    ServiceOverloadedError,
)
from repro.service.batcher import MicroBatcher
from repro.service.core import EstimationService

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

#: The (status, payload, extra headers) triple every route resolves to.
Response = Tuple[int, Dict, Dict[str, str]]


def _retry_after_header(seconds: float) -> Dict[str, str]:
    """An RFC-compliant integral ``Retry-After``, rounded up, >= 1."""
    return {"Retry-After": str(max(1, math.ceil(seconds)))}


def _service_stats(service: EstimationService, batcher: MicroBatcher) -> Dict:
    stats = service.stats()
    stats["batcher"] = batcher.stats()
    return stats


def _health_payload(service: EstimationService, batcher: MicroBatcher) -> Dict:
    """Compose engine health with the server's queue state."""
    health = service.health()
    if batcher.admission is not None:
        depth = batcher.admission.depth
        health["queue_depth"] = depth
        health["queue_limit"] = batcher.admission.limit
        if depth >= batcher.admission.limit:
            health["status"] = "degraded"
    else:
        health["queue_depth"] = batcher.in_flight
    return health


async def _dispatch(
    service: EstimationService,
    batcher: MicroBatcher,
    method: str,
    path: str,
    body: bytes,
) -> Response:
    """Route one request to the engine and map errors to HTTP statuses."""
    if method == "GET" and path == "/healthz":
        return 200, _health_payload(service, batcher), {}
    if method == "GET" and path == "/stats":
        return 200, _service_stats(service, batcher), {}
    if method == "POST" and path == "/estimate":
        try:
            payload = json.loads(body.decode("utf-8") or "null")
        except (UnicodeDecodeError, json.JSONDecodeError):
            return 400, {"error": "request body must be a JSON object"}, {}
        if not isinstance(payload, dict):
            return 400, {"error": "request body must be a JSON object"}, {}
        deadline_ms = payload.pop("deadline_ms", None)
        if deadline_ms is not None:
            if not isinstance(deadline_ms, (int, float)) or deadline_ms <= 0:
                return 400, {"error": "deadline_ms must be a positive number"}, {}
        try:
            answer = await batcher.submit(
                payload,
                deadline_seconds=(
                    deadline_ms / 1000.0 if deadline_ms is not None else None
                ),
            )
        except ServiceOverloadedError as exc:
            return 429, {"error": str(exc)}, _retry_after_header(exc.retry_after)
        except CircuitOpenError as exc:
            return 503, {"error": str(exc)}, _retry_after_header(exc.retry_after)
        except DeadlineExceededError as exc:
            return 504, {"error": str(exc)}, {}
        except ReproError as exc:
            return 400, {"error": str(exc)}, {}
        except Exception as exc:  # engine crash surface (injected faults land here)
            return 500, {"error": f"{type(exc).__name__}: {exc}"}, {}
        return 200, answer.to_dict(), {}
    return 404, {"error": f"no route for {method} {path}"}, {}


class ServiceHTTPServer:
    """Minimal asyncio HTTP front; no third-party dependencies.

    Binds lazily in :meth:`start` (``port=0`` picks a free port, read
    it back from :attr:`port`) and owns a :class:`MicroBatcher` so
    every server instance batches independently.  *max_in_flight*
    and *deadline_ms* configure the batcher's admission control and
    default per-query deadline (both off by default).
    """

    def __init__(
        self,
        service: EstimationService,
        host: str = "127.0.0.1",
        port: int = 0,
        window_seconds: float = 0.005,
        max_in_flight: Optional[int] = None,
        deadline_ms: Optional[float] = None,
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self.batcher = MicroBatcher(
            service,
            window_seconds,
            max_in_flight=max_in_flight,
            default_deadline_seconds=(
                deadline_ms / 1000.0 if deadline_ms is not None else None
            ),
        )
        self._server: Optional[asyncio.AbstractServer] = None

    async def start(self) -> None:
        """Bind and start accepting connections (returns immediately)."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        """Stop accepting, flush the batch window, close the server."""
        await self.batcher.drain()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            status, payload, extra_headers = await self._handle_request(reader)
            body = json.dumps(payload).encode("utf-8")
            reason = _REASONS.get(status, "Unknown")
            lines = [
                f"HTTP/1.1 {status} {reason}",
                "Content-Type: application/json",
                f"Content-Length: {len(body)}",
            ]
            lines.extend(f"{name}: {value}" for name, value in extra_headers.items())
            lines.append("Connection: close")
            head = "\r\n".join(lines) + "\r\n\r\n"
            writer.write(head.encode("ascii") + body)
            await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away; the batch (if any) continues without it
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError):  # pragma: no cover
                pass

    async def _handle_request(self, reader: asyncio.StreamReader) -> Response:
        request_line = (await reader.readline()).decode("ascii", "replace")
        parts = request_line.split()
        if len(parts) < 2:
            return 400, {"error": "malformed request line"}, {}
        method, path = parts[0].upper(), parts[1]
        headers: Dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("ascii", "replace").partition(":")
            headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError:
            return 400, {"error": "bad Content-Length"}, {}
        body = await reader.readexactly(length) if length > 0 else b""
        return await _dispatch(self.service, self.batcher, method, path, body)


def run_server(
    service: EstimationService,
    host: str = "127.0.0.1",
    port: int = 8000,
    window_seconds: float = 0.005,
    max_in_flight: Optional[int] = None,
    deadline_ms: Optional[float] = None,
    snapshot_interval_seconds: Optional[float] = None,
) -> None:
    """Run the service until interrupted (the ``repro-osn serve`` core).

    The server installs ``SIGTERM`` / ``SIGINT`` handlers for
    **graceful shutdown**: stop accepting connections, drain the
    micro-batch window (in-flight queries get their answers), snapshot
    the answer cache, exit 0.  A ``SIGKILL`` skips all of that and the
    next boot warm-starts from the last periodic snapshot instead —
    *snapshot_interval_seconds* (with the service's ``snapshot_path``)
    enables that timer.
    """
    async def _serve() -> None:
        server = ServiceHTTPServer(
            service,
            host,
            port,
            window_seconds,
            max_in_flight=max_in_flight,
            deadline_ms=deadline_ms,
        )
        await server.start()
        print(
            f"repro-osn serve: listening on http://{server.host}:{server.port} "
            f"(graph version {service.graph_version})",
            flush=True,
        )
        loop = asyncio.get_running_loop()
        stop_requested = asyncio.Event()
        installed_signals = []
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, stop_requested.set)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                continue  # e.g. non-main thread or unsupported platform
            installed_signals.append(signum)

        async def _snapshot_timer() -> None:
            while True:
                await asyncio.sleep(snapshot_interval_seconds)
                # The engine swallows and counts write failures; a full
                # disk must not kill the serving loop.
                await loop.run_in_executor(None, service.save_snapshot)

        timer_task = (
            asyncio.create_task(_snapshot_timer())
            if snapshot_interval_seconds is not None
            and service.snapshot_path is not None
            else None
        )
        serve_task = asyncio.create_task(server.serve_forever())
        stop_task = asyncio.create_task(stop_requested.wait())
        try:
            await asyncio.wait(
                {serve_task, stop_task}, return_when=asyncio.FIRST_COMPLETED
            )
            if stop_requested.is_set():
                print(
                    "repro-osn serve: shutdown signal received; draining "
                    "in-flight queries",
                    flush=True,
                )
        finally:
            for task in (timer_task, serve_task, stop_task):
                if task is not None:
                    task.cancel()
                    with contextlib.suppress(asyncio.CancelledError):
                        await task
            for signum in installed_signals:
                loop.remove_signal_handler(signum)
            # stop() flushes the batch window, so every admitted query
            # is answered before the snapshot below captures the cache.
            await server.stop()
            if service.save_snapshot():
                print(
                    f"repro-osn serve: snapshot written to "
                    f"{service.snapshot_path}",
                    flush=True,
                )
            print("repro-osn serve: shutdown complete", flush=True)

    asyncio.run(_serve())


__all__ = ["ServiceHTTPServer", "run_server"]
