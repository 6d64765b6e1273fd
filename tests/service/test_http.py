"""ServiceHTTPServer: the dependency-free asyncio HTTP server.

Each test boots the server on an ephemeral port inside its own event
loop and speaks raw HTTP/1.1 over ``asyncio.open_connection`` — the
same wire path the CI smoke job exercises from a separate process.
"""

import asyncio
import json

import pytest

from repro.service import ServiceHTTPServer

BURN_IN = 5  # matches the conftest fixtures


async def _request(port, method, path, payload=None):
    """One HTTP round trip; returns (status_code, decoded JSON body)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    body = b"" if payload is None else json.dumps(payload).encode("utf-8")
    head = (
        f"{method} {path} HTTP/1.1\r\n"
        f"Host: 127.0.0.1\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: close\r\n\r\n"
    )
    writer.write(head.encode("ascii") + body)
    await writer.drain()
    raw = await reader.read()
    writer.close()
    await writer.wait_closed()
    header_blob, _, body_blob = raw.partition(b"\r\n\r\n")
    status = int(header_blob.split()[1])
    return status, json.loads(body_blob.decode("utf-8"))


def _run(service, scenario):
    """Boot the server, run *scenario(port)*, always stop the server."""

    async def harness():
        server = ServiceHTTPServer(service, port=0, window_seconds=0.005)
        await server.start()
        try:
            return await scenario(server.port)
        finally:
            await server.stop()

    return asyncio.run(harness())


def _estimate_payload(**overrides):
    payload = dict(
        algorithm="NeighborSample-HH", t1=1, t2=2, budget=15,
        seed=7, repetitions=6, burn_in=BURN_IN,
    )
    payload.update(overrides)
    return payload


class TestEndpoints:
    def test_healthz(self, ram_service):
        async def scenario(port):
            return await _request(port, "GET", "/healthz")

        status, body = _run(ram_service, scenario)
        assert status == 200
        assert body["status"] == "ok"
        assert body["graph_version"] == 1
        assert body["open_breakers"] == []
        assert body["queue_depth"] == 0

    def test_estimate_round_trip(self, ram_service):
        async def scenario(port):
            return await _request(
                port, "POST", "/estimate", _estimate_payload()
            )

        status, body = _run(ram_service, scenario)
        assert status == 200
        assert body["algorithm"] == "NeighborSample-HH"
        assert body["budget"] == 15
        assert len(body["estimates"]) == 6
        assert body["true_count"] > 0
        assert body["cached"] is False
        assert body["mean_estimate"] == pytest.approx(
            sum(body["estimates"]) / len(body["estimates"])
        )

    def test_repeat_query_is_served_from_cache(self, ram_service):
        async def scenario(port):
            first = await _request(port, "POST", "/estimate", _estimate_payload())
            second = await _request(port, "POST", "/estimate", _estimate_payload())
            stats = await _request(port, "GET", "/stats")
            return first, second, stats

        (_, first), (_, second), (_, stats) = _run(ram_service, scenario)
        assert first["cached"] is False
        assert second["cached"] is True
        assert second["estimates"] == first["estimates"]
        assert stats["cache"]["hit_rate"] > 0

    def test_stats_shape(self, ram_service):
        async def scenario(port):
            await _request(port, "POST", "/estimate", _estimate_payload())
            return await _request(port, "GET", "/stats")

        status, stats = _run(ram_service, scenario)
        assert status == 200
        assert stats["graph"]["store"] == "ram"
        assert stats["graph"]["num_nodes"] == 250
        assert stats["fleets"]["built"] == 1
        assert stats["fleets"]["steps_walked"] > 0
        assert stats["queries"]["served"] == 1
        assert stats["batcher"]["queries_submitted"] == 1
        assert "NeighborSample-HH" in stats["algorithms"]


class TestConcurrentClients:
    def test_wire_clients_in_one_window_share_a_fleet(self, ram_service):
        before = ram_service.fleets_built

        async def scenario(port):
            return await asyncio.gather(
                _request(port, "POST", "/estimate", _estimate_payload(budget=10)),
                _request(port, "POST", "/estimate", _estimate_payload(budget=40)),
                _request(port, "POST", "/estimate", _estimate_payload(budget=25)),
            )

        responses = _run(ram_service, scenario)
        assert all(status == 200 for status, _ in responses)
        assert sorted(body["budget"] for _, body in responses) == [10, 25, 40]
        assert ram_service.fleets_built - before == 1


class TestErrorContract:
    def test_unknown_route_is_404(self, ram_service):
        async def scenario(port):
            return await _request(port, "GET", "/nope")

        status, body = _run(ram_service, scenario)
        assert status == 404
        assert "error" in body

    def test_malformed_json_is_400(self, ram_service):
        async def scenario(port):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            body = b"{not json"
            head = (
                f"POST /estimate HTTP/1.1\r\nHost: x\r\n"
                f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n"
            )
            writer.write(head.encode("ascii") + body)
            await writer.drain()
            raw = await reader.read()
            writer.close()
            await writer.wait_closed()
            return int(raw.split()[1])

        assert _run(ram_service, scenario) == 400

    def test_non_object_body_is_400(self, ram_service):
        async def scenario(port):
            return await _request(port, "POST", "/estimate", [1, 2, 3])

        status, body = _run(ram_service, scenario)
        assert status == 400
        assert "JSON object" in body["error"]

    def test_unknown_algorithm_is_400_with_reason(self, ram_service):
        async def scenario(port):
            return await _request(
                port, "POST", "/estimate",
                _estimate_payload(algorithm="NoSuchAlgorithm"),
            )

        status, body = _run(ram_service, scenario)
        assert status == 400
        assert "NoSuchAlgorithm" in body["error"]

    def test_zero_target_pair_is_400(self, ram_service):
        async def scenario(port):
            return await _request(
                port, "POST", "/estimate",
                _estimate_payload(t1="ghost", t2="ghost"),
            )

        status, body = _run(ram_service, scenario)
        assert status == 400
        assert "no target edges" in body["error"]

    def test_missing_required_fields_is_400(self, ram_service):
        async def scenario(port):
            return await _request(port, "POST", "/estimate", {"budget": 10})

        status, body = _run(ram_service, scenario)
        assert status == 400
        assert "t1" in body["error"]
