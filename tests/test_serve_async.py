"""Asyncio front end: JSON-lines, HTTP mapping, concurrency, shutdown."""

import json
import socket
import threading
import time

import numpy as np
import pytest

from repro.serve import (
    AsyncCompileServer,
    CompileService,
    aserve,
    decode_array,
    encode_array,
    frontend,
    shm,
)

SOURCE_AB = (
    "Matrix A <General, Singular>; Matrix B <General, Singular>; R := A * B;"
)


@pytest.fixture(scope="module")
def service():
    service = CompileService(workers=2, warm=False)
    yield service
    service.close()


@pytest.fixture
def server(service):
    server = AsyncCompileServer(service, http_port=0).start()
    yield server
    server.close()


def request_line(sock_file, payload):
    sock_file.write(json.dumps(payload) + "\n")
    sock_file.flush()
    return json.loads(sock_file.readline())


class TestJsonLines:
    def test_ping_and_transports(self, server):
        with socket.create_connection(server.address) as conn:
            stream = conn.makefile("rw")
            response = request_line(stream, {"op": "ping", "id": 7})
            assert response["ok"] is True
            assert response["id"] == 7
            assert "npy" in response["transports"]

    def test_compile_and_execute(self, server, service):
        with socket.create_connection(server.address) as conn:
            stream = conn.makefile("rw")
            compiled = request_line(
                stream, {"op": "compile", "source": SOURCE_AB, "id": 1}
            )
            assert compiled["ok"], compiled
            a, b = np.ones((4, 5)), np.ones((5, 6))
            executed = request_line(
                stream,
                {
                    "op": "execute",
                    "handle": compiled["handle"],
                    "arrays": [encode_array(a), encode_array(b)],
                    "id": 2,
                },
            )
            assert executed["ok"], executed
            assert np.allclose(decode_array(executed["result"]), a @ b)

    def test_malformed_json_answered_in_band(self, server):
        with socket.create_connection(server.address) as conn:
            stream = conn.makefile("rw")
            stream.write("{nope\n")
            stream.flush()
            response = json.loads(stream.readline())
            assert response["ok"] is False
            assert "malformed JSON" in response["error"]
            # The connection survives a malformed request.
            assert request_line(stream, {"op": "ping"})["ok"] is True

    def test_interleaved_partial_lines(self, server):
        """A request split across many writes is one request, not several."""
        payload = json.dumps({"op": "ping", "id": 42}) + "\n"
        with socket.create_connection(server.address) as conn:
            for i in range(0, len(payload), 5):
                conn.sendall(payload[i : i + 5].encode())
            stream = conn.makefile("r")
            response = json.loads(stream.readline())
            assert response == {"ok": True, "pong": True,
                                "transports": response["transports"],
                                "id": 42}

    def test_oversize_line_rejected_in_band(self, service):
        server = AsyncCompileServer(service, max_line_bytes=4096).start()
        try:
            with socket.create_connection(server.address) as conn:
                conn.sendall(b"x" * 10_000 + b"\n")
                stream = conn.makefile("r")
                response = json.loads(stream.readline())
                assert response["ok"] is False
                assert "exceeds 4096 bytes" in response["error"]
                # The stream cannot be resynced: server closes cleanly.
                assert stream.readline() == ""
        finally:
            server.close()

    def test_abrupt_disconnect_mid_execute(self, server, service):
        """A client that dies mid-request must not poison the server."""
        compiled = None
        with socket.create_connection(server.address) as conn:
            stream = conn.makefile("rw")
            compiled = request_line(
                stream, {"op": "compile", "source": SOURCE_AB}
            )
        a, b = np.ones((32, 32)), np.ones((32, 32))
        request = json.dumps(
            {
                "op": "execute",
                "handle": compiled["handle"],
                "arrays": [encode_array(a), encode_array(b)],
            }
        )
        conn = socket.create_connection(server.address)
        conn.sendall(request.encode() + b"\n")
        conn.close()  # gone before the response
        # The server still answers the next client.
        with socket.create_connection(server.address) as conn2:
            stream = conn2.makefile("rw")
            assert request_line(stream, {"op": "ping"})["ok"] is True

    def test_32_simultaneous_connections(self, server):
        """Every one of 32 concurrent clients gets its own answer in-band."""
        results: dict[int, dict] = {}
        errors: list[Exception] = []

        def client(i: int) -> None:
            try:
                with socket.create_connection(server.address) as conn:
                    stream = conn.makefile("rw")
                    for round_no in range(3):
                        response = request_line(
                            stream, {"op": "ping", "id": i * 100 + round_no}
                        )
                        assert response["id"] == i * 100 + round_no
                    results[i] = response
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [
            threading.Thread(target=client, args=(i,)) for i in range(32)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not errors
        assert len(results) == 32
        assert all(response["ok"] for response in results.values())


class TestHttp:
    def post(self, address, body, headers=None):
        import http.client

        conn = http.client.HTTPConnection(*address, timeout=10)
        try:
            conn.request(
                "POST", "/", body, headers or {"Content-Type": "application/json"}
            )
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def test_post_stats(self, server):
        status, body = self.post(
            server.http_address, json.dumps({"op": "stats", "id": 1})
        )
        assert status == 200
        payload = json.loads(body)
        assert payload["ok"] is True
        assert payload["protocol_version"] >= 4

    def test_post_execute(self, server, service):
        compiled = json.loads(
            self.post(
                server.http_address,
                json.dumps({"op": "compile", "source": SOURCE_AB}),
            )[1]
        )
        a, b = np.ones((3, 4)), np.ones((4, 2))
        status, body = self.post(
            server.http_address,
            json.dumps(
                {
                    "op": "execute",
                    "handle": compiled["handle"],
                    "arrays": [encode_array(a), encode_array(b)],
                }
            ),
        )
        assert status == 200
        executed = json.loads(body)
        assert executed["ok"], executed
        assert np.allclose(decode_array(executed["result"]), a @ b)

    def test_get_rejected_405(self, server):
        import http.client

        conn = http.client.HTTPConnection(*server.http_address, timeout=10)
        try:
            conn.request("GET", "/")
            response = conn.getresponse()
            assert response.status == 405
        finally:
            conn.close()

    def test_bad_request_line_400(self, server):
        with socket.create_connection(server.http_address) as conn:
            conn.sendall(b"garbage\r\n\r\n")
            reply = conn.makefile("rb").readline()
            assert b"400" in reply

    def test_keep_alive_two_requests_one_connection(self, server):
        import http.client

        conn = http.client.HTTPConnection(*server.http_address, timeout=10)
        try:
            for i in range(2):
                conn.request(
                    "POST",
                    "/",
                    json.dumps({"op": "ping", "id": i}),
                    {"Content-Type": "application/json"},
                )
                response = conn.getresponse()
                assert response.status == 200
                assert json.loads(response.read())["id"] == i
        finally:
            conn.close()


class TestInlineDecision:
    """Which thread answers a request: the event loop or a pool worker."""

    LOOP = "repro-aserve-loop"

    @pytest.fixture
    def threads(self, monkeypatch):
        seen = []

        def recording(service, payload):
            seen.append((payload.get("op"), threading.current_thread().name))
            return frontend.handle_request(service, payload)

        monkeypatch.setattr(aserve, "handle_request", recording)
        return seen

    @staticmethod
    def _execute_line(handle, arrays, **extra):
        payload = {"op": "execute", "handle": handle, "arrays": arrays, **extra}
        return payload, len(json.dumps(payload)) + 1

    def _compile(self, stream):
        compiled = request_line(stream, {"op": "compile", "source": SOURCE_AB})
        assert compiled["ok"], compiled
        return compiled["handle"]

    def test_mid_size_npy_execute_runs_on_loop(self, server, threads):
        a, b = np.ones((64, 64)), np.ones((64, 64))
        with socket.create_connection(server.address) as conn:
            stream = conn.makefile("rw")
            handle = self._compile(stream)
            payload, size = self._execute_line(
                handle, [encode_array(a), encode_array(b)]
            )
            assert 64 * 1024 < size <= aserve.DEFAULT_INLINE_BYTES
            response = request_line(stream, payload)
        assert response["ok"], response
        assert threads == [
            ("compile", threads[0][1]),
            ("execute", self.LOOP),
        ]
        assert threads[0][1].startswith("repro-aserve_")

    def test_oversize_npy_execute_runs_on_pool(self, server, threads):
        a, b = np.ones((128, 160)), np.ones((160, 128))
        with socket.create_connection(server.address) as conn:
            stream = conn.makefile("rw")
            handle = self._compile(stream)
            payload, size = self._execute_line(
                handle, [encode_array(a), encode_array(b)]
            )
            assert size > aserve.DEFAULT_INLINE_BYTES
            response = request_line(stream, payload)
        assert response["ok"], response
        assert np.allclose(decode_array(response["result"]), a @ b)
        assert threads[-1][0] == "execute"
        assert threads[-1][1].startswith("repro-aserve_")

    @pytest.mark.skipif(
        not shm.shm_available(), reason="shared memory unavailable on this host"
    )
    def test_shm_execute_runs_on_pool(self, server, threads):
        a, b = np.ones((4, 5)), np.ones((5, 6))
        (pa, sa), (pb, sb) = (shm.create_segment_payload(x) for x in (a, b))
        try:
            with socket.create_connection(server.address) as conn:
                stream = conn.makefile("rw")
                handle = self._compile(stream)
                payload, size = self._execute_line(
                    handle, [pa, pb], result_encoding="npy"
                )
                assert size < 64 * 1024
                response = request_line(stream, payload)
        finally:
            for segment in (sa, sb):
                segment.close()
                segment.unlink()
        assert response["ok"], response
        assert threads[-1][0] == "execute"
        assert threads[-1][1].startswith("repro-aserve_")


class TestLifecycle:
    def test_close_is_idempotent_and_deterministic(self, service):
        server = AsyncCompileServer(service).start()
        address = server.address
        server.close()
        server.close()
        with pytest.raises(OSError):
            socket.create_connection(address, timeout=0.5)

    def test_client_mid_connection_gets_eof_on_close(self, service):
        server = AsyncCompileServer(service).start()
        conn = socket.create_connection(server.address)
        stream = conn.makefile("rw")
        assert request_line(stream, {"op": "ping"})["ok"] is True
        server.close()
        # A blocked reader observes a clean EOF, not a hang or a reset.
        conn.settimeout(5)
        assert stream.readline() == ""
        conn.close()


    def test_close_joins_pool_threads_with_compiles_in_flight(self):
        # Six structurally distinct 8-9 matrix chains (~0.3-1 s each), one
        # per connection: each compile is offloaded to the worker pool.
        sources = [
            f"Matrix M0 <{lead}>; "
            + " ".join(
                f"Matrix M{i} <General, Singular>;" for i in range(1, n)
            )
            + " R := "
            + " * ".join(f"M{i}" for i in range(n))
            + ";"
            for n in (8, 9)
            for lead in (
                "General, Singular",
                "LowerTri, NonSingular",
                "Symmetric, SPD",
            )
        ]
        with CompileService(workers=2, warm=False) as service:
            server = AsyncCompileServer(service).start()
            conns = []
            for source in sources:
                conn = socket.create_connection(server.address)
                conn.sendall(
                    json.dumps({"op": "compile", "source": source}).encode()
                    + b"\n"
                )
                conns.append(conn)
            deadline = time.monotonic() + 30
            while service.metrics.snapshot()["requests"] < len(sources):
                assert time.monotonic() < deadline, "compiles never reached the service"
                time.sleep(0.005)
            server.close(timeout=60)
            alive = [
                thread.name
                for thread in threading.enumerate()
                if thread.name.startswith("repro-aserve")
            ]
            assert alive == []
            for conn in conns:
                conn.settimeout(5)
                # Reads to EOF (a timeout here would raise): the server
                # closed the connection rather than leaving it open.
                conn.makefile("rb").read()
                conn.close()
