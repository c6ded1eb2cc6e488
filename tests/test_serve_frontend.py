"""JSON-lines front end: request handling, streams, and the TCP server."""

import io
import json
import socket

import pytest

import numpy as np

from repro.serve import AsyncCompileServer, CompileService
from repro.serve.frontend import (
    PROTOCOL_VERSION,
    array_to_npy_bytes,
    as_wire_array,
    decode_array,
    encode_array,
    handle_line,
    handle_request,
    npy_bytes_to_array,
    serve_stream,
)

SOURCE_AB = (
    "Matrix A <General, Singular>; Matrix B <General, Singular>; R := A * B;"
)
SOURCE_ABC = (
    "Matrix A <General, Singular>; Matrix B <General, Singular>; "
    "Matrix C <General, Singular>; R := A * B * C;"
)


@pytest.fixture
def service():
    service = CompileService(workers=2, warm=False)
    yield service
    service.close()


class TestHandleRequest:
    def test_compile_round_trip(self, service):
        response = handle_request(
            service,
            {
                "op": "compile",
                "source": SOURCE_ABC,
                "options": {"num_training_instances": 25},
                "id": 7,
            },
        )
        assert response["ok"] is True
        assert response["id"] == 7
        assert response["num_variants"] >= 1
        assert response["handle"]
        assert response["elapsed_ms"] >= 0

    def test_compile_options_are_honoured(self, service):
        base = handle_request(
            service,
            {"op": "compile", "source": SOURCE_ABC,
             "options": {"num_training_instances": 25}},
        )
        expanded = handle_request(
            service,
            {"op": "compile", "source": SOURCE_ABC,
             "options": {"num_training_instances": 25, "expand_by": 1}},
        )
        # Different options -> different content address (and no false
        # cache hit); the variant set can only grow under expansion.
        assert expanded["handle"] != base["handle"]
        assert expanded["num_variants"] >= base["num_variants"]
        assert service.session.cache_stats().misses == 2

    def test_dispatch_by_handle(self, service):
        compiled = handle_request(
            service,
            {"op": "compile", "source": SOURCE_ABC,
             "options": {"num_training_instances": 25}},
        )
        response = handle_request(
            service,
            {"op": "dispatch", "handle": compiled["handle"],
             "sizes": [10, 200, 5, 100], "id": "d1"},
        )
        assert response["ok"] is True
        assert response["id"] == "d1"
        assert response["variant"] in compiled["variants"]
        assert response["cost"] > 0

    def test_dispatch_compile_if_needed(self, service):
        response = handle_request(
            service,
            {"op": "dispatch", "source": SOURCE_AB, "sizes": [4, 5, 6]},
        )
        assert response["ok"] is True
        assert response["handle"]
        assert service.metrics.compiled == 1

    def test_dispatch_unknown_handle(self, service):
        response = handle_request(
            service, {"op": "dispatch", "handle": "nope", "sizes": [2, 3, 4]}
        )
        assert response["ok"] is False
        assert "unknown compilation handle" in response["error"]

    def test_compile_can_ship_the_artifact(self, service):
        from repro.compiler.program import CompiledProgram

        response = handle_request(
            service,
            {"op": "compile", "source": SOURCE_AB, "artifact": True,
             "options": {"num_training_instances": 20}},
        )
        assert response["ok"] is True
        program = CompiledProgram.loads(json.dumps(response["artifact"]))
        assert program.key == response["handle"]
        assert [v.name for v in program.variants] == response["variants"]

    def test_execute_npy_arrays_match_in_process_execution(self, service):
        import numpy as np

        from repro.compiler.executor import (
            naive_evaluate,
            random_instance_arrays,
        )
        from repro.serve.frontend import decode_array, encode_array

        compiled = handle_request(
            service,
            {"op": "compile", "source": SOURCE_ABC,
             "options": {"num_training_instances": 25}},
        )
        generated = service.lookup(compiled["handle"])
        rng = np.random.default_rng(5)
        arrays = random_instance_arrays(generated.chain, (7, 4, 9, 3), rng)
        response = handle_request(
            service,
            {
                "op": "execute",
                "handle": compiled["handle"],
                "arrays": [encode_array(a) for a in arrays],
                "id": "x1",
            },
        )
        assert response["ok"] is True, response
        assert response["id"] == "x1"
        assert response["variant"] in compiled["variants"]
        assert response["sizes"] == [7, 4, 9, 3]
        result = decode_array(response["result"])
        # The wire result equals both the in-process dispatcher execution
        # and the dense-numpy oracle.
        np.testing.assert_allclose(result, generated(*arrays))
        np.testing.assert_allclose(
            result, naive_evaluate(generated.chain, arrays), atol=1e-8
        )

    def test_execute_list_arrays_and_json_round_trip(self, service):
        import numpy as np

        from repro.compiler.executor import random_instance_arrays

        compiled = handle_request(
            service,
            {"op": "compile", "source": SOURCE_AB,
             "options": {"num_training_instances": 20}},
        )
        generated = service.lookup(compiled["handle"])
        rng = np.random.default_rng(6)
        arrays = random_instance_arrays(generated.chain, (5, 3, 4), rng)
        # Whole round goes through the text protocol, like a real client.
        line = json.dumps(
            {"op": "execute", "handle": compiled["handle"],
             "arrays": [a.tolist() for a in arrays]}
        )
        response = json.loads(handle_line(service, line))
        assert response["ok"] is True, response
        # List input -> list-encoded result.
        assert isinstance(response["result"], list)
        np.testing.assert_allclose(
            np.asarray(response["result"]), generated(*arrays)
        )
        # Dict-wrapped list arrays also answer in lists (the declared
        # encoding wins, not the payload's JSON type).
        wrapped = handle_request(
            service,
            {"op": "execute", "handle": compiled["handle"],
             "arrays": [
                 {"encoding": "list", "data": a.tolist()} for a in arrays
             ]},
        )
        assert wrapped["ok"] is True
        assert isinstance(wrapped["result"], list)

    def test_execute_compile_if_needed_and_errors(self, service):
        import numpy as np

        from repro.compiler.executor import random_instance_arrays
        from repro.ir.parser import parse_program

        chain = parse_program(SOURCE_AB).chain
        rng = np.random.default_rng(7)
        arrays = random_instance_arrays(chain, (4, 5, 6), rng)
        response = handle_request(
            service,
            {"op": "execute", "source": SOURCE_AB,
             "arrays": [a.tolist() for a in arrays]},
        )
        assert response["ok"] is True
        assert response["handle"]

        assert handle_request(
            service, {"op": "execute", "handle": "nope", "arrays": [[1.0]]}
        )["ok"] is False
        assert handle_request(
            service, {"op": "execute", "handle": response["handle"]}
        )["ok"] is False  # missing arrays
        bad = handle_request(
            service,
            {"op": "execute", "handle": response["handle"],
             "arrays": [{"encoding": "npy", "data": "!!!notbase64"}] * 2},
        )
        assert bad["ok"] is False and "npy" in bad["error"]

    def test_stats_include_last_compile_diagnostics(self, service):
        handle_request(
            service,
            {"op": "compile", "source": SOURCE_ABC,
             "options": {"num_training_instances": 20}},
        )
        stats = handle_request(service, {"op": "stats"})
        assert stats["workers_mode"] == "thread"
        last = stats["last_compile"]
        assert "enumerate" in last["timings_ms"]
        pool = last["variant_pool"]
        assert pool["strategy"] == "exhaustive"
        assert pool["requested"] == "auto"
        assert pool["pool_size"] >= 1

    def test_stats_and_ping_and_warm(self, service):
        handle_request(
            service,
            {"op": "compile", "source": SOURCE_AB,
             "options": {"num_training_instances": 20}},
        )
        stats = handle_request(service, {"op": "stats", "id": 3})
        assert stats["ok"] is True
        assert stats["protocol_version"] == PROTOCOL_VERSION
        assert stats["service"]["requests"] == 1
        assert stats["cache"]["misses"] == 1
        assert handle_request(service, {"op": "ping"})["pong"] is True
        warmed = handle_request(service, {"op": "warm"})
        assert warmed["ok"] is True and warmed["warmed"] == 0

    def test_parse_error_is_reported_in_band(self, service):
        response = handle_request(
            service, {"op": "compile", "source": "this is not a program", "id": 1}
        )
        assert response["ok"] is False
        assert response["id"] == 1
        assert response["error_type"] == "ParseError"

    def test_unknown_option_is_reported_in_band(self, service):
        response = handle_request(
            service,
            {"op": "compile", "source": SOURCE_AB,
             "options": {"exapnd_by": 1}},
        )
        assert response["ok"] is False
        assert "unknown compile option" in response["error"]

    def test_multi_term_expression_rejected(self, service):
        source = "Matrix A <General, Singular>; R := A + 2 * A;"
        response = handle_request(service, {"op": "compile", "source": source})
        assert response["ok"] is False
        assert "one chain per request" in response["error"]

    def test_unknown_op_and_malformed_shapes(self, service):
        assert handle_request(service, {"op": "frobnicate"})["ok"] is False
        assert handle_request(service, {"op": "compile"})["ok"] is False
        assert (
            handle_request(service, {"op": "compile", "source": SOURCE_AB,
                                     "options": [1, 2]})["ok"] is False
        )
        assert handle_request(service, {"op": "dispatch", "sizes": []})["ok"] is False
        assert handle_request(service, {"op": "dispatch", "sizes": [2, 3]})["ok"] is False


class TestStream:
    def test_serve_stream_end_to_end(self, service):
        requests = [
            {"op": "compile", "source": SOURCE_ABC,
             "options": {"num_training_instances": 25}, "id": 1},
            {"op": "stats", "id": 2},
        ]
        infile = io.StringIO(
            "\n".join(json.dumps(r) for r in requests) + "\n\n"
        )
        outfile = io.StringIO()
        served = serve_stream(service, infile, outfile)
        assert served == 2
        lines = [json.loads(l) for l in outfile.getvalue().splitlines()]
        assert [l["id"] for l in lines] == [1, 2]
        assert lines[0]["ok"] and lines[1]["ok"]

    def test_serve_stream_max_requests(self, service):
        infile = io.StringIO('{"op": "ping"}\n' * 5)
        outfile = io.StringIO()
        assert serve_stream(service, infile, outfile, max_requests=2) == 2
        assert len(outfile.getvalue().splitlines()) == 2

    def test_malformed_json_answered_in_band(self, service):
        assert handle_line(service, "   ") is None
        response = json.loads(handle_line(service, "{broken"))
        assert response["ok"] is False
        assert "malformed JSON" in response["error"]

    def test_non_object_request(self, service):
        response = json.loads(handle_line(service, "[1, 2, 3]"))
        assert response["ok"] is False
        assert "JSON object" in response["error"]


class TestArrayCodec:
    """The npy wire codec's no-copy fast paths (PR 10 satellite)."""

    def test_as_wire_array_contiguous_is_no_copy(self):
        array = np.random.default_rng(0).standard_normal((64, 64))
        assert np.shares_memory(as_wire_array(array), array)

    def test_as_wire_array_fortran_is_no_copy(self):
        array = np.asfortranarray(np.ones((16, 24)))
        assert np.shares_memory(as_wire_array(array), array)

    def test_as_wire_array_strided_copies(self):
        array = np.ones((32, 32))[::2, ::2]
        wired = as_wire_array(array)
        assert not np.shares_memory(wired, array)
        assert wired.flags.c_contiguous

    def test_npy_bytes_round_trip_all_layouts(self):
        rng = np.random.default_rng(1)
        base = rng.standard_normal((12, 18))
        for array in (base, np.asfortranarray(base), base[::2, 1::3]):
            back = npy_bytes_to_array(array_to_npy_bytes(array))
            assert np.array_equal(back, array)
            assert back.dtype == array.dtype

    def test_npy_bytes_match_np_save(self):
        """The header+join fast path emits byte-identical .npy streams."""
        array = np.random.default_rng(2).standard_normal((7, 5))
        buffer = io.BytesIO()
        np.save(buffer, array)
        assert array_to_npy_bytes(array) == buffer.getvalue()

    def test_npy_decode_is_zero_copy_view(self):
        array = np.arange(20, dtype=np.float64).reshape(4, 5)
        raw = array_to_npy_bytes(array)
        back = npy_bytes_to_array(raw)
        assert not back.flags.writeable  # aliases the immutable bytes
        assert np.array_equal(back, array)

    def test_encode_decode_round_trip(self):
        array = np.random.default_rng(3).standard_normal((6, 9))
        payload = encode_array(array)
        assert payload["encoding"] == "npy"
        assert np.array_equal(decode_array(payload), array)

    def test_unknown_encoding_rejected(self):
        with pytest.raises(ValueError, match="unknown array encoding"):
            encode_array(np.ones((2, 2)), "protobuf")


class TestTcpServer:
    def test_two_clients_share_one_service(self, service):
        with AsyncCompileServer(service) as server:
            host, port = server.address

            def roundtrip(payloads):
                with socket.create_connection((host, port), timeout=10) as conn:
                    handle = conn.makefile("rw", encoding="utf-8")
                    responses = []
                    for payload in payloads:
                        handle.write(json.dumps(payload) + "\n")
                        handle.flush()
                        responses.append(json.loads(handle.readline()))
                    return responses

            first = roundtrip([
                {"op": "compile", "source": SOURCE_ABC,
                 "options": {"num_training_instances": 25}, "id": 1},
            ])
            second = roundtrip([
                {"op": "compile", "source": SOURCE_ABC.replace("A", "X"),
                 "options": {"num_training_instances": 25}, "id": 2},
                {"op": "stats", "id": 3},
            ])
        assert first[0]["ok"] and second[0]["ok"]
        # Same structure from a different connection: same handle
        # (content address), served by the shared session cache.
        assert second[0]["handle"] == first[0]["handle"]
        assert second[1]["cache"]["hits"] >= 1
