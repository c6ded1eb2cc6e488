"""The fixed-format ``.npy`` codec: parity with numpy and hostile headers."""

import base64
import io
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from repro.serve import CompileService
from repro.serve.frontend import (
    array_to_npy_bytes,
    encode_array,
    handle_line,
    npy_bytes_to_array,
)

SOURCE_AB = (
    "Matrix A <General, Singular>; Matrix B <General, Singular>; R := A * B;"
)

wire_arrays = st.one_of(
    *(
        arrays(dtype, array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=9))
        for dtype in ("<f8", "<f4", "<i8")
    )
)
orders = st.sampled_from("CF")


def _np_save(array: np.ndarray) -> bytes:
    buffer = io.BytesIO()
    np.save(buffer, array, allow_pickle=False)
    return buffer.getvalue()


def _np_load(raw: bytes):
    """``np.load``'s verdict on ``raw``: the array, or ``None`` if refused."""
    try:
        return np.load(io.BytesIO(raw), allow_pickle=False)
    except Exception:
        return None


class TestNumpyParity:
    @settings(max_examples=200, deadline=None)
    @given(wire_arrays, orders)
    def test_encode_is_byte_identical_to_np_save(self, array, order):
        array = np.asarray(array, order=order)
        assert array_to_npy_bytes(array) == _np_save(array)

    @settings(max_examples=200, deadline=None)
    @given(wire_arrays, orders)
    def test_fast_decode_matches_np_load(self, array, order):
        raw = _np_save(np.asarray(array, order=order))
        loaded = np.load(io.BytesIO(raw), allow_pickle=False)
        # Canonical headers never reach numpy's (literal_eval) parser.
        with mock.patch.object(
            np.lib.format, "read_array_header_1_0", side_effect=AssertionError
        ):
            back = npy_bytes_to_array(raw)
        assert back.dtype == loaded.dtype
        assert back.shape == loaded.shape
        assert back.tobytes(order="A") == loaded.tobytes(order="A")
        assert back.flags.c_contiguous == loaded.flags.c_contiguous
        assert back.flags.f_contiguous == loaded.flags.f_contiguous
        assert not back.flags.writeable
        if back.size:
            assert np.shares_memory(back, np.frombuffer(raw, dtype=np.uint8))


# -- hostile and non-canonical headers ---------------------------------------

DATA = np.arange(12, dtype=np.float64).reshape(4, 3)
CANONICAL = "{'descr': '<f8', 'fortran_order': False, 'shape': (4, 3), }"


def _npy(header: str, data: bytes = DATA.tobytes(), version=(1, 0)) -> bytes:
    """A stream with ``header`` space-padded to numpy's 64-byte alignment."""
    width = 2 if version == (1, 0) else 4
    text = header.encode("latin-1")
    pad = 64 - (6 + 2 + width + len(text) + 1) % 64
    length = len(text) + pad + 1
    return b"".join((
        b"\x93NUMPY", bytes(version), length.to_bytes(width, "little"),
        text, b" " * pad, b"\n", data,
    ))


def _with_length(raw: bytes, length: int) -> bytes:
    return raw[:8] + length.to_bytes(2, "little") + raw[10:]


EMPTY = _npy(CANONICAL.replace("(4, 3)", "(0, 3)"), b"")

HOSTILE = {
    "canonical": _npy(CANONICAL),
    "v2_header": _npy(CANONICAL, version=(2, 0)),
    "reordered_keys": _npy(
        "{'shape': (4, 3), 'fortran_order': False, 'descr': '<f8', }"
    ),
    "extra_spaces": _npy(
        "{ 'descr' : '<f8' , 'fortran_order' : False , 'shape' : ( 4 , 3 ) }"
    ),
    "no_trailing_comma": _npy(
        "{'descr': '<f8', 'fortran_order': False, 'shape': (4, 3)}"
    ),
    "big_endian": _npy(CANONICAL.replace("<f8", ">f8"), DATA.astype(">f8").tobytes()),
    "object_descr": _npy(CANONICAL.replace("<f8", "|O")),
    "shape_past_payload": _npy(CANONICAL.replace("(4, 3)", "(40, 3)")),
    "truncated_payload": _npy(CANONICAL)[:-8],
    "truncated_header": _npy(CANONICAL)[:40],
    "magic_only": _npy(CANONICAL)[:9],
    "header_length_past_buffer": _with_length(_npy(CANONICAL), 60_000),
    "header_length_short": _with_length(_npy(CANONICAL), 20),
    "header_length_past_empty_payload": _with_length(EMPTY, len(EMPTY) - 10 + 8),
    "negative_dim": _npy(CANONICAL.replace("(4, 3)", "(-4, -3)")),
    "negative_inferred_dim": _npy(CANONICAL.replace("(4, 3)", "(-1, 3)")),
    "huge_dims": _npy(CANONICAL.replace("(4, 3)", "(4, 10000000000000000000000)")),
    "huge_zero_dims": _npy(
        CANONICAL.replace("(4, 3)", "(0, 100000000000000000000000000000)")
    ),
    "overflowing_dims": _npy(
        CANONICAL.replace("(4, 3)", "(4294967296, 4294967296)")
    ),
    "zero_padded_dim": _npy(CANONICAL.replace("(4, 3)", "(04, 3)")),
    "oversize_header": _npy(CANONICAL + " " * 10_100),
    "not_a_dict": _npy("[1, 2, 3]"),
    "bad_version": _npy(CANONICAL)[:6] + b"\x09\x00" + _npy(CANONICAL)[8:],
    "not_npy": b"PK\x03\x04" + DATA.tobytes(),
}


def _decoded(raw: bytes):
    try:
        return npy_bytes_to_array(raw)
    except Exception:
        return None


@pytest.mark.parametrize("name", sorted(HOSTILE))
def test_decode_outcome_matches_np_load(name):
    raw = HOSTILE[name]
    expected, got = _np_load(raw), _decoded(raw)
    assert (got is None) == (expected is None), (expected, got)
    if expected is not None:
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)


@pytest.fixture(scope="module")
def served():
    service = CompileService(workers=1, warm=False)
    compiled = json.loads(
        handle_line(service, json.dumps({"op": "compile", "source": SOURCE_AB}))
    )
    assert compiled["ok"], compiled
    yield service, compiled["handle"]
    service.close()


@pytest.mark.parametrize("name", sorted(HOSTILE))
def test_handle_line_outcome_matches_np_load(served, name):
    service, handle = served
    raw = HOSTILE[name]
    right = np.ones((3, 2))
    request = {
        "op": "execute",
        "handle": handle,
        "arrays": [
            {"encoding": "npy", "data": base64.b64encode(raw).decode("ascii")},
            encode_array(right),
        ],
        "result_encoding": "list",
        "id": name,
    }
    response = json.loads(handle_line(service, json.dumps(request)))
    assert response["id"] == name
    expected = _np_load(raw)
    if expected is None:
        assert response["ok"] is False
        assert "npy" in response["error"]
    else:
        assert response["ok"] is True, response
        np.testing.assert_allclose(response["result"], expected @ right)
    # Rejected or not, the server keeps answering.
    pong = json.loads(handle_line(service, '{"op": "ping", "id": 1}'))
    assert pong["ok"] is True
