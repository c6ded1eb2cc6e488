"""Seeded inputs of the three workloads.

Everything the server receives is generated here from the ``--seed``
argument: chain shapes over the ten feature options of Section VII,
rendered as Fig. 2 source text, size pools, and the operands of every
``execute`` request.  The same seed gives
the same inputs, byte for byte.
"""

from __future__ import annotations

import base64
import io
import json
from dataclasses import dataclass, field
from typing import Iterator, Optional

import numpy as np

from repro.experiments.sampling import (
    MATRIX_OPTIONS,
    RECTANGULAR_OPTION,
    sample_instances,
    sample_shapes,
    shape_from_options,
)
from repro.ir.chain import Chain
from repro.ir.features import Property, Structure

#: Compiled handles of the two execute workloads: two chains each of 4, 5
#: and 6 matrices, so every seed sees the same mix of lengths and the
#: kernel work per request varies less from seed to seed.
HANDLE_LENGTHS = (4, 4, 5, 5, 6, 6)
SIZES_PER_HANDLE = 8
SMALL_SIZE_RANGE = (8, 64)
LARGE_SIZE_RANGE = (200, 500)

#: Chain lengths of the fresh compiles on ``compile_dispatch``, cycled in
#: this order.  Compile time grows ~3x per added matrix, so with a uniform
#: mix the median would sit on the 5/6 boundary and jump between them
#: with the seed; this weighting puts the median inside the 6-matrix class
#: and the 90th percentile inside the 8-matrix class.
COMPILE_LENGTHS = (3, 4, 5, 6, 6, 7, 8, 8)
DISPATCHES_PER_COMPILE = 10
DISPATCH_SIZE_RANGE = (2, 1000)
#: Share of rounds that also re-send an earlier source (a cache hit).
REPEAT_PROBABILITY = 0.25
#: Repeats pick among this many most recent sources, well inside the
#: server's default 256-entry compile cache, so every repeat is a hit.
REPEAT_WINDOW = 200
#: Rounds whose dispatches feed the selection-quality metrics: a fixed
#: prefix, so the quality figures repeat exactly for a seed however many
#: rounds fit in the measured time.
QUALITY_ROUNDS = 100


def render_source(chain: Chain) -> str:
    """``chain`` as a Fig. 2 program: one definition per matrix, one chain."""
    definitions = "".join(
        f"Matrix {operand.matrix.name} <{operand.matrix.structure.value}, "
        f"{operand.matrix.prop.value}>;\n"
        for operand in chain
    )
    body = " * ".join(str(operand) for operand in chain)
    return f"{definitions}X := {body};"


def stratified_sizes(
    chain: Chain, count: int, low: int, high: int, rng: np.random.Generator
) -> np.ndarray:
    """``count`` size vectors, each size uniform on ``[low, high]``.

    One size is drawn per size-symbol equivalence class (as
    :func:`~repro.experiments.sampling.sample_instances` does), but the
    ``count`` draws of a class fall one into each of ``count`` equal strata
    of the range, in a random order per class.  The marginal stays uniform
    while a handle's size pool always spans the whole range, so the
    request mix varies less between seeds.
    """
    sizes = np.empty((count, chain.n + 1), dtype=np.int64)
    width = (high - low + 1) / count
    for cls in chain.equivalence_classes():
        strata = rng.permutation(count)
        draws = low + np.floor((strata + rng.random(count)) * width)
        draws = np.minimum(draws, high).astype(np.int64)
        for index in cls:
            sizes[:, index] = draws
    return sizes


def well_conditioned_matrix(
    structure: Structure,
    prop: Property,
    rows: int,
    cols: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """A random matrix with the given features and a small condition number.

    Triangular matrices get a diagonal of at least ``2 sqrt(n)``: with the
    unit-scale diagonal of ``repro.runtime.executor.random_matrix``, a
    300x300 triangular factor reaches condition numbers near 1e17 and any
    variant that solves with it disagrees with the oracle.
    """
    a = rng.standard_normal((rows, cols))
    if structure is Structure.GENERAL and prop is Property.SINGULAR:
        return a
    if rows != cols:
        raise ValueError(f"{structure.value} matrices are square, got {rows}x{cols}")
    n = rows
    root = np.sqrt(n)
    if prop is Property.SPD:
        return a @ a.T / n + np.eye(n)
    if structure.is_triangular:
        t = np.tril(a) if structure is Structure.LOWER_TRIANGULAR else np.triu(a)
        t[np.arange(n), np.arange(n)] = 2.0 * root + np.abs(np.diag(a))
        return t
    if structure is Structure.SYMMETRIC:
        return (a + a.T) / 2.0 + 3.0 * root * np.eye(n)
    # General non-singular: the shift clears the spectral norm (~2 sqrt(n))
    # of the Gaussian part, so the smallest singular value stays ~sqrt(n).
    return a + 3.0 * root * np.eye(n)


def make_operands(
    chain: Chain, sizes, rng: np.random.Generator
) -> list[np.ndarray]:
    """One stored (base) array per chain operand for the instance ``sizes``."""
    arrays = []
    for i, operand in enumerate(chain):
        rows, cols = int(sizes[i]), int(sizes[i + 1])
        if operand.transposed:
            rows, cols = cols, rows
        arrays.append(
            well_conditioned_matrix(
                operand.matrix.structure, operand.matrix.prop, rows, cols, rng
            )
        )
    return arrays


def npy_payload(array: np.ndarray) -> dict:
    """The wire's ``npy`` operand encoding, written with ``numpy.save``."""
    buffer = io.BytesIO()
    np.save(buffer, np.ascontiguousarray(array), allow_pickle=False)
    return {
        "encoding": "npy",
        "data": base64.b64encode(buffer.getvalue()).decode("ascii"),
    }


def npy_result(payload: dict) -> np.ndarray:
    """Decode an ``npy`` result payload with ``numpy.load``."""
    raw = base64.b64decode(payload["data"], validate=True)
    return np.load(io.BytesIO(raw), allow_pickle=False)


def request_line(payload: dict) -> bytes:
    """One JSON-lines request, newline-terminated."""
    return json.dumps(payload, separators=(",", ":")).encode() + b"\n"


def compile_line(source: str, request_id: int, artifact: bool = False) -> bytes:
    payload: dict = {"op": "compile", "source": source, "id": request_id}
    if artifact:
        payload["artifact"] = True
    return request_line(payload)


def balanced_shapes(lengths, rng: np.random.Generator) -> list[Chain]:
    """Chains over the ten feature options with the same option mix for
    every seed.

    :func:`~repro.experiments.sampling.sample_shapes` (rectangular
    probability 0.5) draws every slot independently, so six chains can be
    mostly inverses one seed and mostly products the next, and the kernel
    time of ``exec_large_shm`` follows.  Here exactly half the slots
    (rounded down) hold the rectangular-capable option, placed at random
    with at least one per chain, and the other slots walk through seeded
    permutations of the nine square options: per slot the same
    distribution, with the seed-to-seed spread of the mix removed.
    """
    total = sum(lengths)
    rectangular = np.zeros(total, dtype=bool)
    rectangular[: total // 2] = True
    while True:
        rng.shuffle(rectangular)
        groups = np.split(rectangular, np.cumsum(lengths)[:-1])
        if all(group.any() for group in groups):
            break
    square = [i for i in range(len(MATRIX_OPTIONS)) if i != RECTANGULAR_OPTION]
    cycle: list[int] = []
    shapes = []
    for group in groups:
        options = []
        for is_rectangular in group:
            if is_rectangular:
                options.append(RECTANGULAR_OPTION)
                continue
            if not cycle:
                cycle = [square[i] for i in rng.permutation(len(square))]
            options.append(cycle.pop())
        shapes.append(shape_from_options(options))
    return shapes


@dataclass
class Handle:
    """One compiled chain of the execute workloads and its size pool."""

    source: str
    chain: Chain
    sizes: np.ndarray  # (SIZES_PER_HANDLE, n + 1)
    key: str = ""  # the server's handle, known after compilation


def make_handles(seed: int, size_range: tuple[int, int]) -> list[Handle]:
    """The execute workloads' handles.

    Chain shapes depend on the seed only, so both execute workloads
    compile the same handles; the size pools depend on the range too.
    """
    shape_rng = np.random.default_rng([seed, 0])
    size_rng = np.random.default_rng([seed, 1, *size_range])
    while True:
        chains = balanced_shapes(HANDLE_LENGTHS, shape_rng)
        sources = [render_source(chain) for chain in chains]
        if len(set(sources)) == len(sources):
            break
    return [
        Handle(
            source,
            chain,
            stratified_sizes(chain, SIZES_PER_HANDLE, *size_range, size_rng),
        )
        for source, chain in zip(sources, chains)
    ]


@dataclass
class Round:
    """One round of ``compile_dispatch``: a fresh compile, its dispatches,
    and possibly a repeat of an earlier source."""

    index: int
    source: str
    chain: Chain
    dispatch_sizes: np.ndarray  # (DISPATCHES_PER_COMPILE, n + 1)
    repeat_of: Optional[int] = None  # round whose source is re-sent
    handle: str = ""
    artifact: object = field(default=None, repr=False)


def compile_rounds(seed: int) -> Iterator[Round]:
    """The endless, seeded round sequence of ``compile_dispatch``.

    Every round compiles a source never sent before in the run, so the
    server's compile cache misses; its dispatch size vectors are fresh
    draws, so the dispatcher's memo misses too.  Each cycle of
    ``COMPILE_LENGTHS`` rounds draws its shapes with
    :func:`balanced_shapes`, so every cycle has the same option mix and
    the compile work per round varies less between seeds (a source seen
    before is redrawn with ``sample_shapes``).
    """
    rng = np.random.default_rng([seed, 2])
    seen: set[str] = set()
    index = 0
    block: list[Chain] = []
    while True:
        length = COMPILE_LENGTHS[index % len(COMPILE_LENGTHS)]
        if not block:
            block = balanced_shapes(COMPILE_LENGTHS, rng)
        chain = block.pop(0)
        source = render_source(chain)
        while source in seen:
            chain = sample_shapes(length, 1, rng)[0]
            source = render_source(chain)
        seen.add(source)
        sizes = sample_instances(
            chain, DISPATCHES_PER_COMPILE, rng, *DISPATCH_SIZE_RANGE
        )
        repeat_of = None
        if index and rng.random() < REPEAT_PROBABILITY:
            repeat_of = int(rng.integers(max(0, index - REPEAT_WINDOW), index))
        yield Round(index, source, chain, sizes, repeat_of)
        index += 1
