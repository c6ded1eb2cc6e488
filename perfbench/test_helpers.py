"""Tests of the benchmark's own helpers.

Run from the repository root: ``python -m pytest perfbench -q``.
"""

from __future__ import annotations

import itertools
import json
import os
import socket
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from perfbench import workloads
from perfbench.load import failure_kind
from perfbench.stats import (
    Span,
    Tally,
    covered,
    percentile,
    self_times,
    slice_median,
    supports,
)
from repro.experiments.sampling import MATRIX_OPTIONS, shape_from_options
from repro.ir.features import Property, Structure
from repro.ir.parser import parse_chain


# -- percentiles ---------------------------------------------------------------

@pytest.mark.parametrize(
    "count, q, expected",
    [(1000, 99, True), (999, 99, False), (100, 90, True), (99, 90, False), (20, 50, True)],
)
def test_percentile_needs_ten_samples_beyond(count, q, expected):
    assert supports(count, q) is expected


def test_unsupported_percentile_is_not_reported():
    values = list(range(999))
    assert percentile(values, 99) is None
    assert percentile(values + [999], 99) == pytest.approx(np.percentile(range(1000), 99))
    assert percentile([], 50) is None
    assert percentile([4.0], 50) == 4.0


def test_figures_carry_sample_counts_and_only_supported_percentiles():
    from perfbench import run
    from perfbench.load import RunResult

    from perfbench.hostspeed import REFERENCE_S

    result = RunResult(
        setup_s=[1.0, 2.0, 3.0], setup_cpu_s=[0.5, 0.75, 1.0], server_rss_mb=80.0,
        window=(0.0, 10.0), server_cpu_s=5.0,
        calibration_s=[1.5 * REFERENCE_S, 2.5 * REFERENCE_S],
    )
    result.latencies_ms = [float(i % 50) for i in range(500)]
    result.done_at = [i / 50 for i in range(500)]
    for _ in range(500):
        result.tally.record("ok")
    figures = run.server_figures("exec_small_npy", result)
    assert figures["setup_s"] == (pytest.approx(0.375), "s", 3)
    assert figures["setup_wall_s"] == (2.0, "s", 3)
    assert figures["latency_p50_ms"][2] == 500
    assert figures["latency_p90_ms"][0] is not None  # 100 per slice
    assert figures["latency_p99_ms"][0] is None  # needs 1000 samples
    assert figures["throughput_rps"][0] == pytest.approx(50.0)
    assert figures["server_cpu_us_per_op"] == (pytest.approx(1e4), "us", 500)
    assert figures["host_slowdown"] == (pytest.approx(2.0), "ratio", 2)
    assert figures["server_cpu_ref_us_per_op"] == (pytest.approx(5e3), "us", 500)
    assert figures["failed_frac"] == (0.0, "fraction", 500)


def test_server_cpu_seconds_reads_the_process_cpu_time():
    from types import SimpleNamespace

    from perfbench.client import Server

    server = Server(Path("."))
    server.process = SimpleNamespace(pid=os.getpid())
    before = (server.cpu_seconds(), time.process_time())
    while time.process_time() < before[1] + 0.3:
        pass
    # /proc reports whole clock ticks; allow a few.
    used = time.process_time() - before[1]
    assert server.cpu_seconds() - before[0] == pytest.approx(used, abs=0.05)


def test_calibration_waits_until_no_request_is_in_flight():
    from types import SimpleNamespace

    from perfbench.load import _Window

    window = _Window(SimpleNamespace(cpu_seconds=lambda: 0.0), seconds=10.0)
    window.begin()
    calibrated = threading.Event()
    thread = threading.Thread(target=lambda: (window.calibrate_if_due(), calibrated.set()))
    thread.start()
    assert not calibrated.wait(0.2)
    assert window.calibrations == []
    window.end()
    assert calibrated.wait(10.0)
    thread.join()
    assert len(window.calibrations) == 1
    window.calibrate_if_due()  # the next one is INTERVAL_S away
    assert len(window.calibrations) == 1


def test_slice_median_ignores_a_slow_minority_of_slices():
    # 1 op/s for 10 s, except that slices 3 and 4 ran 3x slower.
    times = [t + 0.5 for t in range(10)]
    latencies = [3.0 if 4 <= t < 8 else 1.0 for t in range(10)]
    median = slice_median(times, latencies, 0.0, 10.0, lambda v, s: sum(v) / len(v))
    assert median == 1.0
    rate = slice_median(times, times, 0.0, 10.0, lambda v, s: len(v) / s)
    assert rate == pytest.approx(1.0)


def test_slice_median_is_none_when_a_slice_cannot_support_the_figure():
    times = [0.5, 1.5]
    assert slice_median(times, [1.0, 2.0], 0.0, 10.0, lambda v, s: percentile(v, 50)) is None


# -- failure accounting --------------------------------------------------------

def test_refusals_and_timeouts_count_as_failed():
    tally = Tally()
    for outcome in ["ok"] * 6 + ["refused", "timeout", "error", "wrong"]:
        tally.record(outcome)
    assert tally.attempted == 10
    assert tally.failed == 4


def test_failed_frac_counts_refusals_timeouts_and_leaked_segments():
    from perfbench import run
    from perfbench.load import RunResult

    result = RunResult(
        setup_s=[1.0], setup_cpu_s=[1.0], server_rss_mb=80.0, window=(0.0, 10.0), shm_leaked=1,
        calibration_s=[0.01],
    )
    for outcome in ["ok"] * 16 + ["refused", "timeout", "error", "wrong"]:
        result.tally.record(outcome)
    figures = run.server_figures("exec_large_shm", result)
    assert figures["failed_frac"] == (0.25, "fraction", 20)


def test_tally_rejects_unknown_outcomes():
    with pytest.raises(ValueError):
        Tally().record("slow")
    assert (Tally().attempted, Tally().failed) == (0, 0)


@pytest.mark.parametrize(
    "exc, kind",
    [
        (socket.timeout("timed out"), "timeout"),
        (TimeoutError(), "timeout"),
        (ConnectionRefusedError(), "refused"),
        (ConnectionResetError(), "refused"),
        (BrokenPipeError(), "refused"),
    ],
)
def test_transport_failures_are_classified(exc, kind):
    assert failure_kind(exc) == kind


# -- Fig. 2 source rendering ---------------------------------------------------

@pytest.mark.parametrize("option", range(len(MATRIX_OPTIONS)))
def test_rendered_source_round_trips_each_feature_option(option):
    chain = shape_from_options([0, option, 0])
    assert parse_chain(workloads.render_source(chain)) == chain


def test_rendered_source_round_trips_all_options_in_one_chain():
    chain = shape_from_options(list(range(len(MATRIX_OPTIONS))))
    assert parse_chain(workloads.render_source(chain)) == chain


# -- span self time ------------------------------------------------------------

def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span("root", 0.0, 10.0, None),
        Span("a", 1.0, 3.0, 0),
        Span("b", 2.0, 5.0, 0),  # overlaps a: the union is [1, 5]
        Span("c", 7.0, 8.0, 0),
        Span("a.inner", 1.5, 2.5, 1),
    ]
    assert self_times(spans) == pytest.approx([5.0, 1.0, 3.0, 1.0, 1.0])


def test_children_are_clipped_to_the_parent():
    assert covered([(-1.0, 2.0), (9.0, 12.0)], 0.0, 10.0) == pytest.approx(3.0)
    assert self_times([Span("leaf", 2.0, 2.5, None)]) == pytest.approx([0.5])


# -- generated inputs ----------------------------------------------------------

def test_stratified_sizes_cover_the_range_per_class():
    rng = np.random.default_rng(7)
    chain = shape_from_options([0, 2, 6, 0])
    sizes = workloads.stratified_sizes(chain, 8, 8, 64, rng)
    assert sizes.shape == (8, chain.n + 1)
    assert sizes.min() >= 8 and sizes.max() <= 64
    for row in sizes:
        chain.validate_sizes(row)  # square matrices get equal sizes
    width = (64 - 8 + 1) / 8
    for cls in chain.equivalence_classes():
        for stratum, value in enumerate(sorted(sizes[:, cls[0]])):
            assert 8 + np.floor(stratum * width) <= value <= 8 + np.floor((stratum + 1) * width)


@pytest.mark.parametrize(
    "structure, prop",
    [
        (Structure.LOWER_TRIANGULAR, Property.NON_SINGULAR),
        (Structure.UPPER_TRIANGULAR, Property.NON_SINGULAR),
        (Structure.GENERAL, Property.NON_SINGULAR),
        (Structure.SYMMETRIC, Property.SPD),
    ],
)
def test_operands_are_well_conditioned(structure, prop):
    n = 300
    matrix = workloads.well_conditioned_matrix(
        structure, prop, n, n, np.random.default_rng(0)
    )
    assert np.linalg.cond(matrix) < 1e3
    if structure.is_triangular:
        assert np.diag(matrix).min() >= np.sqrt(n)


def test_inputs_repeat_for_a_seed():
    first = workloads.make_handles(3, workloads.SMALL_SIZE_RANGE)
    again = workloads.make_handles(3, workloads.SMALL_SIZE_RANGE)
    assert [h.source for h in first] == [h.source for h in again]
    assert all(np.array_equal(a.sizes, b.sizes) for a, b in zip(first, again))
    large = workloads.make_handles(3, workloads.LARGE_SIZE_RANGE)
    assert [h.source for h in large] == [h.source for h in first]


def test_compile_rounds_send_fresh_sources_and_repeat_earlier_ones():
    rounds = list(itertools.islice(workloads.compile_rounds(0), 300))
    sources = [r.source for r in rounds]
    assert len(set(sources)) == len(sources)
    lengths = [r.chain.n for r in rounds[: len(workloads.COMPILE_LENGTHS)]]
    assert lengths == list(workloads.COMPILE_LENGTHS)
    repeats = [r for r in rounds if r.repeat_of is not None]
    assert 0.15 < len(repeats) / len(rounds) < 0.35
    assert all(
        r.index - workloads.REPEAT_WINDOW <= r.repeat_of < r.index for r in repeats
    )
    again = list(itertools.islice(workloads.compile_rounds(0), 300))
    assert [r.source for r in again] == sources


# -- the result line matches BENCHMARK.json -------------------------------------

def _declared():
    path = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    return json.loads(path.read_text())


def test_result_line_carries_the_declared_end_to_end_metrics():
    from perfbench import run

    declared = _declared()
    assert [m["name"] for m in declared["end_to_end"]] == list(run.RESULT_METRICS)
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOADS)


def test_traced_line_carries_the_declared_per_layer_metrics():
    from perfbench import layers, run

    figures = {"latency_p50_ms": (1.0, "ms", 1)}
    extra = {"compiler.cache_hit_ratio": 0.0, "runtime.memo_hit_ratio": 0.0}
    metrics = run.per_layer_metrics(figures, layers.TracedRun(), 0, extra, 0)
    declared = {m["name"]: m["unit"] for m in _declared()["per_layer"]}
    assert {name: unit for name, (_, unit) in metrics.items()} == declared
