"""Observability overhead on the runtime hot path.

The ``repro.obs`` layer instruments ``Dispatcher.run``: disabled, the
only additions over the pre-obs path are one module-flag read and one
cached histogram observe of the already-measured elapsed time; enabled,
every kernel call is individually timed into per-``(kernel, routine)``
histograms and the call is stamped with a ``runtime.run`` leaf span.

The **pre-obs baseline**, reconstructed here from the pre-obs ``run``
body, is the same memoized dispatch (the very ``_select_entry`` /
``_entry_plan`` calls ``run`` makes) + plan replay with no flag check and
no histogram feed.  The acceptance test bounds the overhead
ratios: disabled tracing within ``DISABLED_BUDGET`` of the baseline, a
fully enabled run within ``ENABLED_BUDGET``.  It does so for two call
shapes: the default ``run(arrays)``, and the serving shape
``run(arrays, reuse_buffers=True)``, whose baseline replays on one
pre-built :class:`~repro.runtime.plan.PlanArena` (tracing replays on the
pooled arenas too, so it times the loop that serving runs).

Measurement notes, learned the hard way: the three modes are interleaved
*per call* (frequency/thermal drift hits all three equally), compared on
per-call **medians** (one interrupt cannot poison a mean), with the GC
paused (collection pauses land on random calls).  The workload uses
serving-realistic instance sizes — on toy 4x4 operands the kernel work
is a few µs and any ratio measures the bookkeeping against itself.
"""

import gc
import statistics
import time

import numpy as np
import pytest

from repro.compiler.selection import essential_set
from repro.experiments.sampling import sample_instances
from repro.ir.chain import Chain
from repro.ir.features import Property, Structure
from repro.ir.matrix import Matrix
from repro.ir.operand import Operand
from repro.obs import trace as obs_trace
from repro.runtime import Dispatcher, DispatchOutcome, random_instance_arrays

from conftest import emit

#: CI acceptance bounds on warm dispatch+execute, as overhead ratios.
DISABLED_BUDGET = 1.03  # tracing off: within 3% of the pre-obs baseline
ENABLED_BUDGET = 1.15  # tracing fully on: within 15%

#: Interleaved calls per mode for the acceptance medians.
REPS = 300


def _general_chain(n: int) -> Chain:
    return Chain(
        tuple(
            Operand(Matrix(f"M{i}", Structure.GENERAL, Property.SINGULAR))
            for i in range(n)
        )
    )


def _setup(n: int, rng, low=64, high=160):
    """A warm dispatcher on a serving-realistic instance."""
    chain = _general_chain(n)
    train = sample_instances(chain, 300, rng)
    variants = essential_set(chain, training_instances=train)
    sizes = tuple(
        int(x) for x in sample_instances(chain, 1, rng, low=low, high=high)[0]
    )
    arrays = random_instance_arrays(chain, sizes, rng)
    dispatcher = Dispatcher(chain, variants)
    dispatcher(*arrays)  # compile + memoize the plan outside any timing
    return dispatcher, arrays


def _baseline_call(dispatcher, arrays, arena=None):
    """One warm request as the pre-obs ``run`` paid it: memoized dispatch
    through the same ``_select_entry`` / ``_entry_plan`` calls ``run``
    makes, plan replay, outcome counters — no flag read, no histogram
    feed.  (Going through ``plan_for`` instead would add a call and a
    per-request size-tuple rebuild that ``run`` does not pay, and so hide
    part of the budget.)  ``arena`` is the serving shape's pre-built
    intermediate-buffer arena."""
    values = [np.asarray(a, dtype=np.float64) for a in arrays]
    sizes = dispatcher._infer.infer(values)
    entry = dispatcher._select_entry(sizes)
    plan = dispatcher._entry_plan(entry, sizes)
    variant, cost = entry.variant, entry.cost
    start = time.perf_counter()
    result = plan.replay(values, arena)
    elapsed = time.perf_counter() - start
    with dispatcher._memo_lock:
        dispatcher.backend_executions[plan.backend] = (
            dispatcher.backend_executions.get(plan.backend, 0) + 1
        )
        dispatcher.last_execute_seconds = elapsed
        dispatcher.last_execute_at = time.monotonic()
    return DispatchOutcome(sizes, variant, cost, result)


def _prebuilt_arena(dispatcher, arrays):
    """The warm plan's arena, built outside the baseline's timed calls."""
    values = [np.asarray(a, dtype=np.float64) for a in arrays]
    _, _, plan = dispatcher.plan_for(dispatcher._infer.infer(values))
    plan.record_buffer_shapes(values, plan.replay(values))
    arena = plan.new_arena()
    assert arena is not None, "the workload must have arena-backed steps"
    return arena


def _traced(fn):
    """``fn`` wrapped to run with tracing enabled."""

    def call():
        obs_trace.enable()
        try:
            return fn()
        finally:
            obs_trace.disable()

    return call


def _interleaved_medians(fns: dict[str, object]) -> dict[str, float]:
    """Per-function median call time over per-call interleaved rounds."""
    for fn in fns.values():
        fn()  # warm lazy state (plans, cached observers) untimed
    samples: dict[str, list[float]] = {name: [] for name in fns}
    gc.collect()
    gc.disable()
    try:
        for _ in range(REPS):
            for name, fn in fns.items():
                start = time.perf_counter()
                fn()
                samples[name].append(time.perf_counter() - start)
    finally:
        gc.enable()
    return {name: statistics.median(times) for name, times in samples.items()}


def test_obs_overhead_acceptance(benchmark):
    """CI bound: disabled tracing <= 3% over the pre-obs path, enabled <= 15%,
    for both the default and the ``reuse_buffers`` call shape."""
    assert not obs_trace.enabled()
    rng = np.random.default_rng(2026)
    rows = []
    worst_disabled = worst_enabled = 0.0
    for n in (10, 12):
        dispatcher, arrays = _setup(n, rng)
        arena = _prebuilt_arena(dispatcher, arrays)
        shapes = {
            "run": (
                lambda: _baseline_call(dispatcher, arrays),
                lambda: dispatcher.run(arrays),
            ),
            "reuse": (
                lambda: _baseline_call(dispatcher, arrays, arena),
                lambda: dispatcher.run(arrays, reuse_buffers=True),
            ),
        }
        fns = {}
        for shape, (baseline, run) in shapes.items():
            fns[f"{shape}/baseline"] = baseline
            fns[f"{shape}/disabled"] = run
            fns[f"{shape}/enabled"] = _traced(run)
        timed = _interleaved_medians(fns)
        obs_trace.drain()  # drop the spans the enabled calls buffered
        for shape in shapes:
            base = timed[f"{shape}/baseline"]
            ratio_disabled = timed[f"{shape}/disabled"] / base
            ratio_enabled = timed[f"{shape}/enabled"] / base
            worst_disabled = max(worst_disabled, ratio_disabled)
            worst_enabled = max(worst_enabled, ratio_enabled)
            rows.append(
                f"n={n} {shape:5s}: baseline {base * 1e6:7.1f} us/call, "
                f"disabled {ratio_disabled:.3f}x, enabled {ratio_enabled:.3f}x"
            )
    emit("Observability overhead: warm dispatch+execute", "\n".join(rows))
    benchmark.extra_info["worst_disabled_ratio"] = round(worst_disabled, 4)
    benchmark.extra_info["worst_enabled_ratio"] = round(worst_enabled, 4)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    assert worst_disabled <= DISABLED_BUDGET, (
        f"disabled tracing costs {worst_disabled:.3f}x the pre-obs baseline "
        f"(budget {DISABLED_BUDGET}x):\n" + "\n".join(rows)
    )
    assert worst_enabled <= ENABLED_BUDGET, (
        f"enabled tracing costs {worst_enabled:.3f}x the pre-obs baseline "
        f"(budget {ENABLED_BUDGET}x):\n" + "\n".join(rows)
    )


@pytest.mark.parametrize("mode", ["baseline", "disabled", "enabled"])
def test_dispatch_execute_by_mode(benchmark, mode):
    """Timed: the warm per-call path under each observability mode."""
    rng = np.random.default_rng(8)
    dispatcher, arrays = _setup(10, rng)
    if mode == "baseline":
        benchmark(lambda: _baseline_call(dispatcher, arrays))
    elif mode == "disabled":
        benchmark(lambda: dispatcher.run(arrays))
    else:
        obs_trace.enable()
        try:
            dispatcher.run(arrays)  # build cached kernel observers untimed
            benchmark(lambda: dispatcher.run(arrays))
        finally:
            obs_trace.disable()
            obs_trace.drain()
    benchmark.extra_info["mode"] = mode
