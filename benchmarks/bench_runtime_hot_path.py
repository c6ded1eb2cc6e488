"""Runtime hot path: memoized dispatch+execute vs the pre-refactor path.

PR 5 turned the per-request path into a real runtime (`repro.runtime`):
an `ExecutionPlan` compiled once per `(variant, sizes)` — kernel impls
resolved, call configs baked in, buffer refs flattened to slots — behind
a size-keyed dispatch memo, with sizes inferred (and shapes validated)
exactly once per call.

The **pre-refactor path**, reconstructed faithfully here, paid per call:
a full cost-matrix sweep with per-row instance validation, then the
interpretive executor (rebuilt in this file as ``_interpretive_execute``,
since the library's ``execute_variant`` now replays a compiled plan): a
second ``infer_sizes`` plus a stored-shape check, per-step kernel dict
lookups and ``KernelCallConfig`` construction, and ``("step", i)`` dict
buffer addressing.

The acceptance test asserts the memoized runtime answers repeated
same-size dispatch+execute requests >= 5x faster (bit-identical results);
CI runs it on every push alongside the timed benchmarks.
"""

import time

import numpy as np
import pytest

from repro.compiler.selection import essential_set
from repro.errors import ExecutionError
from repro.experiments.sampling import sample_instances, sample_shapes
from repro.ir.chain import Chain
from repro.ir.features import Property, Structure
from repro.ir.matrix import Matrix
from repro.ir.operand import Operand
from repro.kernels import reference
from repro.runtime import (
    Dispatcher,
    KernelCallConfig,
    expected_stored_shapes,
    infer_sizes,
    random_instance_arrays,
)
from repro.runtime.executor import _stored_diag, _stored_lower, resolve_fixup

from conftest import emit

#: The CI acceptance bound on repeated same-size dispatch+execute.
REQUIRED_SPEEDUP = 5.0


def _general_chain(n: int) -> Chain:
    return Chain(
        tuple(
            Operand(Matrix(f"M{i}", Structure.GENERAL, Property.SINGULAR))
            for i in range(n)
        )
    )


def _setup(chain, rng, low=4, high=16):
    train = sample_instances(chain, 300, rng)
    variants = essential_set(chain, training_instances=train)
    sizes = tuple(int(x) for x in sample_instances(chain, 1, rng, low=low, high=high)[0])
    arrays = random_instance_arrays(chain, sizes, rng)
    return variants, sizes, arrays


def _interpretive_execute(variant, arrays):
    """The pre-plan interpretive executor, verbatim: re-infer and re-check
    the stored shapes, then per step one ``KERNEL_IMPLS`` lookup, one
    ``KernelCallConfig`` and ``("step", i)`` dict buffer addressing."""
    arrays = [np.asarray(a, dtype=np.float64) for a in arrays]
    sizes = infer_sizes(variant.chain, arrays)
    expected = expected_stored_shapes(variant.chain, sizes)
    for i, (array, shape) in enumerate(zip(arrays, expected)):
        if array.shape != shape:
            raise ExecutionError(
                f"operand {i}: expected stored shape {shape}, got {array.shape}"
            )
    values = {("matrix", i): array for i, array in enumerate(arrays)}
    result = None
    for step in variant.steps:
        impl = reference.KERNEL_IMPLS.get(step.kernel.name)
        if impl is None:
            raise ExecutionError(f"no implementation for kernel {step.kernel.name}")
        cfg = KernelCallConfig(
            side=step.side,
            left_trans=step.left_state.transposed,
            right_trans=step.right_state.transposed,
            left_lower=_stored_lower(step.left_state),
            right_lower=_stored_lower(step.right_state),
            left_diag=_stored_diag(step.left_state),
            right_diag=_stored_diag(step.right_state),
        )
        result = impl(values[step.left_ref], values[step.right_ref], cfg)
        values[("step", step.index)] = result
    if result is None:  # single-matrix chain: fix-ups do all the work
        result = arrays[0]
        if not variant.fixups:
            return result.copy()
    for fix in variant.fixups:
        result = resolve_fixup(fix.kernel.name, variant.final_state)(result)
    return result


def _pre_refactor_call(chain, dispatcher, arrays):
    """One request exactly as the pre-runtime Dispatcher.__call__ paid it.

    ``dispatcher`` must have ``memo_capacity=0`` so ``select`` performs the
    historical full sweep (with per-row validation); the interpretive
    executor then re-infers and re-validates, which is the double size
    inference the memoized runtime removed.
    """
    sizes = infer_sizes(chain, [np.asarray(a) for a in arrays])
    variant, _ = dispatcher.select(sizes)
    return _interpretive_execute(variant, list(arrays))


def _measure(fn, reps: int) -> float:
    fn()  # warm any lazy state outside the timed window
    start = time.perf_counter()
    for _ in range(reps):
        fn()
    return (time.perf_counter() - start) / reps


def test_repeated_dispatch_acceptance(benchmark):
    """CI bound: the warm runtime is >= 5x the pre-refactor per-call path."""
    rng = np.random.default_rng(2026)
    rows = []
    worst = float("inf")
    for n in (8, 10):
        chain = _general_chain(n)
        variants, sizes, arrays = _setup(chain, rng)
        runtime = Dispatcher(chain, variants)
        legacy = Dispatcher(chain, variants, memo_capacity=0)
        # Identical answers before timing anything.
        np.testing.assert_array_equal(
            runtime(*arrays), _pre_refactor_call(chain, legacy, arrays)
        )
        reps = 300
        t_old = _measure(
            lambda: _pre_refactor_call(chain, legacy, arrays), reps
        )
        t_new = _measure(lambda: runtime(*arrays), reps)
        speedup = t_old / t_new
        worst = min(worst, speedup)
        rows.append(
            f"n={n:2d}: {len(variants):2d} variants, "
            f"pre-refactor {t_old * 1e6:8.1f} us/call, "
            f"runtime {t_new * 1e6:8.1f} us/call, {speedup:5.1f}x"
        )
    emit("Runtime hot path: repeated same-size dispatch+execute", "\n".join(rows))
    benchmark.extra_info["worst_speedup"] = round(worst, 2)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    assert worst >= REQUIRED_SPEEDUP, (
        f"memoized runtime is only {worst:.1f}x the pre-refactor path "
        f"(required >= {REQUIRED_SPEEDUP}x):\n" + "\n".join(rows)
    )


@pytest.mark.parametrize("n", [5, 8, 10])
def test_warm_dispatch_execute(benchmark, n):
    """Timed: the steady-state per-call path (memo hit + plan replay)."""
    rng = np.random.default_rng(n)
    chain = _general_chain(n)
    variants, sizes, arrays = _setup(chain, rng)
    dispatcher = Dispatcher(chain, variants)
    dispatcher(*arrays)  # compile the plan
    benchmark(dispatcher, *arrays)
    benchmark.extra_info["variants"] = len(variants)
    benchmark.extra_info["memo"] = dispatcher.memo_stats()


@pytest.mark.parametrize("n", [5, 8, 10])
def test_pre_refactor_dispatch_execute(benchmark, n):
    """Timed: the reconstructed per-call path the refactor replaced."""
    rng = np.random.default_rng(n)
    chain = _general_chain(n)
    variants, sizes, arrays = _setup(chain, rng)
    dispatcher = Dispatcher(chain, variants, memo_capacity=0)
    benchmark(lambda: _pre_refactor_call(chain, dispatcher, arrays))
    benchmark.extra_info["variants"] = len(variants)


def test_execute_many_batched(benchmark):
    """Timed: batched execution shares one sweep across distinct sizes."""
    rng = np.random.default_rng(7)
    chain = sample_shapes(6, 1, rng, rectangular_probability=0.5)[0]
    train = sample_instances(chain, 300, rng)
    variants = essential_set(chain, training_instances=train)
    dispatcher = Dispatcher(chain, variants)
    batches = []
    for q in sample_instances(chain, 16, rng, low=4, high=16):
        batches.append(
            random_instance_arrays(chain, tuple(int(x) for x in q), rng)
        )
    benchmark(dispatcher.execute_many, batches)
    benchmark.extra_info["instances"] = len(batches)
    benchmark.extra_info["memo"] = dispatcher.memo_stats()
