"""Tests for compiled execution plans (repro.runtime.plan)."""

import itertools

import numpy as np
import pytest

from repro.errors import ExecutionError, ShapeError
from repro.ir.chain import Chain
from repro.compiler.selection import all_variants
from repro.kernels import reference
from repro.runtime import (
    KernelCallConfig,
    blas_available,
    cemit_available,
    compile_plan,
    execute_variant,
    naive_evaluate,
    random_instance_arrays,
)
from repro.runtime.executor import _stored_diag, _stored_lower, resolve_fixup

from conftest import (
    general_chain,
    make_general,
    random_option_chain,
    small_sizes_for,
)


def interpretive_execute(variant, arrays):
    """An independent interpretive executor: per step, one ``KERNEL_IMPLS``
    lookup, one :class:`KernelCallConfig` and ``("step", i)`` dict buffer
    addressing, then the fix-ups — no plan machinery involved."""
    values = {
        ("matrix", i): np.asarray(a, dtype=np.float64)
        for i, a in enumerate(arrays)
    }
    result = values[("matrix", 0)].copy()  # single-matrix chains
    for step in variant.steps:
        cfg = KernelCallConfig(
            side=step.side,
            left_trans=step.left_state.transposed,
            right_trans=step.right_state.transposed,
            left_lower=_stored_lower(step.left_state),
            right_lower=_stored_lower(step.right_state),
            left_diag=_stored_diag(step.left_state),
            right_diag=_stored_diag(step.right_state),
        )
        impl = reference.KERNEL_IMPLS[step.kernel.name]
        result = impl(values[step.left_ref], values[step.right_ref], cfg)
        values[("step", step.index)] = result
    for fix in variant.fixups:
        result = resolve_fixup(fix.kernel.name, variant.final_state)(result)
    return result


class TestPlanExecution:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_interpretive_executor_and_oracle(self, seed):
        """A plan replays exactly what an interpretive executor computes."""
        rng = np.random.default_rng(seed)
        chain = random_option_chain(int(rng.integers(2, 6)), rng)
        sizes = small_sizes_for(chain, rng)
        arrays = random_instance_arrays(chain, sizes, rng)
        expected = naive_evaluate(chain, arrays)
        scale = max(1.0, float(np.abs(expected).max()))
        for variant in all_variants(chain):
            plan = compile_plan(variant, sizes)
            got = plan.execute(arrays)
            # Bit-identical to the interpretive path: same kernels, same
            # order, same arrays.
            np.testing.assert_array_equal(
                got, interpretive_execute(variant, arrays)
            )
            np.testing.assert_array_equal(
                execute_variant(variant, arrays), got
            )
            np.testing.assert_allclose(
                got / scale, expected / scale, atol=1e-7
            )

    def test_replay_is_deterministic(self):
        rng = np.random.default_rng(42)
        chain = general_chain(4)
        sizes = (5, 6, 7, 8, 9)
        plan = compile_plan(all_variants(chain)[0], sizes)
        arrays = random_instance_arrays(chain, sizes, rng)
        first = plan.execute(arrays)
        for _ in range(3):
            np.testing.assert_array_equal(plan.execute(arrays), first)

    def test_single_matrix_chain(self):
        chain = Chain((make_general("A", invertible=True).inv,))
        [variant] = all_variants(chain)
        plan = compile_plan(variant, (4, 4))
        rng = np.random.default_rng(0)
        [a] = random_instance_arrays(chain, (4, 4), rng)
        np.testing.assert_allclose(plan.execute([a]) @ a, np.eye(4), atol=1e-8)

    def test_single_matrix_chain_never_aliases_input(self):
        """Regression: a no-op plan must return a copy, not the caller's
        array — mutating the result used to corrupt the operand."""
        chain = Chain((make_general("A").as_operand(),))
        [variant] = all_variants(chain)
        plan = compile_plan(variant, (3, 3))
        a = np.arange(9, dtype=np.float64).reshape(3, 3)
        original = a.copy()
        result = plan.execute([a])
        assert result is not a
        np.testing.assert_array_equal(result, original)
        result[0, 0] = 1e9
        np.testing.assert_array_equal(a, original)
        # Same contract for the one-shot execute_variant.
        result = execute_variant(variant, [a])
        assert result is not a
        result[0, 0] = -1e9
        np.testing.assert_array_equal(a, original)

    def test_plan_records_instance_metadata(self):
        chain = general_chain(3)
        variant = all_variants(chain)[0]
        plan = compile_plan(variant, (3, 4, 5, 6))
        assert plan.sizes == (3, 4, 5, 6)
        assert plan.expected_shapes == ((3, 4), (4, 5), (5, 6))
        assert plan.variant is variant
        assert "execution plan" in plan.describe()


class TestPlanValidation:
    def test_compile_rejects_invalid_sizes(self):
        chain = general_chain(3)
        with pytest.raises(ShapeError):
            compile_plan(all_variants(chain)[0], (3, 4))  # wrong length

    def test_execute_rejects_wrong_operand_count(self):
        chain = general_chain(3)
        plan = compile_plan(all_variants(chain)[0], (3, 4, 5, 6))
        with pytest.raises(ExecutionError, match="expected 3 arrays"):
            plan.execute([np.zeros((3, 4))])

    def test_check_shapes_catches_mismatch(self):
        chain = general_chain(2)
        plan = compile_plan(all_variants(chain)[0], (3, 4, 5))
        bad = [np.zeros((3, 4)), np.zeros((9, 5))]
        with pytest.raises(ExecutionError, match="stored shape"):
            plan.execute(bad, check_shapes=True)
        plan.validate([np.zeros((3, 4)), np.zeros((4, 5))])  # passes

    def test_callable_alias(self):
        rng = np.random.default_rng(1)
        chain = general_chain(2)
        sizes = (3, 4, 5)
        plan = compile_plan(all_variants(chain)[0], sizes)
        arrays = random_instance_arrays(chain, sizes, rng)
        np.testing.assert_array_equal(plan(arrays), plan.execute(arrays))


BACKENDS = [
    "reference",
    pytest.param(
        "blas",
        marks=pytest.mark.skipif(not blas_available(), reason="no scipy BLAS"),
    ),
    pytest.param(
        "c",
        marks=pytest.mark.skipif(
            not cemit_available(), reason="no C toolchain or BLAS capsules"
        ),
    ),
]


class TestReplayModes:
    """Every ``replay(values, arena, out, record)`` combination is one loop
    and computes one answer.  The seeds cover 1- to 5-matrix chains with
    transposes, inverses, and fix-up kernels."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("seed", range(12))
    def test_replay_mode_matrix(self, backend, seed):
        rng = np.random.default_rng(100 + seed)
        chain = random_option_chain(
            int(rng.integers(1, 6)), rng, allow_transpose=True
        )
        sizes = small_sizes_for(chain, rng)
        arrays = random_instance_arrays(chain, sizes, rng)
        expected = naive_evaluate(chain, arrays)
        scale = max(1.0, float(np.abs(expected).max()))

        def fresh():
            return [np.asarray(a, dtype=np.float64) for a in arrays]

        for variant in all_variants(chain)[:4]:
            plan = compile_plan(variant, sizes, backend=backend)
            values = fresh()
            plain = plan.replay(values)
            plan.record_buffer_shapes(values, plain)
            # A timed replay of a native plan runs the per-step lowering,
            # which matches the fused call only to rounding; every other
            # plan times the very loop it runs untimed.
            timed_plain = plan.replay(fresh(), record=[].append)
            if plan.backend != "c":
                np.testing.assert_array_equal(timed_plain, plain)
            for use_arena, use_out, timed in itertools.product(
                (False, True), repeat=3
            ):
                arena = plan.new_arena() if use_arena else None
                out = np.empty_like(plain) if use_out else None
                durations: list[float] = []
                record = durations.append if timed else None
                got = plan.replay(fresh(), arena, out, record)
                mode = (backend, variant.name, use_arena, use_out, timed)
                np.testing.assert_array_equal(
                    got, timed_plain if timed else plain, err_msg=str(mode)
                )
                np.testing.assert_allclose(
                    got / scale, expected / scale, atol=1e-7, err_msg=str(mode)
                )
                assert len(durations) == (len(variant.steps) if timed else 0)
                if use_out:
                    assert got is out, mode
                owned = list(arrays)
                if arena is not None:
                    owned += [b for b in arena.buffers if b is not None]
                assert not any(np.shares_memory(got, a) for a in owned), mode
