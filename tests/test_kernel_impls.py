"""Configuration-level tests for the executor's kernel dispatch layer.

``repro.kernels.reference.KERNEL_IMPLS`` is the uniform interface the
variant executor drives: every entry takes the *stored* left/right arrays
plus a resolved call configuration (side, transposition flags, stored
triangularity).  These tests sweep the configuration space per kernel
family and check each call against dense NumPy evaluation of the logical
operation.
"""

import numpy as np
import pytest

from repro.runtime import KernelCallConfig
from repro.kernels.reference import KERNEL_IMPLS

RNG = np.random.default_rng(42)


def _cfg(side="left", lt=False, rt=False, ll=None, rl=None):
    return KernelCallConfig(
        side=side, left_trans=lt, right_trans=rt, left_lower=ll, right_lower=rl
    )


def _sym(n):
    a = RNG.standard_normal((n, n))
    return (a + a.T) / 2 + np.eye(n) * n


def _spd(n):
    a = RNG.standard_normal((n, n))
    return a @ a.T / np.sqrt(n) + np.eye(n)


def _low(n):
    t = np.tril(RNG.standard_normal((n, n)))
    t[np.diag_indices(n)] = np.abs(np.diag(t)) + 1
    return t


def _gen(m, n):
    return RNG.standard_normal((m, n))


def _gen_inv(n):
    return RNG.standard_normal((n, n)) + np.eye(n) * np.sqrt(n)


def _diag(n):
    return np.diag(np.abs(RNG.standard_normal(n)) + 1.0)


def _op(a, trans):
    return a.T if trans else a


class TestProductImpls:
    @pytest.mark.parametrize("kernel", ["GEMM", "SYMM", "TRMM", "SYSYMM",
                                        "TRSYMM", "TRTRMM", "DIMM", "DIDIMM"])
    @pytest.mark.parametrize("lt", [False, True])
    @pytest.mark.parametrize("rt", [False, True])
    def test_product_with_transpositions(self, kernel, lt, rt):
        # All product implementations reduce to op(A) @ op(B) on the full
        # dense storage, whatever the declared structures.
        a = _gen(4, 4)
        b = _gen(4, 4)
        impl = KERNEL_IMPLS[kernel]
        got = impl(a, b, _cfg(lt=lt, rt=rt))
        np.testing.assert_allclose(got, _op(a, lt) @ _op(b, rt))

    def test_rectangular_product(self):
        a, b = _gen(3, 5), _gen(5, 7)
        np.testing.assert_allclose(
            KERNEL_IMPLS["GEMM"](a, b, _cfg()), a @ b
        )


class TestGeneralSolveImpls:
    @pytest.mark.parametrize("kernel", ["GEGESV", "GESYSV", "GETRSV"])
    def test_coefficient_left(self, kernel):
        coeff, rhs = _gen_inv(5), _gen(5, 3)
        got = KERNEL_IMPLS[kernel](coeff, rhs, _cfg(side="left"))
        np.testing.assert_allclose(coeff @ got, rhs, atol=1e-9)

    @pytest.mark.parametrize("kernel", ["GEGESV"])
    def test_coefficient_right(self, kernel):
        rhs, coeff = _gen(3, 5), _gen_inv(5)
        got = KERNEL_IMPLS[kernel](rhs, coeff, _cfg(side="right"))
        np.testing.assert_allclose(got @ coeff, rhs, atol=1e-9)

    def test_transposed_coefficient_left(self):
        coeff, rhs = _gen_inv(5), _gen(5, 3)
        got = KERNEL_IMPLS["GEGESV"](coeff, rhs, _cfg(side="left", lt=True))
        np.testing.assert_allclose(coeff.T @ got, rhs, atol=1e-9)

    def test_transposed_coefficient_right(self):
        rhs, coeff = _gen(3, 5), _gen_inv(5)
        got = KERNEL_IMPLS["GEGESV"](rhs, coeff, _cfg(side="right", rt=True))
        np.testing.assert_allclose(got @ coeff.T, rhs, atol=1e-9)


class TestStructuredSolveImpls:
    def test_symmetric_left_and_right(self):
        s = _sym(5)
        rhs = _gen(5, 4)
        got = KERNEL_IMPLS["SYGESV"](s, rhs, _cfg(side="left"))
        np.testing.assert_allclose(s @ got, rhs, atol=1e-8)
        rhs_r = _gen(4, 5)
        got = KERNEL_IMPLS["SYGESV"](rhs_r, s, _cfg(side="right"))
        np.testing.assert_allclose(got @ s, rhs_r, atol=1e-8)

    def test_spd_left_and_right(self):
        p = _spd(5)
        rhs = _gen(5, 4)
        got = KERNEL_IMPLS["POGESV"](p, rhs, _cfg(side="left"))
        np.testing.assert_allclose(p @ got, rhs, atol=1e-8)
        rhs_r = _gen(4, 5)
        got = KERNEL_IMPLS["POGESV"](rhs_r, p, _cfg(side="right"))
        np.testing.assert_allclose(got @ p, rhs_r, atol=1e-8)

    @pytest.mark.parametrize("stored_lower", [True, False])
    def test_triangular_sides_and_storage(self, stored_lower):
        low = _low(5)
        stored = low if stored_lower else low.T.copy()
        rhs = _gen(5, 4)
        got = KERNEL_IMPLS["TRSM"](
            stored, rhs, _cfg(side="left", ll=stored_lower)
        )
        np.testing.assert_allclose(stored @ got, rhs, atol=1e-9)
        rhs_r = _gen(4, 5)
        got = KERNEL_IMPLS["TRSM"](
            rhs_r, stored, _cfg(side="right", rl=stored_lower)
        )
        np.testing.assert_allclose(got @ stored, rhs_r, atol=1e-9)

    def test_triangular_transposed_coefficient(self):
        # Stored lower, consumed transposed: solve with the upper L^T.
        low = _low(5)
        rhs = _gen(5, 4)
        got = KERNEL_IMPLS["TRSM"](
            low, rhs, _cfg(side="left", lt=True, ll=True)
        )
        np.testing.assert_allclose(low.T @ got, rhs, atol=1e-9)

    def test_diagonal_solves(self):
        d = _diag(5)
        rhs = _gen(5, 4)
        got = KERNEL_IMPLS["DIGESV"](d, rhs, _cfg(side="left"))
        np.testing.assert_allclose(d @ got, rhs, atol=1e-12)
        rhs_r = _gen(4, 5)
        got = KERNEL_IMPLS["DIGESV"](rhs_r, d, _cfg(side="right"))
        np.testing.assert_allclose(got @ d, rhs_r, atol=1e-12)

    def test_transposed_rhs_is_materialized(self):
        # RHS stored transposed (the executor's cfg carries the flag even
        # though compiled variants never produce this for solves).
        coeff = _gen_inv(5)
        rhs_stored = _gen(3, 5)  # logical RHS is its transpose: 5 x 3
        got = KERNEL_IMPLS["GEGESV"](
            coeff, rhs_stored, _cfg(side="left", rt=True)
        )
        np.testing.assert_allclose(coeff @ got, rhs_stored.T, atol=1e-9)


class TestCoverage:
    def test_every_binary_kernel_covered_by_impl_and_cfg_tests(self):
        from repro.kernels.spec import DIAGONAL_KERNELS, PRODUCT_KERNELS, SOLVE_KERNELS

        for kernel in (*PRODUCT_KERNELS, *SOLVE_KERNELS, *DIAGONAL_KERNELS):
            assert kernel.name in KERNEL_IMPLS
