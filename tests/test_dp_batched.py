"""The batched generalized-chain DP and the pool-free Theorem 2 selection.

Theorem 2 scores a candidate ``E_h`` by its cost row over the per-instance
optimum.  The default compile takes that optimum from one batched DP
(:meth:`repro.compiler.dp.ChainDP.solve`) instead of the column minimum of
a Catalan-sized pool.  These tests pin:

* the DP row equals the exhaustive ``CostMatrix.optimal`` to round-off, and
  is bit-equal, row by row, to the single-instance ``dp_optimal_cost``;
  batched trees equal the single-instance ``dp_optimal_tree``;
* a seeded parity corpus: pool-free selection picks the same signatures as
  the exhaustive path, ties going to the smaller ``h``;
* two chains whose ``E0`` / ``E1`` tie used to be decided by summation
  order;
* the pipeline's pool-free shape at ``expand_by=0``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ir.chain import Chain
from repro.compiler.dp import chain_dp, dp_optimal_cost, dp_optimal_tree
from repro.compiler.pipeline import CompileOptions, PassContext, default_pipeline
from repro.compiler.selection import (
    CostMatrix,
    all_variants,
    essential_set,
    fanning_cost_matrix,
    fanning_out_variants,
)
from repro.experiments.sampling import sample_instances, sample_shapes

from conftest import make_general, make_lower, make_symmetric, make_upper
from test_variant_pool_parity import option_chains


def instances_for(chain: Chain, seed: int, count: int, high: int) -> np.ndarray:
    return np.asarray(
        sample_instances(chain, count, np.random.default_rng(seed), low=1, high=high),
        dtype=np.float64,
    )


@settings(max_examples=40, deadline=None)
@given(
    chain=option_chains(2, 8),
    seed=st.integers(0, 2**16),
    high=st.sampled_from([3, 1000]),
)
def test_dp_row_matches_exhaustive_and_scalar(chain, seed, high):
    instances = instances_for(chain, seed, 30, high)
    solution = chain_dp(chain).solve(instances)
    exhaustive = CostMatrix(all_variants(chain), instances).optimal
    np.testing.assert_allclose(solution.optimal, exhaustive, rtol=1e-12)
    for row, q in enumerate(instances.astype(int)):
        assert solution.optimal[row] == dp_optimal_cost(chain, q)
        assert solution.tree(row) == dp_optimal_tree(chain, q)


def parity_corpus():
    """200 seeded chains, n = 2..10 (fewer at 9 and 10, whose exhaustive
    pools take most of the time)."""
    lengths = [2, 3, 4, 5, 6, 7, 8] * 27 + [9] * 8 + [10] * 3
    for seed, n in enumerate(lengths):
        rng = np.random.default_rng([seed, 16])
        chain = sample_shapes(n, 1, rng, rectangular_probability=0.4)[0]
        yield seed, chain, np.asarray(sample_instances(chain, 60, rng), float)


def test_pool_free_selection_parity_corpus():
    checked = 0
    for seed, chain, train in parity_corpus():
        exhaustive = CostMatrix(all_variants(chain), train)
        pool_free = fanning_cost_matrix(chain, train)
        np.testing.assert_allclose(pool_free.optimal, exhaustive.optimal, rtol=1e-12)
        for objective in ("avg", "max"):
            expected = essential_set(chain, cost_matrix=exhaustive, objective=objective)
            got = essential_set(chain, cost_matrix=pool_free, objective=objective)
            assert [(v.name, v.signature()) for v in got] == [
                (v.name, v.signature()) for v in expected
            ], (seed, str(chain), objective)
        checked += 1
    assert checked >= 200


def pipeline_training(chain: Chain) -> np.ndarray:
    """The training set the default compile samples."""
    return np.asarray(
        sample_instances(chain, 1000, np.random.default_rng(0), low=2, high=1000),
        dtype=np.float64,
    )


@pytest.mark.parametrize(
    "matrices,inverted",
    [
        # M1^-1 M2 M3^-1 M4^-1
        (
            [make_general("M1", True), make_general("M2"),
             make_lower("M3"), make_lower("M4")],
            (0, 2, 3),
        ),
        # M1^-1 M2 M3 M4^-1 M5^-1
        (
            [make_symmetric("M1", spd=True), make_general("M2"),
             make_symmetric("M3", spd=True), make_upper("M4"),
             make_general("M5", True)],
            (0, 3, 4),
        ),
    ],
    ids=["M1^-1 M2 M3^-1 M4^-1", "M1^-1 M2 M3 M4^-1 M5^-1"],
)
def test_equal_flop_fanning_variants_tie_to_the_smaller_h(matrices, inverted):
    chain = Chain(
        tuple(m.inv if i in inverted else m.as_operand() for i, m in enumerate(matrices))
    )
    train = pipeline_training(chain)
    fanning = fanning_out_variants(chain)
    e0, e1 = (fanning[h].flop_cost_many(train) for h in (0, 1))
    # E0 and E1 cost the same FLOPs; only their summation order differs.
    np.testing.assert_allclose(e0, e1, rtol=1e-15)
    exhaustive = essential_set(
        chain, cost_matrix=CostMatrix(all_variants(chain), train)
    )
    pool_free = essential_set(chain, training_instances=train)
    assert [v.signature() for v in pool_free] == [v.signature() for v in exhaustive]
    assert pool_free[0].name == "E0"


class TestPipelineIsPoolFree:
    def run(self, chain, **options):
        ctx = PassContext(source=chain, options=CompileOptions(**options))
        return default_pipeline().run(ctx)

    def test_default_compile_builds_only_the_fanning_variants(self):
        rng = np.random.default_rng(4)
        chain = sample_shapes(8, 1, rng, rectangular_probability=0.5)[0]
        ctx = self.run(chain, num_training_instances=200)
        fanning = fanning_out_variants(ctx.chain)
        assert [v.name for v in ctx.variants] == [f"E{h}" for h in fanning]
        pool = ctx.diagnostics["variant_pool"]
        assert pool["strategy"] == "fanning"
        assert pool["pool_size"] == len(fanning)
        np.testing.assert_array_equal(
            ctx.cost_matrix.optimal,
            chain_dp(ctx.chain).solve(ctx.training_instances).optimal,
        )
        # select reuses the enumerate pass's objects.
        assert all(any(s is v for v in ctx.variants) for s in ctx.selected)

    def test_expansion_pool_penalties_use_the_dp_row(self):
        # Past AUTO_EXHAUSTIVE_MAX_N the pool is DP-seeded, so its column
        # minimum is only an upper bound; the baseline is the exact optimum.
        chain = sample_shapes(12, 1, np.random.default_rng(5), 0.5)[0]
        ctx = self.run(chain, num_training_instances=60, expand_by=1)
        assert ctx.diagnostics["variant_pool"]["strategy"] == "dp"
        matrix = ctx.cost_matrix
        np.testing.assert_array_equal(
            matrix.optimal,
            chain_dp(ctx.chain).solve(ctx.training_instances).optimal,
        )
        assert np.all(matrix.costs.min(axis=0) >= matrix.optimal * (1 - 1e-12))

    def test_expand_by_zero_ignores_the_variant_space(self):
        chain = sample_shapes(6, 1, np.random.default_rng(6), 0.5)[0]
        selected = {
            space: [
                v.signature()
                for v in self.run(
                    chain, num_training_instances=100, variant_space=space
                ).selected
            ]
            for space in ("exhaustive", "dp")
        }
        assert selected["exhaustive"] == selected["dp"]


def test_blocked_solve_matches_one_sweep(monkeypatch):
    import repro.compiler.dp as dp

    chain = sample_shapes(9, 1, np.random.default_rng(9), 0.5)[0]
    instances = instances_for(chain, 9, 500, 1000)
    graph = dp.ChainDP(chain)
    monkeypatch.setattr(dp, "SOLVE_BLOCK_ELEMENTS", 1 << 40)
    whole = graph.solve(instances)
    monkeypatch.setattr(dp, "SOLVE_BLOCK_ELEMENTS", 1000)  # blocks of a few rows
    blocked = graph.solve(instances)
    np.testing.assert_array_equal(blocked.optimal, whole.optimal)
    assert [blocked.tree(r) for r in range(500)] == [whole.tree(r) for r in range(500)]
    assert graph.solve(instances, trees=False).optimal.tolist() == whole.optimal.tolist()
