"""Generated parity: shared-subtree pools equal per-tree construction.

Pools are built through one :class:`~repro.compiler.variant.VariantBuilder`
that shares subtree steps between trees, and their cost matrices reuse the
running rows of shared step prefixes.  On random chains over the paper's
ten feature options, with random transposes and inverses, both must be
indistinguishable from building and costing every tree on its own:

* the pool is ``==`` to the per-tree ``build_variant`` list, names included;
* ``CostMatrix(...).costs`` is bit-equal to the stacked ``flop_cost_many``
  rows;
* ``essential_set`` picks the same signatures from either matrix.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.ir.chain import Chain
from repro.ir.operand import Operand, UnaryOp
from repro.compiler.selection import CostMatrix, essential_set
from repro.compiler.variant import build_variant
from repro.compiler.variant_space import DPSeededSpace, ExhaustiveSpace
from repro.experiments.sampling import (
    MATRIX_OPTIONS,
    option_to_operand,
    sample_instances,
)


@st.composite
def option_chains(draw, min_n: int, max_n: int) -> Chain:
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    operands = []
    for i in range(n):
        operand = option_to_operand(
            draw(st.integers(0, len(MATRIX_OPTIONS) - 1)), f"M{i + 1}"
        )
        inverted = operand.inverted
        if operand.matrix.is_invertible and draw(st.booleans()):
            inverted = not inverted
        transposed = draw(st.booleans())
        operands.append(
            Operand(operand.matrix, UnaryOp.from_flags(inverted, transposed))
        )
    return Chain(tuple(operands))


def assert_pool_parity(chain: Chain, pool, seed: int) -> None:
    per_tree = [build_variant(chain, v.tree, name=v.name) for v in pool]
    assert pool == per_tree
    instances = np.asarray(
        sample_instances(chain, 40, np.random.default_rng(seed)), float
    )
    matrix = CostMatrix(pool, instances)
    stacked = np.stack([v.flop_cost_many(instances) for v in per_tree])
    assert np.array_equal(matrix.costs, stacked)
    per_tree_matrix = CostMatrix(
        per_tree, instances, evaluator=lambda v, q: v.flop_cost_many(q)
    )
    for objective in ("avg", "max"):
        shared = essential_set(chain, cost_matrix=matrix, objective=objective)
        alone = essential_set(
            chain, cost_matrix=per_tree_matrix, objective=objective
        )
        assert [(v.name, v.signature()) for v in shared] == [
            (v.name, v.signature()) for v in alone
        ]


@settings(max_examples=30, deadline=None)
@given(chain=option_chains(2, 7), seed=st.integers(0, 2**16))
def test_exhaustive_pool_parity(chain, seed):
    pool = ExhaustiveSpace().generate(chain, None)
    assert_pool_parity(chain, pool, seed)


@settings(max_examples=15, deadline=None)
@given(
    chain=option_chains(4, 8),
    cap=st.integers(min_value=1, max_value=40),
    seed=st.integers(0, 2**16),
)
def test_capped_pool_parity(chain, cap, seed):
    pool = ExhaustiveSpace(max_variants=cap).generate(chain, None)
    assert_pool_parity(chain, pool, seed)


@settings(max_examples=2, deadline=None)
@given(chain=option_chains(11, 11), seed=st.integers(0, 2**16))
def test_dp_seeded_pool_parity(chain, seed):
    train = np.asarray(
        sample_instances(chain, 120, np.random.default_rng(seed + 1)), float
    )
    pool = DPSeededSpace().generate(chain, train)
    assert_pool_parity(chain, pool, seed)
