"""Empirical expansion of variant sets (paper Section VI, Algorithm 1).

Given the full set of variants ``A`` for a shape, a set of sampled instances
``Q``, an objective function ``F`` (lower is better), a cardinality budget
``K``, and an initial set ``Z_0``, ``ExpandSet`` greedily adds the variant
that most improves ``F`` until the budget is exhausted or no variant
improves the objective.

The objective functions of the paper are provided: the *average penalty*
``F_avg`` and the *maximum penalty* ``F_max`` over the sampled instances.
Objectives are pluggable: anything that maps a set of variant indices within
a :class:`~repro.compiler.selection.CostMatrix` to a score works, which is
how the execution-time experiment swaps FLOP costs for performance-model
estimates.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from repro.compiler.selection import TIE_TOLERANCE, CostMatrix
from repro.compiler.variant import Variant

#: An objective maps (cost_matrix, subset_indices) to a score (lower=better).
Objective = Callable[[CostMatrix, Sequence[int]], float]


def AveragePenalty(matrix: CostMatrix, indices: Sequence[int]) -> float:
    """``F_avg``: mean per-instance penalty of the best-in-set variant."""
    return matrix.average_penalty(indices)


def MaxPenalty(matrix: CostMatrix, indices: Sequence[int]) -> float:
    """``F_max``: worst per-instance penalty of the best-in-set variant."""
    return matrix.max_penalty(indices)


def expand_set(
    cost_matrix: CostMatrix,
    initial: Sequence[Variant],
    max_size: int,
    objective: Objective = AveragePenalty,
) -> list[Variant]:
    """Algorithm 1 (``ExpandSet``) of the paper.

    ``cost_matrix`` holds the costs of *all* variants ``A`` on the sampled
    instances ``Q``; ``initial`` is ``Z_0`` (its members must appear in the
    matrix); ``max_size`` is ``K``.  Returns the expanded set ``Z`` with
    ``|Z| <= K``.  The greedy loop stops early as soon as no candidate
    improves the objective, exactly as the algorithm's early return.
    Values within :data:`~repro.compiler.selection.TIE_TOLERANCE` tie: the
    lower candidate index wins, and a tie with the incumbent is no
    improvement.
    """
    sig_to_idx = {v.signature(): i for i, v in enumerate(cost_matrix.variants)}
    selected_idx: list[int] = []
    for variant in initial:
        idx = sig_to_idx.get(variant.signature())
        if idx is None:
            raise ValueError(
                f"initial variant {variant.name!r} is not in the cost matrix"
            )
        if idx not in selected_idx:
            selected_idx.append(idx)

    # Line 2: the incumbent value (infinity for an empty initial set).
    v_min = objective(cost_matrix, selected_idx) if selected_idx else float("inf")

    while len(selected_idx) < max_size:
        best_candidate: Optional[int] = None
        best_value = float("inf")
        for candidate in range(len(cost_matrix.variants)):
            if candidate in selected_idx:
                continue
            value = objective(cost_matrix, selected_idx + [candidate])
            if value < best_value - TIE_TOLERANCE:
                best_value = value
                best_candidate = candidate
        if best_candidate is None or best_value >= v_min - TIE_TOLERANCE:
            break  # line 13-15: no improvement
        selected_idx.append(best_candidate)
        v_min = best_value

    return [cost_matrix.variants[i] for i in selected_idx]
