"""Generalized matrix chain dynamic programming, batched over instances.

This is the Barthels-et-al.-style optimizer (the algorithm behind Linnea):
given a chain *with known sizes*, find the cheapest evaluation.  It serves
four roles in the reproduction:

* the per-instance optimum ``min_{A in A} T(A, q)`` that the Theorem 2
  penalties divide by — the compile pipeline evaluates it on every
  training instance at once (:func:`dp_optimal_costs`) instead of
  enumerating the Catalan-many set ``A`` and taking a column minimum;
* the DP-optimal parenthesizations that seed the sparse variant space used
  for expansion on long chains (:func:`dp_seed_trees`);
* the baseline "search at run time" strategy whose cost/latency trade-off
  motivates multi-versioning in the first place (see
  :class:`repro.baselines.online.OnlineSearchEvaluator`); and
* :func:`dp_optimal_plan` turns the winning evaluation into an executable
  :class:`~repro.compiler.variant.Variant`.

Because intermediate *features* depend on how a subchain was computed, a
plain scalar DP over intervals is not sound: a slightly more expensive
subchain result with better features (e.g. still triangular) can win
globally.  The table therefore keeps, per interval, the cheapest cost of
every reachable operand *state key* (features plus pending operators).  An
interval fixes its result's dimensions, and :func:`associate` reads nothing
else from a state, so two subtrees with equal keys are interchangeable in
every enclosing association: the DP ranges over exactly the
per-parenthesization variants of Section IV, and its optimum *is* the
minimum over ``A`` (summed in a different order, so equal up to round-off).

None of that structure depends on the sizes.  :class:`ChainDP` resolves
every association once per chain — per interval its state keys, per
(split, left key, right key) the result key and cost monomials — and
:meth:`ChainDP.solve` evaluates the graph on a ``(count, n+1)`` instance
array with O(n^3 k^2) numpy operations over count-wide rows (``k``, the
keys per interval, is at most 2 on sampled chains).  Per (interval, key) it
records which candidate won on each instance, so trees are reconstructed
per row.  The single-instance functions are 1-row calls of the same code,
and each instance's arithmetic is the scalar DP's, operation for
operation: ``(left + right) + step``, each monomial as
``((c * m^em) * k^ek) * n^en``, the first minimum winning ties.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from repro.ir.chain import Chain
from repro.compiler.parenthesization import ParenTree, join, leaf
from repro.compiler.states import OperandState, associate, initial_states
from repro.compiler.variant import (
    Variant,
    _build_fixups,
    _make_same_class,
    VariantBuilder,
    build_variant,
)


#: :meth:`ChainDP.solve` sweeps the instances in column blocks whose
#: largest temporary (monomial or candidate rows x block) stays under this
#: many elements.  Measured on a 2-vCPU Xeon with 1000 instances: an n=12
#: solve runs ~1.7x faster in blocks of ~110 than in one sweep (n <= 8
#: gains less), and a serving process's peak RSS after compiling stays
#: below the old pool path's, which it did not with 4x larger blocks.
SOLVE_BLOCK_ELEMENTS = 1 << 15


def _state_key(state: OperandState) -> tuple:
    """Feature signature relevant for downstream kernel choices."""
    return (state.structure, state.prop, state.inverted, state.transposed)


class ChainDP:
    """The size-independent interval graph of one chain's DP.

    A *node* is one (interval, state key) table entry; leaves are nodes
    ``0 .. n-1``.  A *candidate* is one (split, left node, right node)
    association of an interval, producing one node.  Intervals of equal
    span depend only on shorter ones, so :meth:`solve` evaluates a whole
    span at once: the span's candidates are laid out as a ``(nodes,
    width)`` grid, each node's row in the scalar DP's iteration order (so
    the first minimum still wins) and padded with repeats of its first
    candidate, and reduced with one ``min`` over the width.  Costs are
    sums of rows of a monomial table, each monomial a coefficient times up
    to three ``q_s^e`` factors.
    """

    def __init__(self, chain: Chain):
        self.chain = chain
        n = chain.n
        same_class = _make_same_class(chain)
        #: (coeff, factor ids) -> monomial row; row 0 is the zero monomial
        #: that pads short term lists.
        self._terms: dict[tuple, int] = {}
        #: (symbol, exponent) -> factor id; factor 0 is the constant 1.
        self._factors: dict[tuple[int, int], int] = {}
        #: (id(cost), dims) -> (cost, monomial rows); holding ``cost``
        #: keeps its id from being reused while the graph is built.
        self._term_cache: dict[tuple, tuple] = {}
        self._node_states: list[OperandState] = list(initial_states(chain))
        #: Per node: ``None`` for leaves, else its candidates' (left node,
        #: right node) pairs in order — the provenance trees are built from.
        self._backs: list[Optional[list[tuple[int, int]]]] = [None] * n
        nodes: dict[tuple[int, int], list[int]] = {
            (i, i): [i] for i in range(n)
        }
        steps: list[list[int]] = []  # monomial rows per grid slot
        #: Per span: (first grid slot, end, left nodes, right nodes, nodes,
        #: grid width); slots are node-major.
        self._spans: list[tuple] = []
        for span in range(2, n + 1):
            grouped: dict[int, list[tuple]] = {}  # node -> candidates
            for i in range(n - span + 1):
                j = i + span - 1
                by_key: dict[tuple, int] = {}
                for split in range(i, j):
                    for left in nodes[(i, split)]:
                        for right in nodes[(split + 1, j)]:
                            result = associate(
                                self._node_states[left],
                                self._node_states[right],
                                same_class,
                                0,
                            )
                            key = _state_key(result.result)
                            node = by_key.get(key)
                            if node is None:
                                node = by_key[key] = len(self._node_states)
                                self._node_states.append(result.result)
                                self._backs.append([])
                                grouped[node] = []
                            self._backs[node].append((left, right))
                            grouped[node].append(
                                (
                                    left,
                                    right,
                                    self._term_rows(result.cost, result.call_dims),
                                )
                            )
                nodes[(i, j)] = list(by_key.values())
            first = len(steps)
            grid = max(map(len, grouped.values()))
            lefts, rights = [], []
            for candidates in grouped.values():
                padded = candidates + candidates[:1] * (grid - len(candidates))
                for left, right, rows in padded:
                    lefts.append(left)
                    rights.append(right)
                    steps.append(rows)
            self._spans.append(
                (
                    first,
                    len(steps),
                    np.asarray(lefts, dtype=np.intp),
                    np.asarray(rights, dtype=np.intp),
                    np.asarray(list(grouped), dtype=np.intp),
                    grid,
                )
            )
        width = max([1] + [len(rows) for rows in steps])
        #: Monomial rows per candidate slot: ``(width, candidates)``,
        #: padded with the zero monomial (adding ``+0.0`` is exact).
        self._steps = np.zeros((width, len(steps)), dtype=np.intp)
        for c, rows in enumerate(steps):
            self._steps[: len(rows), c] = rows
        #: Root nodes with the monomial rows of each of their fix-ups.
        self._roots: list[tuple[int, list[list[int]]]] = [
            (
                node,
                [
                    self._term_rows(fix.cost, (fix.dim,) * 3)
                    for fix in _build_fixups(self._node_states[node], None)
                ],
            )
            for node in nodes[(0, n - 1)]
        ]
        # The monomial table as arrays: coefficients and, per factor slot,
        # the factor ids (padding with the constant-1 factor is exact).
        self._coeffs = np.zeros(len(self._terms) + 1)
        self._term_factors = np.zeros((3, len(self._terms) + 1), dtype=np.intp)
        for (coeff, factor_ids), row in self._terms.items():
            self._coeffs[row] = coeff
            self._term_factors[: len(factor_ids), row] = factor_ids
        del self._term_cache

    def _term_rows(self, cost, dims: tuple[int, int, int]) -> list[int]:
        """Monomial rows of a cost function called on symbols ``dims``."""
        cached = self._term_cache.get((id(cost), dims))
        if cached is not None:
            return cached[1]
        rows = []
        for term in cost.terms:
            factor_ids = tuple(
                self._factors.setdefault((sym, exp), len(self._factors) + 1)
                for sym, exp in zip(dims, (term.em, term.ek, term.en))
                if exp
            )
            rows.append(
                self._terms.setdefault(
                    (float(term.coeff), factor_ids), len(self._terms) + 1
                )
            )
        self._term_cache[(id(cost), dims)] = (cost, rows)
        return rows

    def solve(self, instances: np.ndarray, trees: bool = True) -> "DPSolution":
        """Evaluate the DP on every row of a ``(count, n+1)`` size array.

        ``trees=False`` skips the per-node argmin provenance that
        :meth:`DPSolution.tree` reads; the optimum is the same.
        """
        q = np.asarray(instances, dtype=np.float64)
        if q.ndim != 2 or q.shape[1] != self.chain.n + 1:
            raise ValueError(
                f"instances must be a (count, {self.chain.n + 1}) array, got "
                f"shape {q.shape}"
            )
        count = q.shape[0]
        rows = max(self._steps.shape[1], len(self._coeffs))
        block = max(1, SOLVE_BLOCK_ELEMENTS // rows)
        if count <= block:
            optimal, choice, root = self._solve_block(q, trees)
        else:
            parts = [
                self._solve_block(q[start : start + block], trees)
                for start in range(0, count, block)
            ]
            optimal = np.concatenate([part[0] for part in parts])
            choice = root = None
            if trees:
                choice = np.concatenate([part[1] for part in parts], axis=1)
                root = np.concatenate([part[2] for part in parts])
        return DPSolution(self, optimal, choice, root)

    def _solve_block(self, q: np.ndarray, trees: bool) -> tuple:
        """:meth:`solve` on one block of rows: (optimal, choice, root)."""
        count = q.shape[0]
        powers = np.ones((len(self._factors) + 1, count))
        for (sym, exp), factor in self._factors.items():
            powers[factor] = q[:, sym] ** exp
        factors = self._term_factors
        # ((c * f1) * f2) * f3: the scalar ``c * m**em * k**ek * n**en``.
        values = self._coeffs[:, None] * powers[factors[0]]
        values *= powers[factors[1]]
        values *= powers[factors[2]]
        step = values[self._steps[0]]
        for rows in self._steps[1:]:
            step += values[rows]
        cost = np.zeros((len(self._node_states), count))
        choice = np.zeros(cost.shape, dtype=np.intp) if trees else None
        for first, end, lefts, rights, span_nodes, grid in self._spans:
            total = cost[lefts]
            total += cost[rights]
            total += step[first:end]  # (left + right) + step, as the scalar
            total = total.reshape(len(span_nodes), grid, count)
            cost[span_nodes] = total.min(axis=1)
            if trees:
                choice[span_nodes] = total.argmin(axis=1)
        finals = []
        for node, fixups in self._roots:
            total = np.zeros(count)
            for rows in fixups:
                total += values[rows].sum(axis=0)
            finals.append(cost[node] + total)
        finals = np.stack(finals)
        return finals.min(axis=0), choice, finals.argmin(axis=0) if trees else None


class DPSolution:
    """The DP evaluated on a batch of instances."""

    def __init__(
        self,
        graph: ChainDP,
        optimal: np.ndarray,
        choice: Optional[np.ndarray],
        root: Optional[np.ndarray],
    ):
        self.graph = graph
        #: Optimal FLOP cost per instance, fix-ups included.
        self.optimal = optimal
        self._choice = choice
        self._root = root

    def tree(self, row: int) -> ParenTree:
        """The parenthesization of the optimal evaluation of one row."""
        if self._choice is None:
            raise ValueError("solved with trees=False: no provenance")
        backs, choice = self.graph._backs, self._choice

        def rebuild(node: int) -> ParenTree:
            candidates = backs[node]
            if candidates is None:
                return leaf(node)
            left, right = candidates[choice[node, row]]
            return join(rebuild(left), rebuild(right))

        return rebuild(self.graph._roots[self._root[row]][0])


@lru_cache(maxsize=16)
def chain_dp(chain: Chain) -> ChainDP:
    """The DP graph of a chain, cached for repeated single-instance calls
    (a graph holds ~40 KiB at n=8, ~0.5 MiB at n=20)."""
    return ChainDP(chain)


def dp_optimal_costs(chain: Chain, instances: np.ndarray) -> np.ndarray:
    """Minimum FLOP cost of ``chain`` on every row of ``instances``.

    The exact per-instance optimum over the per-parenthesization variants
    ``A`` (up to summation order), computed with the same association
    machinery (kernel tables, rewrites, cost functions) as the variant
    builder, so costs are directly comparable with
    :meth:`Variant.flop_cost`.
    """
    return chain_dp(chain).solve(instances, trees=False).optimal


def dp_optimal_cost(chain: Chain, sizes: Sequence[int]) -> float:
    """Minimum FLOP cost to evaluate ``chain`` on the concrete ``sizes``."""
    q = chain.validate_sizes(sizes)
    return float(dp_optimal_costs(chain, np.asarray([q], dtype=np.float64))[0])


def dp_optimal_tree(chain: Chain, sizes: Sequence[int]) -> ParenTree:
    """The parenthesization underlying the DP-optimal plan for an instance.

    A tree can join the ordinary variant pool (built, perturbed,
    deduplicated, cached), which is how the DP-seeded variant space uses
    it.
    """
    q = chain.validate_sizes(sizes)
    return chain_dp(chain).solve(np.asarray([q], dtype=np.float64)).tree(0)


def dp_optimal_plan(chain: Chain, sizes: Sequence[int]) -> Variant:
    """The cheapest evaluation for an instance, as an executable variant.

    The Section IV variant (named ``DP``) of :func:`dp_optimal_tree`: the
    DP ranges over exactly those variants, so its ``flop_cost`` equals
    :func:`dp_optimal_cost` on these sizes up to summation order.
    """
    return build_variant(chain, dp_optimal_tree(chain, sizes), name="DP")


def dp_seed_trees(
    chain: Chain, instances: np.ndarray, max_seeds: Optional[int] = None
) -> list[ParenTree]:
    """Distinct DP-optimal parenthesizations over a set of instances.

    Solves the DP on up to ``max_seeds`` rows of ``instances`` (evenly
    spaced, so the seeds span the sampled size distribution
    deterministically) in one batch and deduplicates the resulting trees.
    The order is first-appearance, so earlier (more representative) seeds
    survive a downstream candidate cap.
    """
    from repro.compiler.selection import _tree_key

    instances = np.asarray(instances)
    count = instances.shape[0]
    if count == 0:
        return []
    if max_seeds is not None and 0 < max_seeds < count:
        rows = np.unique(np.linspace(0, count - 1, max_seeds).astype(int))
    else:
        rows = np.arange(count)
    solution = chain_dp(chain).solve(instances[rows])
    trees: list[ParenTree] = []
    seen: set = set()
    for row in range(len(rows)):
        tree = solution.tree(row)
        key = _tree_key(tree)
        if key not in seen:
            seen.add(key)
            trees.append(tree)
    return trees


def dp_plan_variants(
    chain: Chain, instances: np.ndarray, max_plans: Optional[int] = None
) -> list[Variant]:
    """Per-sample DP plan extraction as ordinary variants (named ``D0..``).

    One Section IV variant per *distinct* DP-optimal parenthesization over
    the instance rows; see :func:`dp_seed_trees` for the sampling and
    deduplication rules.
    """
    builder = VariantBuilder(chain)
    return [
        builder.build(tree, name=f"D{i}")
        for i, tree in enumerate(dp_seed_trees(chain, instances, max_plans))
    ]
