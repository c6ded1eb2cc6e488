"""Variant selection theory (paper Section V).

Implements:

* enumeration of all variants (one per parenthesization, via the
  deterministic construction of Section IV);
* the fanning-out variants ``E_h`` and the full fanning-out set ``E``
  (``n - 1`` distinct members for ``n <= 3``, ``n + 1`` otherwise);
* the essential set ``E_s`` of Theorem 2: one fanning-out variant per
  size-symbol equivalence class, with representatives chosen greedily to
  minimize an objective over a training set of instances.  Scoring needs
  only the ``E_h`` cost rows and the per-instance optimum, which the
  batched DP of :mod:`repro.compiler.dp` computes exactly — no pool of
  Catalan-many variants is built;
* penalties ``P(Z, q)`` and empirical total penalties over instance sets;
* the left-to-right reference variant ``L``.
"""

from __future__ import annotations

import dataclasses
from functools import lru_cache
from typing import Callable, Optional, Sequence

import numpy as np

from repro.ir.chain import Chain
from repro.compiler.parenthesization import (
    enumerate_trees,
    fanning_out_tree,
    left_to_right_tree,
)
from repro.compiler.dp import dp_optimal_costs
from repro.compiler.variant import Variant, VariantBuilder, build_variant

#: Worst-case bound on the constant of Lemma 2 (``alpha-hat <= 8``), hence
#: ``T(E_m, q) < 16 T_opt`` and the total penalty of E is at most 15.
LEMMA2_FACTOR = 16.0
TOTAL_PENALTY_BOUND = 15.0

#: Objective values (penalties, hence dimensionless) closer than this are a
#: tie, which the smaller ``h`` / lower candidate index wins — otherwise
#: the last bit of a summation order would decide between variants of
#: equal FLOPs.
TIE_TOLERANCE = 1e-12


def all_variants(chain: Chain) -> list[Variant]:
    """One variant per parenthesization: the paper's full set ``A``."""
    return VariantBuilder(chain).build_pool(enumerate_trees(chain.n))


def left_to_right_variant(chain: Chain) -> Variant:
    """The in-house left-to-right reference ``L`` (equals ``E_0``)."""
    return build_variant(chain, left_to_right_tree(chain.n), name="L")


def distinct_fanning_trees(chain: Chain) -> dict[int, "ParenTree"]:
    """The distinct fanning-out trees ``E_h`` keyed by ``h``.

    Duplicate parenthesizations (which occur for ``n <= 3``) are dropped,
    keeping the smallest ``h``; the result has ``n - 1`` members for
    ``n <= 3`` and ``n + 1`` members otherwise.  The single source of the
    collapse rule — both the variant construction below and the variant
    spaces build their fanning candidates from it.
    """
    return dict(_fanning_layout(chain.n)[0])


@lru_cache(maxsize=64)
def _fanning_layout(n: int) -> tuple[dict[int, "ParenTree"], dict[int, object]]:
    """Per chain length: the distinct ``E_h`` trees and every ``h``'s tree
    key (they depend on ``n`` alone)."""
    trees: dict[int, "ParenTree"] = {}
    keys: dict[int, object] = {}
    for h in range(n + 1):
        tree = fanning_out_tree(n, h)
        key = _tree_key(tree)
        if key not in keys.values():
            trees[h] = tree
        keys[h] = key
    return trees, keys


def fanning_out_variants(chain: Chain) -> dict[int, Variant]:
    """The distinct fanning-out variants ``E_h`` keyed by ``h``
    (see :func:`distinct_fanning_trees` for the dedupe rule)."""
    builder = VariantBuilder(chain)
    return {
        h: builder.build(tree, name=f"E{h}")
        for h, tree in distinct_fanning_trees(chain).items()
    }


def _tree_key(tree) -> object:
    if tree.is_leaf:
        return tree.lo
    return (_tree_key(tree.left), _tree_key(tree.right))


# ---------------------------------------------------------------------------
# Penalties.
# ---------------------------------------------------------------------------

def optimal_cost(chain: Chain, sizes: Sequence[int]) -> float:
    """``min_{A in A} T(A, q)``: optimum over all parenthesizations."""
    return min(v.flop_cost(sizes) for v in all_variants(chain))


def penalty(
    selected: Sequence[Variant], chain: Chain, sizes: Sequence[int]
) -> float:
    """Penalty ``P(Z, q)`` of eq. (2): relative cost increase over optimal."""
    if not selected:
        return float("inf")
    best_selected = min(v.flop_cost(sizes) for v in selected)
    return best_selected / optimal_cost(chain, sizes) - 1.0


#: Largest ``terms x instances`` block :func:`evaluate_cost_terms` holds at
#: once; bigger instance batches are swept in column chunks.
DIRECT_EVAL_LIMIT = 65536

#: Flattened cost terms of a variant pool: ``(coefficients (T,),
#: exponents (T, n+1), owner variant index (T,))``.  Built once per pool
#: by :func:`flatten_cost_terms`; evaluated on any instance batch by
#: :func:`evaluate_cost_terms`.  The dispatcher caches one per selected
#: set, so per-call dispatch pays only the evaluation sweep.
TermStack = tuple[np.ndarray, np.ndarray, np.ndarray]


def flatten_cost_terms(
    variants: Sequence[Variant], num_symbols: int
) -> TermStack:
    """Stack every variant's monomial cost terms into one exponent matrix.

    Every variant's cost is a sum of monomial terms
    ``coeff * prod_s q_s^e_s``; stacking the terms of *all* variants into
    one ``(terms, n+1)`` exponent matrix lets a small selected set be
    evaluated with one numpy broadcast per size symbol instead of a Python
    loop per variant.
    """
    coeffs: list[float] = []
    exponents: list[np.ndarray] = []
    owner: list[int] = []
    for v, variant in enumerate(variants):
        for coeff, powers in variant._flat_terms:
            row = np.zeros(num_symbols, dtype=np.int64)
            for sym, exp in powers:
                row[sym] = exp
            coeffs.append(coeff)
            exponents.append(row)
            owner.append(v)
    if not coeffs:
        return (
            np.zeros(0),
            np.zeros((0, num_symbols), dtype=np.int64),
            np.zeros(0, dtype=np.intp),
        )
    return np.asarray(coeffs), np.stack(exponents), np.asarray(owner, dtype=np.intp)


def evaluate_cost_terms(
    stack: TermStack, num_variants: int, instances: np.ndarray
) -> np.ndarray:
    """Evaluate a term stack on instances: ``(num_variants, count)`` costs.

    Direct element-wise powers over ``(terms, instances)`` blocks of at
    most :data:`DIRECT_EVAL_LIMIT` elements, which is the fast way for the
    dispatcher's small selected sets; whole pools go through
    :func:`flop_cost_matrix` instead.
    """
    coeff_arr, exp_arr, owner_arr = stack
    instances = np.asarray(instances, dtype=np.float64)
    num_instances = instances.shape[0]
    costs = np.zeros((num_variants, num_instances))
    if num_instances == 0 or coeff_arr.size == 0:
        # Degenerate inputs short-circuit to a well-shaped empty/zero
        # matrix: the sweep below assumes at least one column to broadcast
        # against and at least one owner row.
        return costs
    chunk = max(1, DIRECT_EVAL_LIMIT // coeff_arr.shape[0])
    for start in range(0, num_instances, chunk):
        columns = instances[start : start + chunk]
        block = np.broadcast_to(
            coeff_arr[:, None], (coeff_arr.shape[0], columns.shape[0])
        ).copy()
        for sym in range(columns.shape[1]):
            exps = exp_arr[:, sym]
            if not exps.any():
                continue
            block *= columns[:, sym][None, :] ** exps[:, None]
        np.add.at(costs[:, start : start + chunk], owner_arr, block)
    return costs


def flop_cost_matrix(
    variants: Sequence[Variant], instances: np.ndarray
) -> np.ndarray:
    """Batched FLOP costs: ``(num_variants, num_instances)``.

    Row ``i`` is bit-for-bit ``variants[i].flop_cost_many(instances)``: the
    sequential sum, in step-term order, of ``coeff * prod q_s^e_s`` per
    term.  Two things make a whole pool cheap without changing that sum:

    * each distinct ``(coeff, powers)`` term's value row is computed once;
    * variants built by one :class:`~repro.compiler.variant.VariantBuilder`
      share the :class:`~repro.compiler.variant.Step` objects of common
      subtrees, so their step sequences form a trie keyed by step
      identity.  Each distinct prefix's running row is computed once from
      its parent's, one numpy pass per trie level, holding two levels at a
      time.  (Padding ragged term lists with the all-zero term adds
      ``+0.0``, which leaves every running sum unchanged.)
    """
    instances = np.asarray(instances, dtype=np.float64)
    if instances.ndim != 2:
        raise ValueError(
            f"instances must be a 2-D (count, n+1) array, got shape "
            f"{instances.shape}"
        )
    num_instances = instances.shape[0]
    costs = np.zeros((len(variants), num_instances))
    if num_instances == 0 or not len(variants):
        return costs

    term_rows: dict = {}  # (coeff, powers) -> row of ``values``; 0 is zero

    def term_ids(terms) -> list[int]:
        return [term_rows.setdefault(t, len(term_rows) + 1) for t in terms]

    # The trie, one level per step depth: {(parent position, id(step)):
    # position}, plus each node's parent position and term ids.
    levels: list[tuple[dict, list[int], list[list[int]]]] = []
    # Per sequence length: (variant index, trie position, fix-up term ids).
    ends: dict[int, list[tuple[int, int, list[int]]]] = {}
    for v, variant in enumerate(variants):
        pos = 0
        for depth, step in enumerate(variant.steps):
            if depth == len(levels):
                levels.append(({}, [], []))
            nodes, parents, terms = levels[depth]
            key = (pos, id(step))
            child = nodes.get(key)
            if child is None:
                child = nodes[key] = len(parents)
                parents.append(pos)
                terms.append(term_ids(step._flat_terms))
            pos = child
        fixup_terms = [t for fix in variant.fixups for t in fix._flat_terms]
        ends.setdefault(len(variant.steps), []).append(
            (v, pos, term_ids(fixup_terms))
        )

    values = np.zeros((len(term_rows) + 1, num_instances))
    for (coeff, powers), row in term_rows.items():
        value = values[row]
        value[:] = coeff
        for sym, exp in powers:
            value *= instances[:, sym] ** exp

    def accumulate(rows: np.ndarray, id_lists: list[list[int]]) -> None:
        """Add each row's terms in order; shorter lists add the zero row."""
        for j in range(max(map(len, id_lists), default=0)):
            rows += values[[ids[j] if j < len(ids) else 0 for ids in id_lists]]

    running = np.zeros((1, num_instances))
    for depth in range(len(levels) + 1):
        if depth:
            _, parents, terms = levels[depth - 1]
            running = running[parents]
            accumulate(running, terms)
        if depth in ends:
            owners, positions, fixups = zip(*ends[depth])
            rows = running[list(positions)]
            accumulate(rows, list(fixups))
            costs[list(owners)] = rows
    return costs


class CostMatrix:
    """Pre-evaluated costs of many variants on many instances.

    The expansion procedure and the experiments repeatedly need
    ``min_{Z in S} T(Z, q_i)`` for varying subsets ``S``; precomputing the
    full ``(num_variants, num_instances)`` cost matrix makes each subset
    evaluation a cheap row-wise minimum.
    """

    def __init__(
        self,
        variants: Sequence[Variant],
        instances: np.ndarray,
        evaluator: Optional[Callable[[Variant, np.ndarray], np.ndarray]] = None,
        optimal: Optional[np.ndarray] = None,
    ):
        """``evaluator(variant, instances) -> per-instance costs``.

        Defaults to the FLOP cost; the execution-time experiment passes the
        simulated machine's or the performance models' time estimates.
        ``optimal`` is the per-instance penalty baseline; it defaults to
        the column minimum, which is the optimum only when ``variants``
        is all of ``A`` (:func:`fanning_cost_matrix` passes the DP row).
        """
        self.variants = list(variants)
        self.instances = np.asarray(instances, dtype=np.float64)
        if self.instances.ndim != 2:
            raise ValueError("instances must be a 2-D (count, n+1) array")
        if evaluator is None:
            self.costs = flop_cost_matrix(self.variants, self.instances)
        else:
            self.costs = np.stack(
                [evaluator(v, self.instances) for v in self.variants]
            )
        self.optimal = (
            self.costs.min(axis=0)
            if optimal is None
            else np.asarray(optimal, dtype=np.float64)
        )

    @property
    def num_instances(self) -> int:
        return self.instances.shape[0]

    def ratios(self, indices: Sequence[int]) -> np.ndarray:
        """Per-instance ratio over optimal of the best variant in the subset."""
        if len(indices) == 0:
            return np.full(self.num_instances, np.inf)
        subset = self.costs[np.asarray(indices, dtype=np.intp)]
        return subset.min(axis=0) / self.optimal

    def penalties(self, indices: Sequence[int]) -> np.ndarray:
        return self.ratios(indices) - 1.0

    def average_penalty(self, indices: Sequence[int]) -> float:
        return float(self.penalties(indices).mean())

    def max_penalty(self, indices: Sequence[int]) -> float:
        return float(self.penalties(indices).max())


def fanning_cost_matrix(chain: Chain, instances: np.ndarray) -> CostMatrix:
    """The pool-free Theorem 2 matrix: the distinct ``E_h`` rows, with the
    exact per-instance optimum over ``A`` from the batched DP."""
    instances = np.asarray(instances, dtype=np.float64)
    return CostMatrix(
        list(fanning_out_variants(chain).values()),
        instances,
        optimal=dp_optimal_costs(chain, instances),
    )


def _fanning_rows(chain: Chain, variants: Sequence[Variant]) -> dict[int, int]:
    """The row of every ``E_h`` (``h = 0..n``) among ``variants``, by tree."""
    wanted = _fanning_layout(chain.n)[1]
    pending = set(wanted.values())
    rows_by_key: dict = {}
    for i, variant in enumerate(variants):
        if not pending:
            break
        if variant.tree is not None:
            key = _tree_key(variant.tree)
            if key in pending:
                rows_by_key[key] = i
                pending.discard(key)
    missing = sorted(h for h, key in wanted.items() if key not in rows_by_key)
    if missing:
        raise ValueError(
            f"cost matrix is missing the fanning-out variants E_h for "
            f"h in {missing}; every variant space must include them"
        )
    return {h: rows_by_key[key] for h, key in wanted.items()}


def essential_set(
    chain: Chain,
    training_instances: Optional[np.ndarray] = None,
    cost_matrix: Optional[CostMatrix] = None,
    objective: str = "avg",
) -> list[Variant]:
    """Construct the Theorem 2 set ``E_s``: one ``E_h`` per equivalence class.

    For each size-symbol equivalence class a representative ``q_h`` must be
    picked; the theorem guarantees a finite total penalty for *any* choice,
    so we pick greedily: classes are visited in order and, for each, the
    candidate fanning-out variant that minimizes the objective (average or
    maximum penalty) over the training set joins the set, the smallest
    ``h`` winning ties (:data:`TIE_TOLERANCE`).  Classes whose candidates
    coincide with an already-selected parenthesization (duplicate
    fanning-out trees collapse) are skipped, which is why ``|E_s|`` can be
    smaller than the number of classes.

    ``cost_matrix`` must hold a row for every fanning-out variant of the
    chain (found by tree); its ``optimal`` is the penalty baseline.  If
    omitted, the pool-free :func:`fanning_cost_matrix` is built from
    ``training_instances``.  The selected variants are named ``E{h}``.
    """
    if cost_matrix is None:
        if training_instances is None:
            raise ValueError("provide training_instances or a cost_matrix")
        cost_matrix = fanning_cost_matrix(chain, training_instances)
    rows = _fanning_rows(chain, cost_matrix.variants)
    score = (
        cost_matrix.average_penalty if objective == "avg" else cost_matrix.max_penalty
    )

    selected: list[Variant] = []
    selected_idx: list[int] = []
    for cls in chain.equivalence_classes():
        if any(rows[h] in selected_idx for h in cls):
            continue  # class already represented by a coinciding tree
        best, best_value = cls[0], float("inf")
        for h in cls:
            value = score(selected_idx + [rows[h]])
            if value < best_value - TIE_TOLERANCE:
                best, best_value = h, value
        selected_idx.append(rows[best])
        variant = cost_matrix.variants[rows[best]]
        name = f"E{best}"
        selected.append(
            variant if variant.name == name else dataclasses.replace(variant, name=name)
        )
    return selected
