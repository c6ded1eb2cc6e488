"""Compile-time costs: variant construction and full enumeration.

Multi-versioning shifts work to compile time; this benchmark quantifies it:
building one variant (the four-step procedure of Section IV), enumerating
all C_{n-1} variants, and emitting the C++ translation unit.

Two acceptance tests gate compile time at n=8 on 1000 training
instances.

* **Shared-subtree pool.**  Building the exhaustive pool and its FLOP cost
  matrix (what the ``enumerate`` and ``cost-matrix`` passes do when
  expansion asks for a pool) must be >= 3x faster than the per-tree path
  it replaced, with identical pools and bit-identical cost matrices.  The
  per-tree path is no longer part of the package, so
  :func:`legacy_pool_and_costs` below rebuilds it: one ``build_variant``
  per tree (fresh operand states, a quadratic ready-set linearization, a
  span-keyed state map) and the blocked ``np.unique``/``np.add.at`` sweep
  over the flattened terms of the whole pool.
* **Pool-free selection.**  The default compile's ``enumerate`` +
  ``cost-matrix`` + ``select`` passes (the ``E_h`` variants, their cost
  rows, the batched DP optimum) must be >= 5x faster than the exhaustive
  path they replaced, with identical selections.  :func:`exhaustive_select`
  rebuilds that path: all Catalan-many variants, their cost matrix with
  its column minimum as the optimum, and the essential-set pass that
  re-built the ``E_h`` and looked them up in the pool by signature (with
  today's tie rule, so both paths answer alike).
"""

import gc
import statistics
import time

import numpy as np
import pytest

from repro.codegen.cpp_emitter import emit_cpp
from repro.compiler.parenthesization import enumerate_trees, left_to_right_tree
from repro.compiler.dp import chain_dp
from repro.compiler.parenthesization import fanning_out_tree
from repro.compiler.pipeline import (
    CompileOptions,
    CostMatrixPass,
    EnumeratePass,
    EssentialSetPass,
    PassContext,
)
from repro.compiler.selection import (
    TIE_TOLERANCE,
    CostMatrix,
    all_variants,
    essential_set,
)
from repro.compiler.states import associate, initial_states
from repro.compiler.variant import (
    Step,
    Variant,
    VariantBuilder,
    _build_fixups,
    _make_same_class,
    build_variant,
)
from repro.experiments.sampling import sample_instances, sample_shapes

from conftest import emit

#: The CI acceptance bound on pool + cost-matrix construction at n=8.
REQUIRED_SPEEDUP = 3.0
#: The CI acceptance bound on the pool-free enumerate + cost-matrix +
#: select passes against the exhaustive path at n=8.
REQUIRED_POOL_FREE_SPEEDUP = 5.0
#: Interleaved rounds per path for the acceptance medians.
REPS = 7
#: The compile pipeline's default ``num_training_instances``.
TRAINING_INSTANCES = 1000


# -- the per-tree path, as it was -----------------------------------------------

def _legacy_linearize(tree):
    """Leftmost available association first, by scanning a ready set."""
    nodes = list(tree.internal_nodes())
    done: set = set()
    order = []

    def ready(node):
        left_ok = node.left.is_leaf or (node.left.lo, node.left.hi) in done
        right_ok = node.right.is_leaf or (node.right.lo, node.right.hi) in done
        return left_ok and right_ok

    remaining = set(range(len(nodes)))
    while remaining:
        candidates = [i for i in remaining if ready(nodes[i])]
        chosen = min(candidates, key=lambda i: nodes[i].lo)
        order.append(nodes[chosen])
        done.add((nodes[chosen].lo, nodes[chosen].hi))
        remaining.discard(chosen)
    return order


def _legacy_build_variant(chain, tree, name):
    same_class = _make_same_class(chain)
    states = initial_states(chain)
    span_state = {(i, i): states[i] for i in range(chain.n)}
    steps = []
    for index, node in enumerate(_legacy_linearize(tree)):
        left_state = span_state[(node.left.lo, node.left.hi)]
        right_state = span_state[(node.right.lo, node.right.hi)]
        result = associate(left_state, right_state, same_class, index)
        steps.append(Step.resolved(index, node.triplet, result))
        span_state[(node.lo, node.hi)] = result.result
    final_state = span_state[(0, chain.n - 1)]
    return Variant(
        chain=chain,
        tree=tree,
        steps=tuple(steps),
        fixups=_build_fixups(final_state, chain),
        final_state=final_state,
        name=name,
    )


def _legacy_flat_terms(variant):
    flat = []
    for step in variant.steps:
        m, k, n = step.call_dims
        for term in step.cost.terms:
            powers: dict = {}
            for sym, exp in ((m, term.em), (k, term.ek), (n, term.en)):
                if exp:
                    powers[sym] = powers.get(sym, 0) + exp
            flat.append((float(term.coeff), tuple(sorted(powers.items()))))
    for fix in variant.fixups:
        for term in fix.cost.terms:
            degree = term.em + term.ek + term.en
            if degree:
                flat.append((float(term.coeff), ((fix.dim, degree),)))
    return flat


def _legacy_cost_matrix(variants, instances, term_block=4096):
    coeffs, exponents, owner = [], [], []
    num_symbols = instances.shape[1]
    for v, variant in enumerate(variants):
        for coeff, powers in _legacy_flat_terms(variant):
            row = np.zeros(num_symbols, dtype=np.int64)
            for sym, exp in powers:
                row[sym] = exp
            coeffs.append(coeff)
            exponents.append(row)
            owner.append(v)
    coeff_arr = np.asarray(coeffs)
    exp_arr = np.stack(exponents)
    owner_arr = np.asarray(owner, dtype=np.intp)
    costs = np.zeros((len(variants), instances.shape[0]))
    for start in range(0, coeff_arr.shape[0], term_block):
        stop = min(start + term_block, coeff_arr.shape[0])
        block = np.broadcast_to(
            coeff_arr[start:stop, None], (stop - start, instances.shape[0])
        ).copy()
        for sym in range(num_symbols):
            column = instances[:, sym]
            for exp in np.unique(exp_arr[start:stop, sym]):
                if exp == 0:
                    continue
                mask = exp_arr[start:stop, sym] == exp
                block[mask] *= column[None, :] ** int(exp)
        np.add.at(costs, owner_arr[start:stop], block)
    return costs


def legacy_pool_and_costs(chain, instances):
    """The per-tree pool and its cost matrix, the way they used to be built."""
    pool = [
        _legacy_build_variant(chain, tree, name=f"P{i}")
        for i, tree in enumerate(enumerate_trees(chain.n))
    ]
    return pool, _legacy_cost_matrix(pool, instances)


def shared_pool_and_costs(chain, instances):
    """Today's ``enumerate`` + ``cost-matrix`` passes on the exhaustive space."""
    pool = all_variants(chain)
    return pool, CostMatrix(pool, instances).costs


def _interleaved_medians(fns):
    """Per-function median call time over per-call interleaved rounds."""
    samples = {name: [] for name in fns}
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


@pytest.mark.parametrize("n", [8, 10])
def test_shared_pool_acceptance(n):
    """CI bound at n=8: shared-subtree pool + cost matrix >= 3x per-tree."""
    rng = np.random.default_rng(8)
    chain = sample_shapes(n, 1, rng, rectangular_probability=0.5)[0]
    instances = np.asarray(
        sample_instances(chain, TRAINING_INSTANCES, rng), dtype=np.float64
    )
    legacy_pool, legacy_costs = legacy_pool_and_costs(chain, instances)
    pool, costs = shared_pool_and_costs(chain, instances)
    assert pool == legacy_pool
    assert np.array_equal(costs, legacy_costs)
    if n != 8:
        return  # n=10 checks parity only; timing it would take ~30 s
    timed = _interleaved_medians(
        {
            "per-tree": lambda: legacy_pool_and_costs(chain, instances),
            "shared": lambda: shared_pool_and_costs(chain, instances),
        }
    )
    speedup = timed["per-tree"] / timed["shared"]
    emit(
        f"Variant pool + cost matrix, n={n}, {len(pool)} variants x "
        f"{TRAINING_INSTANCES} instances (interleaved medians of {REPS})",
        f"per-tree {timed['per-tree'] * 1e3:8.1f} ms\n"
        f"shared   {timed['shared'] * 1e3:8.1f} ms\n"
        f"speedup  {speedup:8.1f}x (required >= {REQUIRED_SPEEDUP}x)",
    )
    assert speedup >= REQUIRED_SPEEDUP, timed


# -- the exhaustive selection path, as it was -----------------------------------

def exhaustive_select(chain, instances):
    """Enumerate + cost-matrix + select over the whole set ``A``."""
    matrix = CostMatrix(all_variants(chain), instances)
    sig_to_idx = {v.signature(): i for i, v in enumerate(matrix.variants)}
    builder = VariantBuilder(chain)
    candidates_by_h = {
        h: builder.build(fanning_out_tree(chain.n, h), name=f"E{h}")
        for h in range(chain.n + 1)
    }
    selected, selected_idx, selected_sigs = [], [], set()
    for cls in chain.equivalence_classes():
        if any(candidates_by_h[h].signature() in selected_sigs for h in cls):
            continue
        best, best_value = None, float("inf")
        for h in cls:
            variant = candidates_by_h[h]
            value = matrix.average_penalty(
                selected_idx + [sig_to_idx[variant.signature()]]
            )
            if value < best_value - TIE_TOLERANCE:
                best, best_value = variant, value
        selected.append(best)
        selected_idx.append(sig_to_idx[best.signature()])
        selected_sigs.add(best.signature())
    return selected


def pool_free_select(chain, instances):
    """Today's enumerate + cost-matrix + select passes at ``expand_by=0``,
    from a cold DP graph cache (as a fresh compile sees it)."""
    chain_dp.cache_clear()
    ctx = PassContext(source=chain, options=CompileOptions())
    ctx.chain, ctx.training_instances = chain, instances
    for compiler_pass in (EnumeratePass(), CostMatrixPass(), EssentialSetPass()):
        compiler_pass.run(ctx)
    return ctx.selected


@pytest.mark.parametrize("n", [8, 10])
def test_pool_free_selection_acceptance(n):
    """CI bound at n=8: pool-free selection >= 5x the exhaustive path."""
    rng = np.random.default_rng(8)
    chain = sample_shapes(n, 1, rng, rectangular_probability=0.5)[0]
    instances = np.asarray(
        sample_instances(chain, TRAINING_INSTANCES, rng), dtype=np.float64
    )
    expected = exhaustive_select(chain, instances)
    got = pool_free_select(chain, instances)
    assert [(v.name, v.signature()) for v in got] == [
        (v.name, v.signature()) for v in expected
    ]
    if n != 8:
        return  # n=10 checks parity only
    timed = _interleaved_medians(
        {
            "exhaustive": lambda: exhaustive_select(chain, instances),
            "pool-free": lambda: pool_free_select(chain, instances),
        }
    )
    speedup = timed["exhaustive"] / timed["pool-free"]
    emit(
        f"Theorem 2 selection, n={n}, {TRAINING_INSTANCES} instances "
        f"(enumerate + cost-matrix + select, interleaved medians of {REPS})",
        f"exhaustive {timed['exhaustive'] * 1e3:8.1f} ms\n"
        f"pool-free  {timed['pool-free'] * 1e3:8.1f} ms\n"
        f"speedup    {speedup:8.1f}x (required >= "
        f"{REQUIRED_POOL_FREE_SPEEDUP}x)",
    )
    assert speedup >= REQUIRED_POOL_FREE_SPEEDUP, timed


@pytest.fixture(scope="module")
def chain7():
    rng = np.random.default_rng(17)
    return sample_shapes(7, 1, rng, rectangular_probability=0.5)[0]


def test_build_single_variant(benchmark, chain7):
    tree = left_to_right_tree(7)
    variant = benchmark(build_variant, chain7, tree)
    assert len(variant.steps) == 6


def test_enumerate_all_variants(benchmark, chain7):
    variants = benchmark(all_variants, chain7)
    assert len(variants) == 132


def test_emit_cpp_translation_unit(benchmark, chain7):
    rng = np.random.default_rng(1)
    train = sample_instances(chain7, 300, rng)
    selected = essential_set(chain7, training_instances=train)
    source = benchmark(emit_cpp, chain7, selected)
    assert "dispatch" in source.lower() or "best" in source


def test_code_size_scaling(benchmark):
    """Generated code size grows linearly with the variant count."""
    rng = np.random.default_rng(2)
    chain = sample_shapes(6, 1, rng, rectangular_probability=0.5)[0]
    variants = all_variants(chain)

    def sweep():
        rows, sizes = [], []
        for k in (1, 2, 4, 8):
            source = emit_cpp(chain, variants[:k])
            lines = len(source.splitlines())
            rows.append(f"{k:2d} variants -> {lines:5d} lines of C++")
            sizes.append(lines)
        return rows, sizes

    rows, sizes = benchmark.pedantic(sweep, rounds=1, iterations=1)
    assert sizes == sorted(sizes) and len(set(sizes)) == len(sizes)
    emit("Code-size overhead vs variant count", "\n".join(rows))
