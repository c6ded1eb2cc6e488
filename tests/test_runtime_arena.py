"""Allocation-free warm replay: PlanArena, out= buffers, dispatcher pooling."""

import tracemalloc

import numpy as np
import pytest

from repro.compiler.selection import all_variants
from repro.runtime import Dispatcher, PlanArena, compile_plan
from repro.runtime.dispatcher import ARENA_POOL_CAP

from conftest import general_chain

SIZES = (32, 48, 24, 40)


@pytest.fixture(scope="module")
def chain():
    return general_chain(3)


@pytest.fixture(scope="module")
def variants(chain):
    return all_variants(chain)


def instance(rng, sizes=SIZES):
    return [
        rng.standard_normal((sizes[i], sizes[i + 1]))
        for i in range(len(sizes) - 1)
    ]


class TestPlanArena:
    def test_new_arena_requires_one_replay(self, variants):
        plan = compile_plan(variants[0], [8, 9, 10, 11], backend="reference")
        assert plan.new_arena() is None  # shapes unknown until a replay
        assert plan.result_shape is None
        values = [np.ones((8, 9)), np.ones((9, 10)), np.ones((10, 11))]
        result = plan.replay(values)
        plan.record_buffer_shapes(values, result)
        arena = plan.new_arena()
        assert isinstance(arena, PlanArena)
        assert plan.result_shape == (8, 11)

    def test_final_step_buffer_is_never_arena_backed(self, variants):
        plan = compile_plan(variants[0], [8, 9, 10, 11], backend="reference")
        values = list(instance(np.random.default_rng(0), (8, 9, 10, 11)))
        result = plan.replay(values)
        plan.record_buffer_shapes(values, result)
        arena = plan.new_arena()
        assert arena.buffers[-1] is None
        assert arena.nbytes > 0

    def test_arena_replay_matches_plain_replay(self, variants):
        rng = np.random.default_rng(1)
        arrays = instance(rng)
        for variant in variants:
            plan = compile_plan(variant, SIZES, backend="reference")
            plain_values = [np.asarray(a, dtype=np.float64) for a in arrays]
            plain = plan.replay(plain_values)
            plan.record_buffer_shapes(plain_values, plain)
            arena = plan.new_arena()
            if arena is None:
                continue
            warm = plan.replay(
                [np.asarray(a, dtype=np.float64) for a in arrays], arena
            )
            assert np.array_equal(warm, plain)
            # The arena is reusable: a second replay is still correct
            # (stale buffer contents must be fully overwritten).
            again = plan.replay(
                [np.asarray(a, dtype=np.float64) for a in arrays], arena
            )
            assert np.array_equal(again, plain)

    def test_result_never_aliases_arena(self, variants):
        plan = compile_plan(variants[0], SIZES, backend="reference")
        arrays = instance(np.random.default_rng(2))
        values = [np.asarray(a, dtype=np.float64) for a in arrays]
        result = plan.replay(values)
        plan.record_buffer_shapes(values, result)
        arena = plan.new_arena()
        first = plan.replay(
            [np.asarray(a, dtype=np.float64) for a in arrays], arena
        )
        snapshot = first.copy()
        plan.replay([np.asarray(a, dtype=np.float64) for a in arrays], arena)
        # A second replay on the same arena must not clobber the first
        # result the caller still holds.
        assert np.array_equal(first, snapshot)

    def test_out_buffer_receives_result(self, variants):
        plan = compile_plan(variants[0], SIZES, backend="reference")
        arrays = instance(np.random.default_rng(3))
        expected = plan.replay(
            [np.asarray(a, dtype=np.float64) for a in arrays]
        )
        out = np.empty_like(expected)
        got = plan.replay(
            [np.asarray(a, dtype=np.float64) for a in arrays], None, out
        )
        assert got is out
        assert np.array_equal(out, expected)


class TestDispatcherReuse:
    def test_run_reuse_buffers_matches_default(self, chain, variants):
        rng = np.random.default_rng(4)
        arrays = instance(rng)
        plain = Dispatcher(chain, variants, backend="reference")
        pooled = Dispatcher(chain, variants, backend="reference")
        expected = plain.run(arrays).result
        first = pooled.run(arrays, reuse_buffers=True).result  # cold
        warm = pooled.run(arrays, reuse_buffers=True).result  # arena-backed
        assert np.array_equal(first, expected)
        assert np.array_equal(warm, expected)
        stats = pooled.memo_stats()
        assert stats["idle_arenas"] >= 1
        assert stats["arena_bytes"] > 0

    def test_arena_pool_is_bounded(self, chain, variants):
        dispatcher = Dispatcher(chain, variants, backend="reference")
        arrays = instance(np.random.default_rng(5))
        for _ in range(ARENA_POOL_CAP + 4):
            dispatcher.run(arrays, reuse_buffers=True)
        assert dispatcher.memo_stats()["idle_arenas"] <= ARENA_POOL_CAP

    def test_backend_swap_invalidates_arenas(self, chain, variants):
        dispatcher = Dispatcher(chain, variants, backend="reference")
        arrays = instance(np.random.default_rng(6))
        dispatcher.run(arrays, reuse_buffers=True)
        dispatcher.run(arrays, reuse_buffers=True)
        assert dispatcher.memo_stats()["idle_arenas"] >= 1
        dispatcher.backend = "blas"
        assert dispatcher.memo_stats()["idle_arenas"] == 0
        # And the swapped backend still answers correctly.
        expected = np.linalg.multi_dot(arrays)
        outcome = dispatcher.run(arrays, reuse_buffers=True)
        assert np.allclose(outcome.result, expected)

    def test_out_parameter_via_dispatcher(self, chain, variants):
        dispatcher = Dispatcher(chain, variants, backend="reference")
        arrays = instance(np.random.default_rng(7))
        expected = dispatcher.run(arrays).result
        out = np.empty_like(expected)
        outcome = dispatcher.run(arrays, out=out, reuse_buffers=True)
        assert outcome.result is out
        assert np.array_equal(out, expected)

    def test_warm_replay_is_allocation_free(self, chain, variants):
        """The tentpole gate: warm replays allocate no array-sized blocks.

        Small Python-object churn (the values list, floats, the outcome
        tuple) is unavoidable and irrelevant; the gate is on blocks big
        enough to be matrix buffers (>= 16 KiB).
        """
        dispatcher = Dispatcher(chain, variants, backend="reference")
        sizes = (64, 96, 48, 80)
        arrays = [
            np.ascontiguousarray(a)
            for a in instance(np.random.default_rng(8), sizes)
        ]
        dispatcher.run(arrays, reuse_buffers=True)  # cold: records shapes
        warm = dispatcher.run(arrays, reuse_buffers=True)  # builds the arena
        out = np.empty(warm.result.shape)
        tracemalloc.start()
        for _ in range(5):
            dispatcher.run(arrays, out=out, reuse_buffers=True)
        snapshot = tracemalloc.take_snapshot()
        tracemalloc.stop()
        big = [
            stat
            for stat in snapshot.statistics("lineno")
            if stat.size >= 16 * 1024
        ]
        assert big == [], [str(stat) for stat in big]

    def test_traced_replay_uses_arena_and_honours_out(self, chain, variants):
        """Tracing times the replay that serving runs: a traced
        ``reuse_buffers`` run checks out and returns a pooled arena, and
        writes into the caller's ``out``."""
        from repro.obs import trace as obs_trace

        dispatcher = Dispatcher(chain, variants, backend="reference")
        arrays = instance(np.random.default_rng(9))
        expected = Dispatcher(chain, variants, backend="reference").run(
            arrays
        ).result
        checked_out = []
        checkout = dispatcher._checkout_arena

        def spy(entry, plan):
            arena = checkout(entry, plan)
            checked_out.append(arena)
            return arena

        dispatcher._checkout_arena = spy
        obs_trace.enable()
        try:
            cold = dispatcher.run(arrays, reuse_buffers=True)  # records shapes
            warm = dispatcher.run(arrays, reuse_buffers=True)
            out = np.empty_like(expected)
            traced_out = dispatcher.run(arrays, out=out, reuse_buffers=True)
        finally:
            obs_trace.disable()
            obs_trace.drain()
        assert checked_out[0] is None
        assert isinstance(checked_out[1], PlanArena)
        assert checked_out[2] is checked_out[1]  # returned, then reused
        assert dispatcher.memo_stats()["idle_arenas"] == 1
        assert np.array_equal(cold.result, expected)
        assert np.array_equal(warm.result, expected)
        assert traced_out.result is out
        assert np.array_equal(out, expected)
