"""CompilerSession: cached compilation, batch API, wrapper equivalence."""

import numpy as np
import pytest

from repro.api import compile_chain, compile_many
from repro.compiler import pipeline as pipeline_mod
from repro.compiler import variant_space as variant_space_mod
from repro.compiler.session import (
    CompilerSession,
    get_default_session,
    set_default_session,
)
from repro.experiments.sampling import sample_instances, sample_shapes

from conftest import general_chain, make_general, make_lower, make_symmetric


def same_generated(a, b) -> bool:
    """Whether two GeneratedCode results are equivalent compilations."""
    if [v.signature() for v in a.variants] != [v.signature() for v in b.variants]:
        return False
    if [v.name for v in a.variants] != [v.name for v in b.variants]:
        return False
    return np.array_equal(a.training_instances, b.training_instances)


@pytest.fixture
def session():
    return CompilerSession()


class TestCachedCompile:
    def test_second_compile_skips_enumeration_and_selection(self, session):
        chain = general_chain(4)
        first = session.compile(chain, num_training_instances=40)
        assert session.last_context.executed == [
            "parse", "simplify", "sample", "enumerate", "cost-matrix",
            "select", "expand", "dispatch",
        ]
        second = session.compile(chain, num_training_instances=40)
        assert session.last_context.executed == ["parse", "simplify", "dispatch"]
        assert set(session.last_context.skipped) == {
            "sample", "enumerate", "cost-matrix", "select", "expand",
        }
        assert same_generated(first, second)
        stats = session.cache_stats()
        assert stats.hits == 1 and stats.misses == 1

    def test_cache_hit_performs_no_enumeration_work(self, session, monkeypatch):
        chain = make_general("A") * make_lower("L").inv * make_general("B")
        expected = session.compile(chain, num_training_instances=40)

        def explode(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("enumeration/selection ran on a cache hit")

        monkeypatch.setattr(variant_space_mod, "all_variants", explode)
        monkeypatch.setattr(variant_space_mod, "resolve_space", explode)
        monkeypatch.setattr(pipeline_mod, "essential_set", explode)
        monkeypatch.setattr(pipeline_mod, "expand_set", explode)
        hit = session.compile(chain, num_training_instances=40)
        assert same_generated(expected, hit)

    def test_renamed_chain_hits_and_rebinds(self, session):
        chain = make_general("A") * make_general("B") * make_general("C")
        renamed = make_general("X") * make_general("Y") * make_general("Z")
        first = session.compile(chain, num_training_instances=40)
        second = session.compile(renamed, num_training_instances=40)
        assert session.cache_stats().hits == 1
        assert [m.name for m in second.chain.matrices] == ["X", "Y", "Z"]
        assert [v.signature() for v in first.variants] == [
            v.signature() for v in second.variants
        ]
        # The rebound code executes correctly under the new names.
        a, b, c = np.ones((2, 3)), np.ones((3, 4)), np.ones((4, 5))
        np.testing.assert_allclose(second(a, b, c), (a @ b) @ c)

    def test_option_changes_miss(self, session):
        chain = general_chain(3)
        session.compile(chain, num_training_instances=30)
        session.compile(chain, num_training_instances=30, expand_by=1)
        session.compile(chain, num_training_instances=30, seed=5)
        assert session.cache_stats().hits == 0
        assert session.cache_stats().misses == 3

    def test_explicit_training_instances_fingerprinted(self, session):
        chain = general_chain(3)
        rng = np.random.default_rng(3)
        train_a = sample_instances(chain, 20, rng)
        train_b = sample_instances(chain, 20, rng)
        session.compile(chain, training_instances=train_a)
        session.compile(chain, training_instances=train_b)
        assert session.cache_stats().hits == 0  # different data, no false hit
        session.compile(chain, training_instances=train_a)
        assert session.cache_stats().hits == 1

    def test_none_knobs_mean_session_default(self, session):
        chain = general_chain(3)
        explicit = session.compile(chain, num_training_instances=20)
        via_none = session.compile(
            chain,
            num_training_instances=20,
            expand_by=None,
            simplify=None,  # must NOT disable simplification
            objective=None,
            seed=None,
        )
        assert same_generated(explicit, via_none)
        assert session.cache_stats().hits == 1  # same resolved options
        batch = session.compile_many(
            [chain], num_training_instances=20, expand_by=None
        )
        assert same_generated(batch[0], explicit)

    def test_use_cache_false_bypasses(self, session):
        chain = general_chain(3)
        session.compile(chain, num_training_instances=20, use_cache=False)
        session.compile(chain, num_training_instances=20, use_cache=False)
        assert session.cache_stats().lookups == 0

    def test_single_matrix_chain_cached(self, session):
        from repro.ir import Chain

        chain = Chain((make_symmetric("S", spd=True).inv,))
        first = session.compile(chain)
        second = session.compile(chain)
        assert len(first) == len(second) == 1
        assert session.cache_stats().hits == 1

    def test_simplification_feeds_the_cache_key(self, session):
        # S^T rewrites to S (symmetric transpose is a no-op), so the two
        # spellings land on the same post-simplification cache entry.
        s = make_symmetric("S")
        g = make_general("G")
        session.compile(s * g, num_training_instances=20)
        session.compile(s.T * g, num_training_instances=20)
        assert session.cache_stats().hits == 1

    def test_unknown_compile_option_raises_named_error(self, session):
        from repro.errors import CompilationError

        with pytest.raises(CompilationError, match="unknown compile option"):
            session.compile(general_chain(3), objectvie="avg")  # typo
        with pytest.raises(CompilationError, match="objective"):
            session.compile_many([general_chain(3)], exapnd_by=1)  # typo

    def test_custom_pipeline_does_not_share_cache_entries(self, tmp_path):
        from repro.compiler.pipeline import CompilerPass, default_pipeline

        class SelectAll(CompilerPass):
            """A swapped selection strategy: keep every variant."""

            name = "select"
            cacheable = True

            def run(self, ctx):
                ctx.selected = list(ctx.require("variants"))

        chain = general_chain(5)
        # With expansion requested the enumerate pass builds the whole
        # exhaustive pool, which SelectAll keeps.
        default_session = CompilerSession(cache_dir=tmp_path)
        base = default_session.compile(
            chain, num_training_instances=20, expand_by=1
        )

        custom = CompilerSession(
            pipeline=default_pipeline().replaced("select", SelectAll()),
            cache_dir=tmp_path,
        )
        everything = custom.compile(
            chain, num_training_instances=20, expand_by=1
        )
        # The custom pipeline must compile for itself (14 = Catalan(4)
        # variants), not be served the default pipeline's Theorem 2 set.
        assert custom.cache_stats().misses == 1
        assert len(everything) == 14
        assert len(base) < len(everything)

    def test_spliced_pass_can_guard_on_cache_hit(self, session):
        from repro.compiler.pipeline import CompilerPass, default_pipeline
        from repro.errors import CompilationError

        counts = []

        class CountVariants(CompilerPass):
            name = "count"

            def run(self, ctx):
                if ctx.cache_hit:
                    counts.append(None)  # intermediates absent on a hit
                else:
                    counts.append(len(ctx.require("variants")))

        session.pipeline = session.pipeline.extended(
            CountVariants(), after="enumerate"
        )
        chain = general_chain(3)
        session.compile(chain, num_training_instances=20)
        session.compile(chain, num_training_instances=20)
        assert counts == [2, None]

        # An unguarded require on a hit fails with a message naming the cause.
        class Unguarded(CompilerPass):
            name = "unguarded"

            def run(self, ctx):
                ctx.require("variants")

        fresh = CompilerSession(
            pipeline=default_pipeline().extended(Unguarded(), after="enumerate")
        )
        fresh.compile(chain, num_training_instances=20)
        with pytest.raises(CompilationError, match="cache_hit"):
            fresh.compile(chain, num_training_instances=20)

    def test_pass_cache_token_distinguishes_configurations(self):
        from repro.compiler.pipeline import CompilerPass, default_pipeline

        class TopK(CompilerPass):
            name = "select"
            cacheable = True

            def __init__(self, k):
                self.k = k

            def cache_token(self):
                return (self.k,)

            def run(self, ctx):
                ctx.selected = list(ctx.require("variants"))[: self.k]

        p2 = default_pipeline().replaced("select", TopK(2))
        p8 = default_pipeline().replaced("select", TopK(8))
        assert p2.fingerprint() != p8.fingerprint()
        assert p2.fingerprint() == default_pipeline().replaced(
            "select", TopK(2)
        ).fingerprint()

    def test_same_training_data_different_seed_still_hits(self, session):
        chain = general_chain(3)
        rng = np.random.default_rng(9)
        train = sample_instances(chain, 20, rng)
        session.compile(chain, training_instances=train, seed=0)
        session.compile(chain, training_instances=train.copy(), seed=99)
        # The sampling knobs never ran; identical data must hit.
        assert session.cache_stats().hits == 1

    def test_disk_backed_session_survives_restart(self, tmp_path):
        chain = general_chain(4)
        first_session = CompilerSession(cache_dir=tmp_path)
        first = first_session.compile(chain, num_training_instances=30)
        fresh = CompilerSession(cache_dir=tmp_path)
        second = fresh.compile(chain, num_training_instances=30)
        assert fresh.cache_stats().disk_hits == 1
        assert "enumerate" in fresh.last_context.skipped
        assert same_generated(first, second)


class TestCompileMany:
    def _distinct_chains(self, count=8):
        rng = np.random.default_rng(11)
        chains = []
        for n in (3, 4, 5):
            chains.extend(sample_shapes(n, 3, rng, rectangular_probability=0.5))
        return chains[:count]

    def test_matches_sequential_compilation(self):
        chains = self._distinct_chains(8)
        assert len(chains) == 8
        batch_session = CompilerSession()
        batch = batch_session.compile_many(chains, num_training_instances=40)
        sequential_session = CompilerSession()
        sequential = [
            sequential_session.compile(c, num_training_instances=40)
            for c in chains
        ]
        assert len(batch) == len(sequential) == 8
        for got, want in zip(batch, sequential):
            assert same_generated(got, want)
            assert got.chain == want.chain

    def test_structural_duplicates_compile_once(self):
        session = CompilerSession()
        base = make_general("A") * make_general("B") * make_general("C")
        clones = [base]
        for prefix in ("X", "Y", "Z"):
            clones.append(
                make_general(f"{prefix}1")
                * make_general(f"{prefix}2")
                * make_general(f"{prefix}3")
            )
        results = session.compile_many(clones, num_training_instances=30)
        assert session.cache_stats().misses == 1  # one structure, one compile
        names = [[m.name for m in r.chain.matrices] for r in results]
        assert names[1] == ["X1", "X2", "X3"]
        sigs = {tuple(v.signature() for v in r.variants) for r in results}
        assert len(sigs) == 1

    def test_empty_batch(self):
        assert CompilerSession().compile_many([]) == []

    def test_duplicates_survive_lru_eviction(self):
        # More distinct structures than cache slots: duplicates must still
        # be served from their representative's in-memory result, not
        # recompiled after eviction.
        session = CompilerSession(cache_capacity=1)
        distinct = [general_chain(n) for n in (3, 4, 5)]
        batch = distinct + [
            make_general("X") * make_general("Y") * make_general("Z"),  # dup of n=3
        ]
        results = session.compile_many(batch, num_training_instances=20)
        stats = session.cache_stats()
        assert stats.misses == 3  # one per distinct structure, none for the dup
        assert [v.signature() for v in results[3].variants] == [
            v.signature() for v in results[0].variants
        ]
        assert [m.name for m in results[3].chain.matrices] == ["X", "Y", "Z"]

    def test_batch_without_cache(self):
        session = CompilerSession()
        chains = self._distinct_chains(4)
        results = session.compile_many(
            chains, num_training_instances=20, use_cache=False
        )
        assert len(results) == 4
        assert session.cache_stats().lookups == 0

    def test_api_level_compile_many_matches_compile_chain(self):
        chains = self._distinct_chains(8)
        session = CompilerSession()
        batch = compile_many(chains, session=session, num_training_instances=30)
        for chain, got in zip(chains, batch):
            want = compile_chain(
                chain,
                num_training_instances=30,
                session=CompilerSession(),
            )
            assert same_generated(got, want)


class TestExpressionAndWrappers:
    def test_compile_expression_shares_cache_across_terms(self, session):
        source = "Matrix A <General, Singular>; R := A + 2 * A;"
        generated = session.compile_expression(source, num_training_instances=20)
        assert len(generated) == 2
        assert session.cache_stats().hits == 1  # second term is the same shape

    def test_compile_expression_merges_term_contexts(self, session):
        source = "Matrix A <General, Singular>; R := A + 2 * A;"
        session.compile_expression(source, num_training_instances=20)
        ctx = session.last_context
        # Timings cover both terms: dispatch ran twice, so the executed
        # trace lists it twice, and the cache-hit skips of term 2 are there.
        assert ctx.executed.count("dispatch") == 2
        assert "enumerate" in ctx.skipped
        assert ctx.timings["dispatch"] > 0.0

    def test_package_level_exports(self):
        import repro

        assert repro.compile_many is compile_many
        assert repro.CompilerSession is CompilerSession

    def test_last_context_is_slim(self, session):
        session.compile(general_chain(4), num_training_instances=20)
        ctx = session.last_context
        # Instrumentation survives; the heavy artifacts are not pinned.
        assert ctx.timings and ctx.executed
        assert ctx.variants is None
        assert ctx.cost_matrix is None
        assert ctx.training_instances is None

    def test_default_session_creation_is_thread_safe(self, monkeypatch):
        """Concurrent first calls build exactly one shared session.

        Without the lock in ``get_default_session``, N threads racing the
        lazy initialisation could each build (and partially use) their own
        session, splitting the cache.
        """
        import threading

        from repro.compiler import session as session_mod

        created = []
        real_init = CompilerSession.__init__

        def counting_init(self, **kwargs):
            created.append(self)
            real_init(self, **kwargs)

        monkeypatch.setattr(CompilerSession, "__init__", counting_init)
        set_default_session(None)
        try:
            barrier = threading.Barrier(16)
            observed = []

            def first_call():
                barrier.wait()
                observed.append(session_mod.get_default_session())

            threads = [threading.Thread(target=first_call) for _ in range(16)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert len(observed) == 16
            assert len({id(s) for s in observed}) == 1
            assert len(created) == 1
        finally:
            set_default_session(None)

    def test_concurrent_compile_chain_shares_one_cache(self):
        """compile_chain from many threads: one session, one compilation."""
        import threading

        set_default_session(None)
        try:
            chain = general_chain(3)
            barrier = threading.Barrier(8)
            results = []

            def compile_one():
                barrier.wait()
                results.append(compile_chain(chain, num_training_instances=20))

            threads = [threading.Thread(target=compile_one) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert len(results) == 8
            stats = get_default_session().cache_stats()
            # All eight went through one shared cache (the racing threads
            # may each miss before the first put lands, but the session —
            # and therefore the counter totals — is shared).
            assert stats.lookups == 8
            signatures = {
                tuple(v.signature() for v in r.variants) for r in results
            }
            assert len(signatures) == 1
        finally:
            set_default_session(None)

    def test_api_reexports_default_session_accessors(self):
        import repro
        from repro import api

        assert api.get_default_session is get_default_session
        assert repro.get_default_session is get_default_session
        assert repro.set_default_session is set_default_session

    def test_compile_chain_uses_default_session(self):
        set_default_session(None)
        try:
            chain = general_chain(4)
            compile_chain(chain, num_training_instances=25)
            compile_chain(chain, num_training_instances=25)
            assert get_default_session().cache_stats().hits >= 1
        finally:
            set_default_session(None)

    def test_pipeline_reassignment_refreshes_derived_state(self):
        session = CompilerSession()
        chain = general_chain(4)
        session.compile(chain, expand_by=1, num_training_instances=20)
        session.pipeline = session.pipeline.without("expand")
        # New fingerprint -> no stale hit; removed pass -> no crash.
        trimmed = session.compile(chain, expand_by=1, num_training_instances=20)
        assert session.cache_stats().hits == 0
        assert "expand" not in session.last_context.executed
        assert len(trimmed) >= 1

    def test_compile_chain_respects_session_options(self):
        from repro.compiler.pipeline import CompileOptions

        session = CompilerSession(
            options=CompileOptions(expand_by=2, num_training_instances=40)
        )
        chain = general_chain(5)
        via_wrapper = compile_chain(chain, session=session)
        direct = session.compile(chain)
        assert same_generated(via_wrapper, direct)
        # An explicit knob still wins over the session default.
        overridden = compile_chain(chain, expand_by=0, session=session)
        assert len(overridden) <= len(direct)

    def test_compile_many_accepts_training_instances(self):
        session = CompilerSession()
        chains = [general_chain(3), make_general("A") * make_general("B") * make_general("C")]
        rng = np.random.default_rng(2)
        train = sample_instances(chains[0], 25, rng)
        batch = session.compile_many(chains, training_instances=train)
        reference = CompilerSession()
        for chain, got in zip(chains, batch):
            want = reference.compile(chain, training_instances=train)
            assert same_generated(got, want)

    def test_wrapper_results_unchanged_by_caching(self):
        chain = make_general("A") * make_symmetric("S", spd=True).inv
        cached = compile_chain(
            chain, num_training_instances=30, session=CompilerSession()
        )
        uncached_session = CompilerSession()
        uncached = uncached_session.compile(
            chain, num_training_instances=30, use_cache=False
        )
        assert same_generated(cached, uncached)
