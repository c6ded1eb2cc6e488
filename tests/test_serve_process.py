"""CompileService(workers_mode="process"): artifact fan-out over a pool.

One module-scoped service amortizes the spawn-mode worker startup (the
processes boot a fresh interpreter and import numpy + repro).
"""

import numpy as np
import pytest

from repro.compiler.program import CompiledProgram
from repro.compiler.session import CompilerSession
from repro.experiments.sampling import sample_instances, sample_shapes
from repro.serve import CompileService
from repro.serve import procpool

from conftest import general_chain, make_general, make_lower

TRAIN = 30


@pytest.fixture(scope="module")
def service():
    service = CompileService(workers=2, workers_mode="process", warm=False)
    service.prestart()
    yield service
    service.close()


class TestProcessMode:
    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="workers_mode"):
            CompileService(workers_mode="fibers")

    def test_stats_report_mode(self, service):
        assert service.stats()["workers_mode"] == "process"

    def test_compiles_match_in_process_compilation(self, service):
        chain = make_general("A") * make_lower("L").inv * make_general("B")
        generated = service.compile(
            chain, num_training_instances=TRAIN, seed=4, timeout=300
        )
        local = CompilerSession().compile(
            chain, num_training_instances=TRAIN, seed=4
        )
        assert [v.signature() for v in generated.variants] == [
            v.signature() for v in local.variants
        ]
        rng = np.random.default_rng(0)
        for q in sample_instances(chain, 10, rng, low=2, high=300):
            q = tuple(int(x) for x in q)
            a, cost_a = generated.select(q)
            b, cost_b = local.select(q)
            assert a.signature() == b.signature()
            assert cost_a == pytest.approx(cost_b)

    def test_artifact_lands_in_parent_cache(self, service):
        chain = general_chain(5)
        service.compile(chain, num_training_instances=TRAIN, timeout=300)
        # Same structure again: served from the parent session cache, no
        # second pool round-trip.
        before = service.metrics.snapshot()["compiled"]
        service.compile(general_chain(5), num_training_instances=TRAIN, timeout=300)
        after = service.metrics.snapshot()
        assert after["compiled"] == before
        assert after["cache_hits"] >= 1

    def test_coalescing_coexists_with_process_pool(self, service):
        chains = [
            make_general(f"X{i}") * make_general(f"Y{i}") * make_general(f"Z{i}")
            for i in range(6)
        ]
        before = service.metrics.snapshot()
        results = service.compile_many(
            chains, num_training_instances=TRAIN, use_cache=False, timeout=300
        )
        after = service.metrics.snapshot()
        assert len(results) == 6
        reference = [v.signature() for v in results[0].variants]
        for generated in results:
            assert [v.signature() for v in generated.variants] == reference
            assert [op.matrix.name for op in generated.chain] != None  # noqa: E711
        # One pipeline execution (in a worker process), five coalesced.
        assert after["compiled"] - before["compiled"] == 1
        assert after["coalesced"] - before["coalesced"] == 5

    def test_distinct_structures_fan_out(self, service):
        rng = np.random.default_rng(17)
        chains = sample_shapes(5, 4, rng, rectangular_probability=0.5)
        results = service.compile_many(
            chains, num_training_instances=TRAIN, use_cache=False, timeout=300
        )
        assert len(results) == 4
        for chain, generated in zip(chains, results):
            assert generated.chain == chain
            assert len(generated.variants) >= 1

    def test_errors_propagate_from_worker(self, service):
        from repro.errors import CompilationError

        # The back pipeline (which runs inside the worker process) refuses
        # unbounded exhaustive enumeration on a long chain (only expansion
        # builds a pool); the failure must surface through the future, not
        # wedge the pool.
        with pytest.raises(CompilationError, match="parenthesizations"):
            service.compile(
                general_chain(16),
                variant_space="exhaustive",
                expand_by=1,
                num_training_instances=TRAIN,
                use_cache=False,
                timeout=300,
            )
        # The pool is still healthy afterwards.
        generated = service.compile(
            general_chain(3), num_training_instances=TRAIN, timeout=300
        )
        assert len(generated.variants) >= 1


class TestProcessModeSafety:
    def test_custom_pipeline_session_compiles_in_parent(self):
        """A customized pipeline must never be offloaded to pool workers.

        The workers run the default pipeline; offloading a session whose
        pipeline drops the expansion pass would cache a wrong-pipeline
        artifact under the custom pipeline's key.
        """
        session = CompilerSession()
        session.pipeline = session.pipeline.without("expand")
        reference = session.compile(
            general_chain(5), num_training_instances=TRAIN, expand_by=3,
            use_cache=False,
        )
        with CompileService(
            session, workers=2, workers_mode="process", warm=False
        ) as service:
            assert service._offload_to_pool() is False
            generated = service.compile(
                general_chain(5), num_training_instances=TRAIN, expand_by=3,
                use_cache=False, timeout=300,
            )
        # Without the expansion pass, expand_by must have no effect — in
        # both the plain session and the process-mode service.
        assert [v.signature() for v in generated.variants] == [
            v.signature() for v in reference.variants
        ]

    def test_worker_diagnostics_surface_in_parent_stats(self, service):
        service.compile(
            general_chain(6), num_training_instances=TRAIN,
            use_cache=False, timeout=300,
        )
        stats = service.stats()
        last = stats["last_compile"]
        # The pipeline ran in a worker process, but its instrumentation
        # (enumerate timing, variant-pool diagnostics) still reaches the
        # parent's stats and the produced artifact.
        assert "enumerate" in last["timings_ms"]
        assert last["variant_pool"]["pool_size"] >= 1


class TestProcessModeClose:
    def test_close_without_wait_completes_queued_work(self):
        """close(wait=False) must not yank the pool from queued compiles."""
        service = CompileService(workers=2, workers_mode="process", warm=False)
        service.prestart()
        # Distinct structures: four separate queue records, each needing
        # its own pool round-trip after close() returns.
        chains = [general_chain(n) for n in (2, 3, 4, 5)]
        futures = service.submit_many(
            chains, num_training_instances=TRAIN, use_cache=False
        )
        service.close(wait=False)
        results = [future.result(timeout=300) for future in futures]
        assert all(len(generated.variants) >= 1 for generated in results)


class TestWireCodec:
    def test_encode_request_is_json_clean(self):
        import json

        session = CompilerSession()
        ctx, _ = session.prepare(
            general_chain(4), training_instances=None
        )
        request = procpool.encode_request(ctx, use_cache=False)
        json.dumps(request)  # must not raise
        assert request["options"]["simplify"] is False
        assert request["use_cache"] is False

    def test_compile_job_round_trip(self):
        """The worker entry point runs in-process too (same code path)."""
        session = CompilerSession()
        ctx, _ = session.prepare(general_chain(4))
        request = procpool.encode_request(ctx)
        request["options"]["num_training_instances"] = TRAIN
        wire = procpool.compile_job(request)
        program = CompiledProgram.loads(wire)
        assert program.chain.n == 4
        assert len(program.variants) >= 1

    def test_explicit_training_instances_ship_as_lists(self):
        chain = general_chain(3)
        rng = np.random.default_rng(1)
        train = sample_instances(chain, 12, rng)
        session = CompilerSession()
        ctx, _ = session.prepare(chain, training_instances=train)
        request = procpool.encode_request(ctx)
        assert isinstance(request["training_instances"], list)
        program = CompiledProgram.loads(procpool.compile_job(request))
        np.testing.assert_allclose(program.training_instances, train)
