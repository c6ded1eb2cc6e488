"""The pass-based pipeline: staging, derivation, instrumentation."""

import numpy as np
import pytest

from repro.errors import CompilationError
from repro.compiler.pipeline import (
    CompileOptions,
    CompilerPass,
    PassContext,
    Pipeline,
    default_pipeline,
    fingerprint_instances,
)
from repro.compiler.selection import CostMatrix, all_variants, essential_set
from repro.experiments.sampling import sample_instances

from conftest import general_chain, make_general, make_lower


EXPECTED_ORDER = [
    "parse",
    "simplify",
    "sample",
    "enumerate",
    "cost-matrix",
    "select",
    "expand",
    "dispatch",
]


def run_pipeline(chain, **options):
    ctx = PassContext(source=chain, options=CompileOptions(**options))
    return default_pipeline().run(ctx)


class TestPipeline:
    def test_default_pass_order(self):
        assert [p.name for p in default_pipeline()] == EXPECTED_ORDER

    def test_full_run_produces_all_artifacts(self):
        # Expansion is what makes the enumerate pass build the whole pool.
        ctx = run_pipeline(
            general_chain(4), num_training_instances=50, expand_by=1
        )
        assert ctx.chain is not None
        assert ctx.training_instances.shape == (50, 5)
        assert len(ctx.variants) == 5  # Catalan(3)
        assert ctx.cost_matrix is not None
        assert ctx.selected and ctx.dispatcher is not None
        assert ctx.executed == EXPECTED_ORDER

    def test_matches_direct_theorem2_selection(self):
        chain = make_general("A") * make_lower("L").inv * make_general("B")
        ctx = run_pipeline(chain, num_training_instances=80)
        rng = np.random.default_rng(0)
        train = sample_instances(chain, 80, rng, low=2, high=1000)
        expected = essential_set(
            chain, cost_matrix=CostMatrix(all_variants(chain), train)
        )
        assert [v.signature() for v in ctx.selected] == [
            v.signature() for v in expected
        ]

    def test_parses_program_source(self):
        source = (
            "Matrix A <General, Singular>; Matrix B <General, Singular>;"
            " R := A * B;"
        )
        ctx = run_pipeline(source, num_training_instances=20)
        assert ctx.chain.n == 2

    def test_rejects_non_chain_input(self):
        with pytest.raises(CompilationError):
            run_pipeline(12345)

    def test_single_matrix_chain(self):
        from repro.ir import Chain

        ctx = run_pipeline(Chain((make_lower("L").inv,)))
        assert len(ctx.selected) == 1
        assert ctx.cost_matrix is None  # nothing to score

    def test_explicit_training_instances_skip_sampling(self):
        chain = general_chain(3)
        rng = np.random.default_rng(7)
        train = sample_instances(chain, 30, rng)
        ctx = PassContext(source=chain, options=CompileOptions())
        ctx.training_instances = train
        default_pipeline().run(ctx)
        np.testing.assert_array_equal(ctx.training_instances, train)

    def test_expand_by_grows_selected_set(self):
        chain = general_chain(5)
        base = run_pipeline(chain, num_training_instances=100)
        grown = run_pipeline(chain, num_training_instances=100, expand_by=2)
        assert len(grown.selected) >= len(base.selected)

    def test_skip_marks_passes(self):
        ctx = PassContext(source=general_chain(3), options=CompileOptions())
        pipeline = default_pipeline()
        # Pre-populate what the skipped passes would have produced.
        front = Pipeline([p for p in pipeline if p.name in ("parse", "simplify")])
        front.run(ctx)
        rng = np.random.default_rng(0)
        ctx.training_instances = sample_instances(ctx.chain, 10, rng)
        ctx.selected = essential_set(
            ctx.chain, training_instances=ctx.training_instances
        )
        pipeline.run(ctx, skip=("parse", "simplify", "sample", "enumerate",
                                "cost-matrix", "select", "expand"))
        assert ctx.dispatcher is not None
        assert "enumerate" in ctx.skipped and "enumerate" not in ctx.executed[2:]

    def test_timings_recorded(self):
        ctx = run_pipeline(general_chain(3), num_training_instances=10)
        assert set(ctx.timings) == set(EXPECTED_ORDER)
        assert all(t >= 0.0 for t in ctx.timings.values())

    def test_observer_sees_every_pass(self):
        seen = []
        pipeline = default_pipeline(
            observer=lambda p, ctx, elapsed: seen.append((p.name, elapsed))
        )
        ctx = PassContext(
            source=general_chain(3),
            options=CompileOptions(num_training_instances=10),
        )
        pipeline.run(ctx)
        assert [name for name, _ in seen] == EXPECTED_ORDER


class TestPipelineDerivation:
    def test_without(self):
        derived = default_pipeline().without("expand")
        assert "expand" not in [p.name for p in derived]
        assert len(derived) == len(EXPECTED_ORDER) - 1

    def test_without_unknown_raises(self):
        with pytest.raises(CompilationError):
            default_pipeline().without("nonexistent")

    def test_replaced(self):
        class NullExpand(CompilerPass):
            name = "expand"
            cacheable = True

            def run(self, ctx):
                pass

        derived = default_pipeline().replaced("expand", NullExpand())
        names = [p.name for p in derived]
        assert names == EXPECTED_ORDER
        assert isinstance(derived.passes[names.index("expand")], NullExpand)

    def test_extended_after(self):
        class Audit(CompilerPass):
            name = "audit"

            def run(self, ctx):
                ctx.timings.setdefault("audited", 1.0)

        derived = default_pipeline().extended(Audit(), after="select")
        names = [p.name for p in derived]
        assert names.index("audit") == names.index("select") + 1

    def test_duplicate_names_rejected(self):
        passes = list(default_pipeline().passes)
        with pytest.raises(CompilationError):
            Pipeline(passes + [passes[0]])

    def test_options_validation(self):
        with pytest.raises(CompilationError):
            CompileOptions(objective="median")


class TestFingerprint:
    def test_same_array_same_fingerprint(self):
        a = np.arange(12).reshape(3, 4)
        assert fingerprint_instances(a) == fingerprint_instances(a.copy())

    def test_different_values_differ(self):
        a = np.arange(12).reshape(3, 4)
        b = a.copy()
        b[0, 0] += 1
        assert fingerprint_instances(a) != fingerprint_instances(b)

    def test_shape_matters(self):
        a = np.arange(12).reshape(3, 4)
        assert fingerprint_instances(a) != fingerprint_instances(a.reshape(4, 3))
