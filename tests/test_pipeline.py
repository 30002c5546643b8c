"""The pass pipeline: per-pass reports, stable order, batch driver."""

import dataclasses
import hashlib
import json
import pickle

import pytest

from repro.compiler.compile import CompileOptions, compile_term
from repro.compiler.pipeline import (
    CompilationContext,
    FnPass,
    KernelCompileError,
    Pipeline,
    baseline_kernel_pipeline,
    compile_many,
    kernel_pipeline,
    term_pipeline,
)
from repro.compiler.frontend import trace_kernel
from repro.egraph.runner import RunnerLimits
from repro.kernels.specs import kernel_spec_hash


@pytest.fixture(scope="module")
def vadd_program():
    return trace_kernel(
        "vadd",
        lambda x, y: [x[i] + y[i] for i in range(4)],
        {"x": 4, "y": 4},
        4,
    )


@pytest.fixture(scope="module")
def vmul_program():
    return trace_kernel(
        "vmul",
        lambda x, y: [x[i] * y[i] for i in range(4)],
        {"x": 4, "y": 4},
        4,
    )


@pytest.fixture(scope="module")
def compiled_report(isaria_compiler, vadd_program):
    _, report = isaria_compiler.compile_term(vadd_program.term)
    return report


class TestPassReports:
    def test_pass_entries_sum_to_elapsed(self, compiled_report):
        total = sum(p.elapsed for p in compiled_report.passes)
        assert total == pytest.approx(compiled_report.elapsed, abs=1e-6)

    def test_term_pipeline_pass_names(self, compiled_report):
        assert [p.name for p in compiled_report.passes] == [
            "saturate", "optimize", "extract",
        ]
        assert all(p.status == "ok" for p in compiled_report.passes)

    def test_pass_times_keys_in_order(self, compiled_report):
        assert list(compiled_report.pass_times()) == [
            "saturate", "optimize", "extract",
        ]

    def test_kernel_pipeline_reports_all_stages(
        self, isaria_compiler, vadd_program
    ):
        kernel = isaria_compiler.compile_kernel(vadd_program)
        report = kernel.report
        assert [p.name for p in report.passes] == [
            "frontend", "saturate", "optimize", "extract", "validate",
            "lower",
        ]
        assert sum(p.elapsed for p in report.passes) == pytest.approx(
            report.elapsed, abs=1e-6
        )
        lower = report.passes[-1]
        assert lower.detail["n_instructions"] == len(
            kernel.machine_program.instrs
        )

    def test_optimize_detail_is_an_iteration_count(self, compiled_report):
        # A count, not the RunnerReport's IterationReport list: the
        # per-iteration detail lives in the eqsat.iteration spans.
        detail = {p.name: p.detail for p in compiled_report.passes}
        optimize = detail["optimize"]
        assert json.loads(json.dumps(optimize)) == optimize == {
            "n_iterations": compiled_report.optimization.n_iterations,
        }

    def test_disabled_validation_reports_skipped(
        self, isaria_compiler, vadd_program
    ):
        kernel = isaria_compiler.compile_kernel(vadd_program,
                                                validate=False)
        by_name = {p.name: p for p in kernel.report.passes}
        assert by_name["validate"].status == "skipped"


class TestAblationStability:
    def _names_and_statuses(self, compiler, term, **overrides):
        options = dataclasses.replace(compiler.options, **overrides)
        _, report = compile_term(
            term, compiler.ruleset, compiler.cost_model, options
        )
        return report, [(p.name, p.status) for p in report.passes]

    def test_order_stable_under_unphased(
        self, isaria_compiler, vadd_program
    ):
        report, passes = self._names_and_statuses(
            isaria_compiler, vadd_program.term, phased=False
        )
        assert [name for name, _ in passes] == [
            "saturate", "optimize", "extract",
        ]
        assert dict(passes)["optimize"] == "skipped"
        saturate = report.passes[0].detail
        assert json.loads(json.dumps(saturate)) == saturate == {
            "mode": "unphased",
            "n_iterations": report.rounds[0].compilation.n_iterations,
        }
        # Report shape of the ablation is unchanged by the pipeline.
        assert len(report.rounds) == 1
        assert report.rounds[0].expansion is None
        assert report.optimization is None
        assert sum(p.elapsed for p in report.passes) == pytest.approx(
            report.elapsed, abs=1e-6
        )

    def test_order_stable_under_no_pruning(
        self, isaria_compiler, vadd_program
    ):
        report, passes = self._names_and_statuses(
            isaria_compiler, vadd_program.term, pruning=False
        )
        assert [name for name, _ in passes] == [
            "saturate", "optimize", "extract",
        ]
        assert all(status == "ok" for _, status in passes)

    def test_pipeline_factories_report_names(self):
        assert term_pipeline().names() == ["saturate", "optimize",
                                           "extract"]
        assert kernel_pipeline().names() == [
            "frontend", "saturate", "optimize", "extract", "validate",
            "lower",
        ]
        assert kernel_pipeline(schedule=True).names()[-1] == "schedule"
        assert baseline_kernel_pipeline(lambda t: (t, None)).names() == [
            "frontend", "saturate", "lower",
        ]


class TestPipelineMechanics:
    def test_fn_pass_detail_lands_in_report(self, isaria_compiler):
        ctx = CompilationContext(cost_model=isaria_compiler.cost_model,
                                 term=trace_kernel(
                                     "t", lambda x: [x[0]], {"x": 1}, 4
                                 ).term)
        pipeline = Pipeline([
            FnPass("seed", lambda c: (c.ensure_report(), None)[1]),
            FnPass("probe", lambda c: {"answer": 42}),
        ])
        pipeline.run(ctx)
        assert [p.name for p in ctx.report.passes] == ["seed", "probe"]
        assert ctx.report.passes[1].detail == {"answer": 42}

    def test_adopted_report_keeps_earlier_pass_entries(
        self, isaria_compiler
    ):
        from repro.compiler.compile import CompileReport

        term = trace_kernel("t", lambda x: [x[0]], {"x": 1}, 4).term

        def adopt(ctx):
            ctx.report = CompileReport(initial_cost=9.0, final_cost=3.0)
            return None

        ctx = CompilationContext(cost_model=isaria_compiler.cost_model,
                                 term=term)
        Pipeline([
            FnPass("seed", lambda c: (c.ensure_report(), None)[1]),
            FnPass("adopt", adopt),
        ]).run(ctx)
        assert [p.name for p in ctx.report.passes] == ["seed", "adopt"]
        assert ctx.report.initial_cost == 9.0
        assert sum(p.elapsed for p in ctx.report.passes) == pytest.approx(
            ctx.report.elapsed, abs=1e-6
        )


def _fingerprint(kernel):
    """Everything that must agree between serial and fanned-out compiles."""
    return {
        "name": kernel.name,
        "compiled": str(kernel.compiled_term),
        "machine": str(kernel.machine_program),
        "final_cost": kernel.report.final_cost,
        "initial_cost": kernel.report.initial_cost,
        "n_rounds": len(kernel.report.rounds),
        "passes": [(p.name, p.status) for p in kernel.report.passes],
    }


def _explode(original, compiled):
    """A validator that always fails (module-level, so it pickles)."""
    raise ValueError("synthetic validation failure")


class _LoggedExplode:
    """A failing validator that logs each call's source term to a file
    (workers share no memory; an instance pickles by its path)."""

    def __init__(self, path):
        self.path = str(path)

    def __call__(self, original, compiled):
        digest = hashlib.sha256(str(original).encode()).hexdigest()
        with open(self.path, "a") as fh:
            fh.write(digest + "\n")
        raise ValueError("synthetic validation failure")


@pytest.fixture(scope="module")
def serial_batch(isaria_compiler, vadd_program, vmul_program):
    """The serial reference batch the fan-out tests compare against."""
    return compile_many(isaria_compiler, [vadd_program, vmul_program])


class TestCompileMany:
    def test_serial_batch_matches_individual_compiles(
        self, isaria_compiler, vmul_program, serial_batch
    ):
        assert [k.name for k in serial_batch] == ["vadd", "vmul"]
        single = isaria_compiler.compile_kernel(vmul_program)
        assert str(serial_batch[1].compiled_term) == str(
            single.compiled_term
        )
        assert (
            serial_batch[1].report.final_cost == single.report.final_cost
        )

    def test_parallel_batch_preserves_order_and_results(
        self, isaria_compiler, vadd_program
    ):
        other = trace_kernel(
            "vsub",
            lambda x, y: [x[i] - y[i] for i in range(4)],
            {"x": 4, "y": 4},
            4,
        )
        serial = compile_many(isaria_compiler, [vadd_program, other])
        fanned = compile_many(
            isaria_compiler, [vadd_program, other], jobs=2
        )
        assert [k.name for k in fanned] == [k.name for k in serial]
        assert [k.report.final_cost for k in fanned] == [
            k.report.final_cost for k in serial
        ]
        assert [str(k.compiled_term) for k in fanned] == [
            str(k.compiled_term) for k in serial
        ]

    @pytest.mark.parametrize("phased", [True, False])
    def test_fan_out_matches_serial(
        self, isaria_compiler, vadd_program, vmul_program, serial_batch,
        monkeypatch, phased,
    ):
        programs = [vadd_program, vmul_program]
        if phased:
            options = None
            serial = [_fingerprint(k) for k in serial_batch]
        else:
            options = dataclasses.replace(
                isaria_compiler.options,
                phased=False,
                unphased_limits=RunnerLimits(
                    max_iterations=4, max_nodes=12_000, time_limit=60.0
                ),
            )
            serial = [
                _fingerprint(k)
                for k in compile_many(isaria_compiler, programs, options)
            ]
        monkeypatch.setenv("REPRO_PARALLEL", "2")
        fanned = [
            _fingerprint(k)
            for k in compile_many(isaria_compiler, programs, options,
                                  jobs=2)
        ]
        assert fanned == serial
        optimize = "ok" if phased else "skipped"
        assert all(
            dict(f["passes"])["optimize"] == optimize for f in serial
        )

    def test_no_pool_degrades_to_serial(
        self, isaria_compiler, vadd_program, vmul_program, serial_batch,
        monkeypatch,
    ):
        monkeypatch.setenv("REPRO_PARALLEL", "0")
        degraded = compile_many(
            isaria_compiler, [vadd_program, vmul_program], jobs=2
        )
        assert [_fingerprint(k) for k in degraded] == [
            _fingerprint(k) for k in serial_batch
        ]

    @pytest.mark.parametrize("jobs", [None, 2])
    def test_failing_kernel_is_named(
        self, isaria_compiler, vadd_program, vmul_program, monkeypatch,
        jobs,
    ):
        monkeypatch.setattr(isaria_compiler, "validate_equivalence",
                            _explode)
        monkeypatch.setenv("REPRO_PARALLEL", "2")
        with pytest.raises(KernelCompileError) as excinfo:
            compile_many(
                isaria_compiler, [vadd_program, vmul_program],
                validate=True, jobs=jobs,
            )
        err = excinfo.value
        assert err.kernel_key == "vadd"
        assert err.spec_hash == kernel_spec_hash(vadd_program)
        assert "synthetic validation failure" in err.message
        assert "vadd" in str(err) and err.spec_hash in str(err)

    def test_failing_kernels_compile_once_in_fan_out(
        self, isaria_compiler, vadd_program, vmul_program, monkeypatch,
        tmp_path,
    ):
        # Each kernel's validator runs once per compile: a worker's
        # failure must reach the caller without a serial recompile.
        log = tmp_path / "validations.log"
        monkeypatch.setattr(isaria_compiler, "validate_equivalence",
                            _LoggedExplode(log))
        monkeypatch.setenv("REPRO_PARALLEL", "2")
        with pytest.raises(KernelCompileError) as excinfo:
            compile_many(
                isaria_compiler, [vadd_program, vmul_program],
                validate=True, jobs=2,
            )
        assert excinfo.value.kernel_key == "vadd"
        expected = sorted(
            hashlib.sha256(str(p.term).encode()).hexdigest()
            for p in (vadd_program, vmul_program)
        )
        assert sorted(log.read_text().split()) == expected

    def test_error_survives_pickling(self):
        err = KernelCompileError("qprod", "ab12" * 4, "boom")
        clone = pickle.loads(pickle.dumps(err))
        assert isinstance(clone, KernelCompileError)
        assert clone.kernel_key == "qprod"
        assert clone.spec_hash == "ab12" * 4
        assert clone.message == "boom"
        assert str(clone) == str(err)

    def test_spec_hash_is_stable_and_content_addressed(
        self, vadd_program, vmul_program
    ):
        h = kernel_spec_hash(vadd_program)
        assert h == kernel_spec_hash(vadd_program)
        assert len(h) == 16
        assert h != kernel_spec_hash(vmul_program)
