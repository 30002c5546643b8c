"""The ISA-family layer: descriptors, masked machine semantics,
tail-masking lowering, lane-utilization counters, and the width-aware
baseline/suite plumbing that rides on it."""

from __future__ import annotations

import pytest

from repro.baselines.nature import has_nature_kernel
from repro.bench.harness import measure_baseline
from repro.compiler.lowering import lower_program
from repro.core.artifact import spec_semantics_hash
from repro.isa import (
    avx_like_spec,
    bundled_spec_factories,
    fusion_g3_spec,
    isa_family,
    masked_spec,
    spec_by_name,
)
from repro.kernels import (
    default_suite,
    matmul_kernel,
    quaternion_product_kernel,
    suite_by_key,
)
from repro.kernels.specs import default_vector_width
from repro.lang import builders as B
from repro.lang import term as T
from repro.machine import Machine, ProgramBuilder


class TestFamilyDescriptors:
    def test_bundled_families_and_widths(self):
        assert isa_family("fusion-g3").widths == (2, 4, 8, 16)
        assert isa_family("avx-like").widths == (4, 8, 16)
        assert isa_family("masked").widths == (4, 8, 16)
        assert isa_family("masked").masked
        assert not isa_family("avx-like").masked

    def test_spec_names_follow_convention(self):
        assert isa_family("fusion-g3").spec().name == "fusion-g3"
        assert isa_family("avx-like").spec().name == "avx-like-w8"
        assert isa_family("masked").spec(16).name == "masked-w16"

    def test_unsupported_width_rejected(self):
        with pytest.raises(ValueError, match="widths"):
            isa_family("avx-like").spec(2)

    def test_unknown_family_rejected(self):
        with pytest.raises(KeyError, match="bundled"):
            isa_family("neon")

    def test_bundled_spec_factories_cover_every_width(self):
        factories = bundled_spec_factories()
        for family_name in ("fusion-g3", "avx-like", "masked"):
            family = isa_family(family_name)
            for name in family.spec_names():
                assert name in factories
                spec = factories[name]()
                assert spec.name == name
        assert spec_by_name("masked-w4").masked

    def test_capability_flags_on_specs(self):
        avx = avx_like_spec(8)
        assert avx.models_alignment
        assert avx.vec_unaligned_cost > avx.vec_contiguous_cost
        masked = masked_spec(8)
        assert masked.masked and masked.mask_cost > 0
        base = fusion_g3_spec()
        assert not base.masked and not base.models_alignment


class TestFingerprintStability:
    def test_base_hash_unchanged_by_new_fields(self):
        # The new spec fields hash only when non-default, so the
        # shipped fusion-g3 artifacts keep their fingerprints.
        base = spec_semantics_hash(fusion_g3_spec())
        assert "masked" not in _hash_parts(fusion_g3_spec())
        assert spec_semantics_hash(masked_spec(4)) != base
        assert spec_semantics_hash(avx_like_spec(4)) != base

    def test_mask_and_alignment_parts_hash(self):
        assert "masked" in _hash_parts(masked_spec(8))
        assert "unaligned" in _hash_parts(avx_like_spec(8))


def _hash_parts(spec) -> str:
    # spec_semantics_hash digests a parts string; rebuild just the
    # conditional suffix the new fields contribute.
    parts = []
    if spec.masked:
        parts.append(f"masked/{spec.mask_cost}")
    if spec.vec_unaligned_cost is not None:
        parts.append(f"unaligned/{spec.vec_unaligned_cost}")
    return " ".join(parts)


class TestMaskedMachine:
    def _machine(self, width=4):
        return Machine(masked_spec(width))

    def test_masked_load_zeroes_inactive_lanes(self):
        b = ProgramBuilder()
        m = b.m_const((1, 1, 1, 0))
        v = b.v_load_m("x", 0, m)
        b.v_store("out", 0, v)
        b.halt()
        result = self._machine().run(
            b.build(),
            {"x": [5.0, 6.0, 7.0, 8.0], "out": [0.0] * 4},
        )
        assert result.array("out") == [5.0, 6.0, 7.0, 0.0]

    def test_masked_store_preserves_inactive_lanes(self):
        b = ProgramBuilder()
        v = b.v_load("x", 0)
        m = b.m_const((1, 0, 0, 1))
        b.v_store_m("out", 0, v, m)
        b.halt()
        result = self._machine().run(
            b.build(),
            {"x": [1.0, 2.0, 3.0, 4.0], "out": [9.0] * 4},
        )
        assert result.array("out") == [1.0, 9.0, 9.0, 4.0]

    def test_masked_op_zeroes_inactive_lanes(self):
        b = ProgramBuilder()
        v = b.v_load("x", 0)
        m = b.m_const((1, 1, 0, 0))
        r = b.v_op_m("VecAdd", m, v, v)
        b.v_store("out", 0, r)
        b.halt()
        result = self._machine().run(
            b.build(),
            {"x": [1.0, 2.0, 3.0, 4.0], "out": [0.0] * 4},
        )
        assert result.array("out") == [2.0, 4.0, 0.0, 0.0]

    def test_lane_utilization_counters(self):
        b = ProgramBuilder()
        v = b.v_load("x", 0)  # 4 active / 4 issued
        m = b.m_const((1, 1, 1, 0))
        r = b.v_op_m("VecAdd", m, v, v)  # 3 / 4, masked
        b.v_store("out", 0, r)  # 4 / 4
        b.halt()
        result = self._machine().run(
            b.build(), {"x": [1.0] * 4, "out": [0.0] * 4}
        )
        assert result.vector_ops == 3
        assert result.masked_ops == 1
        assert result.lanes_issued == 12
        assert result.lanes_active == 11
        assert result.lane_utilization == pytest.approx(11 / 12)
        assert result.masked_op_share == pytest.approx(1 / 3)

    def test_all_scalar_program_reports_full_utilization(self):
        b = ProgramBuilder()
        b.s_store("out", 0, b.s_const(1.0))
        b.halt()
        result = self._machine().run(b.build(), {"out": [0.0] * 4})
        assert result.lanes_issued == 0
        assert result.lane_utilization == 1.0

    def test_bad_mask_width_rejected(self):
        from repro.machine.simulator import SimulationError

        b = ProgramBuilder()
        b.m_const((1, 1))
        b.halt()
        with pytest.raises(SimulationError):
            self._machine().run(b.build(), {})


class TestUnalignedLoads:
    def test_v_loadu_reads_a_misaligned_run(self):
        b = ProgramBuilder()
        v = b.v_loadu("x", 3)
        b.v_store("out", 0, v)
        b.halt()
        machine = Machine(avx_like_spec(8))
        result = machine.run(
            b.build(),
            {"x": [float(i) for i in range(16)], "out": [0.0] * 8},
        )
        assert result.array("out") == [float(i) for i in range(3, 11)]

    def test_v_loadu_latency_grows_with_width(self):
        from repro.machine.program import Instr

        loadu = Instr(opcode="v.loadu", dst="v0", array="x", offset=0)
        load = Instr(opcode="v.load", dst="v0", array="x", offset=0)
        for width, extra in ((4, 1), (8, 1), (16, 2)):
            machine = Machine(avx_like_spec(width))
            assert machine.instruction_latency(loadu) == (
                machine.instruction_latency(load) + extra
            )


class TestTailMaskingLowering:
    def _chunks(self, length, width):
        """Frontend-style chunked Vec literals for a Get-run kernel."""
        chunks = []
        for start in range(0, length, width):
            lanes = [
                B.get("a", i) if i < length else B.const(0)
                for i in range(start, start + width)
            ]
            chunks.append(B.vec(*lanes))
        return T.make("List", *chunks)

    def test_masked_tail_avoids_scalar_epilogue(self):
        spec = masked_spec(4)
        program = lower_program(
            self._chunks(6, 4), spec, {"a": 6}, output_len=6
        )
        ops = [i.opcode for i in program.instrs]
        assert ops.count("v.store") == 1
        assert ops.count("v.store.m") == 1
        assert ops.count("v.load.m") == 1
        assert "v.insert" not in ops
        assert not any(op.startswith("s.") for op in ops)
        result = Machine(spec).run(
            program,
            {"a": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 0.0, 0.0],
             "out": [9.0] * 8},
        )
        # Active lanes copied; the masked store leaves padding alone.
        assert result.array("out")[:6] == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]

    def test_masked_tail_ignores_junk_padding_lanes(self):
        # Extraction can leave computed junk (an unfolded ``(* 0 0)``)
        # in padding lanes; under a prefix mask those lanes are dead
        # and must not force the v.insert path.
        spec = masked_spec(4)
        junk = B.mul(B.const(0), B.const(0))
        chunk = B.vec(B.get("a", 0), B.get("a", 1), junk, junk)
        program = lower_program(
            T.make("List", chunk), spec, {"a": 2}, output_len=2
        )
        ops = [i.opcode for i in program.instrs]
        assert "v.load.m" in ops and "v.store.m" in ops
        assert "v.insert" not in ops
        assert not any(op.startswith("s.") for op in ops)

    def test_unmasked_spec_keeps_plain_stores(self):
        program = lower_program(
            self._chunks(6, 4), fusion_g3_spec(), {"a": 6}, output_len=6
        )
        ops = [i.opcode for i in program.instrs]
        assert "v.store.m" not in ops and "v.load.m" not in ops

    def test_masked_vector_op_cone_is_predicated(self):
        spec = masked_spec(4)
        lanes = [B.get("a", i) for i in range(2)] + [B.const(0)] * 2
        chunk = B.vec_add(B.vec(*lanes), B.vec(*lanes))
        program = lower_program(
            T.make("List", chunk), spec, {"a": 2}, output_len=2
        )
        ops = [i.opcode for i in program.instrs]
        assert "v.op.m" in ops and "v.op" not in ops
        result = Machine(spec).run(
            program, {"a": [3.0, 4.0, 0.0, 0.0], "out": [0.0] * 4}
        )
        assert result.array("out")[:2] == [6.0, 8.0]

    def test_avx_like_misaligned_run_uses_v_loadu(self):
        chunk = B.vec(*[B.get("a", i) for i in range(1, 9)])
        program = lower_program(
            T.make("List", chunk), avx_like_spec(8), {"a": 16},
            output_len=8,
        )
        ops = [i.opcode for i in program.instrs]
        assert "v.loadu" in ops
        # The base ISA does not model alignment: the same misaligned
        # run lowers to a plain (free-form) v.load.
        base = lower_program(
            T.make("List", chunk), fusion_g3_spec(8), {"a": 16},
            output_len=8,
        )
        base_ops = [i.opcode for i in base.instrs]
        assert "v.loadu" not in base_ops and "v.load" in base_ops


class TestNatureWidthCoverage:
    def test_qp_uncovered_off_width_4(self):
        qp4 = quaternion_product_kernel(4)
        qp8 = quaternion_product_kernel(8)
        assert has_nature_kernel(qp4)  # 1-arg back-compat
        assert has_nature_kernel(qp4, fusion_g3_spec())
        assert not has_nature_kernel(qp8, avx_like_spec(8))
        assert not has_nature_kernel(qp8, masked_spec(8))

    def test_harness_skips_qp_off_width_4_without_raising(self):
        qp8 = quaternion_product_kernel(8)
        measurement = measure_baseline(
            "nature", qp8, avx_like_spec(8)
        )
        assert measurement.error == "no library kernel"

    def test_matmul_library_kernel_is_width_generic(self):
        # n = 8 exercises the vector column loop at width 8, not just
        # the scalar tail.
        instance = matmul_kernel(2, 2, 8, width=8)
        measurement = measure_baseline(
            "nature", instance, avx_like_spec(8)
        )
        assert measurement.error is None
        assert measurement.correct


class TestSuiteWidthThreading:
    def test_spec_threads_width_to_every_kernel(self):
        suite = default_suite(
            spec=avx_like_spec(8),
            conv2d_sizes=[(3, 3, 2, 2)],
            matmul_sizes=[(2, 2, 2)],
            qr_sizes=[3],
        )
        assert suite and all(i.program.width == 8 for i in suite)

    def test_width_spec_conflict_rejected(self):
        with pytest.raises(ValueError, match="conflicts"):
            default_suite(width=4, spec=masked_spec(8))

    def test_env_flag_sets_default_width(self, monkeypatch):
        monkeypatch.setenv("REPRO_VECTOR_WIDTH", "8")
        assert default_vector_width() == 8
        assert quaternion_product_kernel().program.width == 8
        monkeypatch.delenv("REPRO_VECTOR_WIDTH")
        assert default_vector_width() == 4

    def test_env_flag_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv("REPRO_VECTOR_WIDTH", "wide")
        with pytest.raises(ValueError, match="REPRO_VECTOR_WIDTH"):
            default_vector_width()
        monkeypatch.setenv("REPRO_VECTOR_WIDTH", "1")
        with pytest.raises(ValueError, match="at least 2"):
            default_vector_width()

    def test_suite_by_key_accepts_spec(self):
        by_key = suite_by_key(spec=masked_spec(8))
        assert by_key["qprod"].program.width == 8


class TestMaskedVerification:
    def test_sound_rule_passes_on_masked_spec(self):
        from repro.lang.parser import parse
        from repro.ruler.verify import verify_vector_rule

        result = verify_vector_rule(
            parse("(VecAdd ?a ?b)"), parse("(VecAdd ?b ?a)"),
            masked_spec(4),
        )
        assert result.ok

    def test_projection_rejects_cross_lane_smuggling(self):
        from repro.ruler.verify import _verify_masked_projection

        spec = masked_spec(4)
        interpreter = spec.interpreter()
        names = ["x0", "x1", "x2", "x3"]
        kinds = {name: "scalar" for name in names}
        lanes = [T.symbol(name) for name in names]
        lhs = B.vec(*lanes)
        swapped = B.vec(lanes[3], lanes[1], lanes[2], lanes[0])
        failure = _verify_masked_projection(
            lhs, swapped, interpreter, names, kinds, 4, seed=1
        )
        assert failure is not None and not failure.ok
        assert "masked" in failure.detail
        # The identical pair sails through.
        assert _verify_masked_projection(
            lhs, lhs, interpreter, names, kinds, 4, seed=1
        ) is None

    @staticmethod
    def _projection_outcome(check, *args, **kwargs):
        """The projection's result, or its error message."""
        from repro.interp.interpreter import EvalError

        try:
            return check(*args, **kwargs)
        except EvalError as exc:
            return f"EvalError: {exc}"

    def _all_paths(self, *args, **kwargs):
        """The product's outcome, asserted equal to the oracle's (the
        one-tree-walk-per-environment projection it replaced)."""
        from generalize_oracle import oracle_masked_projection
        from repro.ruler.verify import _verify_masked_projection

        product, oracle = (
            self._projection_outcome(check, *args, **kwargs)
            for check in (_verify_masked_projection, oracle_masked_projection)
        )
        assert product == oracle
        return product

    @staticmethod
    def _rows_raise(interpreter, lhs, rhs, names, kinds, width, seed):
        """True when batched evaluation of the pair's projection grid
        raises mid-grid (so the check falls back per environment)."""
        from repro.interp.interpreter import EvalError
        from repro.ruler.cvec import CvecEvaluator
        from repro.ruler.verify import _projection_actives, _projection_envs

        vectors = tuple(kinds.get(name) == "vector" for name in names)
        actives = _projection_actives(width, 4)
        envs = _projection_envs(tuple(names), vectors, width, seed, actives)
        evaluator = CvecEvaluator(interpreter, envs)
        try:
            evaluator.row_of(lhs)
            evaluator.row_of(rhs)
        except EvalError:
            return True
        return False

    def test_projection_batched_matches_serial_on_smuggling(self):
        spec = masked_spec(4)
        interpreter = spec.interpreter()
        names = ["x0", "x1", "x2", "x3"]
        kinds = {name: "scalar" for name in names}
        lanes = [T.symbol(name) for name in names]
        lhs = B.vec(*lanes)
        swapped = B.vec(lanes[3], lanes[1], lanes[2], lanes[0])
        args = (lhs, swapped, interpreter, names, kinds, 4)
        outcome = self._all_paths(*args, seed=1)
        assert outcome is not None and "masked (active=1)" in outcome.detail

    def test_projection_skips_env_made_undefined_by_junk(self):
        # x + 7 is positive on every active lane (drawn from [-6, 6])
        # but often negative on a junk lane, whose sqrt then makes the
        # left side UNDEFINED (one undefined lane undefines the
        # vector); such environments prove nothing and are skipped on
        # every path.
        from repro.interp.value import UNDEFINED
        from repro.lang.parser import parse
        from repro.ruler.verify import _projection_actives, _projection_envs

        spec = masked_spec(4)
        interpreter = spec.interpreter()
        lhs = parse(
            "(VecAdd x (VecMul (VecSqrt (VecAdd x (Vec 7 7 7 7)))"
            " (Vec 0 0 0 0)))"
        )
        rhs = parse("x")
        names, kinds = ["x"], {"x": "vector"}
        envs = _projection_envs(
            ("x",), (True,), 4, 7, _projection_actives(4, 4)
        )
        left = [interpreter.evaluate(lhs, env) for env in envs]
        assert UNDEFINED in left
        assert any(value is not UNDEFINED for value in left)
        args = (lhs, rhs, interpreter, names, kinds, 4)
        assert self._all_paths(*args, seed=7) is None
        # Against a wrong right side, the first environment the left
        # side defines fails, identically on every path.
        wrong = parse("(VecNeg x)")
        args = (lhs, wrong, interpreter, names, kinds, 4)
        outcome = self._all_paths(*args, seed=7)
        assert outcome is not None and outcome.detail.startswith("masked")

    def test_projection_eval_error_falls_back_per_environment(self):
        # A lane function that raises on large values: junk lanes hit
        # it mid-grid, so batched evaluation raises and the check runs
        # per environment, reporting whatever that loop reaches first.
        from repro.interp.interpreter import EvalError
        from repro.isa.spec import Instruction
        from repro.lang.ops import OpKind
        from repro.lang.parser import parse

        def guarded(a):
            if a > 90:
                raise EvalError("lane value out of range")
            return a

        spec = masked_spec(4).extended(
            [Instruction("VecGuard", 1, OpKind.VECTOR, guarded, 1.0)]
        )
        interpreter = spec.interpreter()
        lhs, rhs = parse("(VecGuard x)"), parse("(VecNeg x)")
        names, kinds = ["x"], {"x": "vector"}
        outcomes = set()
        for seed in range(12):
            if not self._rows_raise(
                interpreter, lhs, rhs, names, kinds, 4, seed
            ):
                continue
            args = (lhs, rhs, interpreter, names, kinds, 4)
            outcome = self._all_paths(*args, seed=seed)
            outcomes.add(
                "error" if isinstance(outcome, str) else "counterexample"
            )
        # Both fallback outcomes occur: a counterexample found before
        # the failing environment, and the error itself.
        assert outcomes == {"error", "counterexample"}


class TestRegistryFamilies:
    def test_known_specs_include_bundled_families(self):
        from repro.service.registry import KNOWN_SPECS

        for name in ("avx-like-w8", "masked-w16", "fusion-g3-w2"):
            assert name in KNOWN_SPECS

    def test_bootstraps_and_republishes_non_base_family(self, tmp_path):
        from repro.service.registry import ArtifactRegistry

        registry = ArtifactRegistry(tmp_path / "reg")
        entry = registry.entry_for("masked-w4")
        assert entry.spec.masked and entry.spec.vector_width == 4
        assert len(entry.compiler.ruleset) > 0
        # A second registry over the same root loads the published
        # artifact instead of re-generalizing.
        again = ArtifactRegistry(tmp_path / "reg")
        assert (
            again.entry_for("masked-w4").fingerprint == entry.fingerprint
        )

    def test_concurrent_first_requests_bootstrap_once(
        self, tmp_path, monkeypatch
    ):
        import sys
        import threading
        import time

        from repro.core import pregen
        from repro.service.registry import ArtifactRegistry

        real = pregen.family_compiler
        calls = []

        def counted(spec, *args, **kwargs):
            calls.append(spec.name)
            time.sleep(0.05)  # hold the slow path open for the others
            return real(spec, rules=[])

        monkeypatch.setattr(pregen, "family_compiler", counted)
        registry = ArtifactRegistry(tmp_path / "reg")
        n_threads = 6
        barrier = threading.Barrier(n_threads)
        entries = [None] * n_threads

        def request(slot):
            barrier.wait(timeout=30)
            entries[slot] = registry.entry_for("masked-w4")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=request, args=(slot,))
                for slot in range(n_threads)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert calls == ["masked-w4"]
        assert all(entry is entries[0] for entry in entries)
        assert entries[0] is not None
        assert registry.entry_for("masked-w4") is entries[0]

    def test_unknown_isa_still_rejected(self, tmp_path):
        from repro.service.registry import ArtifactRegistry, RegistryError

        registry = ArtifactRegistry(tmp_path / "reg")
        with pytest.raises(RegistryError, match="unknown ISA"):
            registry.spec_for("sve-w256")
