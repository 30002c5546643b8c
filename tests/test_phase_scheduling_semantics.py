"""Semantics of the phased schedule itself (Fig. 3 mechanics)."""

import dataclasses

import pytest

from repro.compiler import pipeline
from repro.compiler.compile import CompileOptions, compile_term
from repro.egraph.egraph import EGraph
from repro.kernels import matmul_kernel
from repro.lang.parser import parse


class TestRoundProgression:
    def test_costs_monotone_across_rounds(self, isaria_compiler):
        program = matmul_kernel(2, 2, 2).program.term
        _t, report = isaria_compiler.compile_term(program)
        costs = [r.extracted_cost for r in report.rounds]
        assert all(b <= a + 1e-9 for a, b in zip(costs, costs[1:]))
        assert report.final_cost <= costs[-1] + 1e-9

    def test_round_zero_skips_expansion_later_rounds_run_it(
        self, isaria_compiler
    ):
        program = matmul_kernel(2, 2, 2).program.term
        _t, report = isaria_compiler.compile_term(program)
        assert report.rounds[0].expansion is None
        if len(report.rounds) > 1:
            assert report.rounds[1].expansion is not None

    def test_expansion_start_round_zero(self, isaria_compiler):
        options = dataclasses.replace(
            isaria_compiler.options,
            expansion_start_round=0,
            max_rounds=2,
        )
        program = parse(
            "(List (Vec (Get x 0) (Get x 1) (Get x 2) (Get x 3)))"
        )
        _t, report = isaria_compiler.compile_term(
            program, options=options
        )
        assert report.rounds[0].expansion is not None

    def test_max_rounds_respected(self, isaria_compiler):
        options = dataclasses.replace(
            isaria_compiler.options, max_rounds=1
        )
        program = matmul_kernel(2, 2, 2).program.term
        _t, report = isaria_compiler.compile_term(
            program, options=options
        )
        assert len(report.rounds) == 1

    def test_trivial_program_short_circuits(self, isaria_compiler):
        program = parse("(List (Vec 1 2 3 4))")
        compiled, report = isaria_compiler.compile_term(program)
        assert compiled == program  # already minimal
        # loop must terminate quickly (no improvement possible past
        # the first expansion round)
        assert len(report.rounds) <= 2

    @pytest.mark.parametrize("pruning", [True, False])
    def test_pruned_rounds_restart_from_the_best_term(
        self, isaria_compiler, monkeypatch, pruning
    ):
        seeds = []  # the term each new e-graph is built from

        class SeedRecordingEGraph(EGraph):
            def add_term(self, term):
                if not seeds or seeds[-1][0] is not self:
                    seeds.append((self, term))
                return super().add_term(term)

        monkeypatch.setattr(pipeline, "EGraph", SeedRecordingEGraph)
        options = dataclasses.replace(
            isaria_compiler.options, pruning=pruning, max_rounds=3
        )
        program = matmul_kernel(2, 2, 2).program.term
        _t, report = isaria_compiler.compile_term(program, options=options)
        assert len(report.rounds) >= 2
        round_seeds = [term for _, term in seeds[:-1]]  # last: optimize
        assert round_seeds[0] is program
        if not pruning:
            assert len(round_seeds) == 1  # one graph carries across rounds
            return
        # Each round rebuilds from the cheapest term extracted so far.
        assert len(round_seeds) == len(report.rounds)
        best = report.initial_cost
        for seed, done in zip(round_seeds[1:], report.rounds):
            best = min(best, done.extracted_cost)
            assert isaria_compiler.cost_model.term_cost(seed) == best
