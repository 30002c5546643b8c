"""Unit tests for minimum-cost extraction."""

import pytest

from repro.egraph.egraph import EGraph
from repro.egraph.extract import Extractor, extract_best
from repro.egraph.rewrite import parse_rewrite
from repro.egraph.runner import RunnerLimits, run_saturation
from repro.lang.parser import parse


def unit_cost(op, payload, child_terms):
    return 1.0


class TestExtractBasics:
    def test_single_term(self):
        g = EGraph()
        root = g.add_term(parse("(+ a b)"))
        cost, term = extract_best(g, root, unit_cost)
        assert term == parse("(+ a b)")
        assert cost == 3.0

    def test_picks_cheaper_variant(self):
        g = EGraph()
        root = g.add_term(parse("(+ (Get x 0) 0)"))
        g.union(root, g.add_term(parse("(Get x 0)")))
        g.rebuild()
        cost, term = extract_best(g, root, unit_cost)
        assert term == parse("(Get x 0)")
        assert cost == 1.0

    def test_extract_after_saturation(self):
        g = EGraph()
        root = g.add_term(parse("(* (+ a 0) 1)"))
        run_saturation(
            g,
            [
                parse_rewrite("add0", "(+ ?a 0) => ?a"),
                parse_rewrite("mul1", "(* ?a 1) => ?a"),
            ],
            RunnerLimits(max_iterations=5),
        )
        _, term = extract_best(g, root, unit_cost)
        assert term == parse("a")

    def test_cost_weights_choose_representation(self):
        def cost(op, payload, child_terms):
            return 100.0 if op == "*" else 1.0

        g = EGraph()
        root = g.add_term(parse("(* a 2)"))
        g.union(root, g.add_term(parse("(+ a a)")))
        g.rebuild()
        _, term = extract_best(g, root, cost)
        assert term == parse("(+ a a)")

    def test_structural_cost_sees_child_terms(self):
        # Vec of leaves cheap, Vec of computation expensive: extraction
        # must pick (Vec a b) over (Vec (+ a 0) b) via child inspection.
        def cost(op, payload, child_terms):
            if op == "Vec":
                return sum(
                    1.0 if not t.args else 1000.0 for t in child_terms
                )
            return 1.0

        g = EGraph()
        root = g.add_term(parse("(Vec (+ a 0) b)"))
        run_saturation(
            g,
            [parse_rewrite("add0", "(+ ?a 0) => ?a")],
            RunnerLimits(max_iterations=3),
        )
        extracted_cost, term = extract_best(g, root, cost)
        assert term == parse("(Vec a b)")
        assert extracted_cost == 4.0


class TestCycles:
    def test_cyclic_class_with_base_case(self):
        # a == (+ a 0): the cycle must not trap extraction.
        g = EGraph()
        root = g.add_term(parse("(+ a 0)"))
        g.union(root, g.add_term(parse("a")))
        g.rebuild()
        cost, term = extract_best(g, root, unit_cost)
        assert term == parse("a")

    def test_unextractable_raises(self):
        # A class whose only node refers to itself has no finite term.
        g = EGraph()
        a = g.add_term(parse("a"))
        loop = g.add_enode("neg", None, (a,))
        g.union(a, loop)
        g.rebuild()
        # Still extractable: `a` is a base case in the same class.
        extractor = Extractor(g, unit_cost)
        assert extractor.has_solution(a)
        _, term = extractor.best(a)
        assert term == parse("a")

    def test_zero_cost_cycle_ties(self):
        # The callable cost API admits zero-cost nodes, which break
        # strict monotonicity: here every class costs 1.0, and the
        # class of (neg (Get x 0)) also holds a node over a class that
        # settles after it.  That node is no tie-break candidate, so
        # the answer stays the finite (neg (Get x 0)).
        g = EGraph()
        root = g.add_term(parse("(neg (Get x 0))"))
        g.union(root, g.add_term(parse("(neg (neg (neg (Get x 0))))")))
        g.rebuild()

        def cost(op, payload, child_terms):
            return 0.0 if op == "neg" else 1.0

        assert extract_best(g, root, cost) == (1.0, parse("(neg (Get x 0))"))


class TestExtractorObject:
    def test_best_cost_and_term_agree(self):
        g = EGraph()
        root = g.add_term(parse("(+ (neg a) b)"))
        extractor = Extractor(g, unit_cost)
        cost, term = extractor.best(root)
        assert cost == extractor.best_cost(root)
        assert term == extractor.best_term(root)

    def test_missing_class_raises(self):
        g = EGraph()
        g.add_term(parse("a"))
        extractor = Extractor(g, unit_cost)
        with pytest.raises((KeyError, IndexError)):
            extractor.best(999)
