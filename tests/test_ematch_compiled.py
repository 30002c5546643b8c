"""Differential tests: compiled e-matching vs. the legacy matcher.

The compiled matcher (:mod:`repro.egraph.compile_pattern`) must return
the *identical* match list — same ``(root, binding)`` pairs, same
order, same truncation under caps and work budgets — as the legacy
recursive matcher it replaces, on any e-graph.  The legacy matcher is
kept precisely so this equivalence stays executable.
"""

from __future__ import annotations

import random

import pytest

from repro.egraph.compile_pattern import (
    BINDW,
    CHECKW,
    LEAF,
    SCAN,
    SCANW,
    compile_pattern,
    compile_rhs,
)
from repro.egraph.egraph import EGraph
from repro.egraph.ematch import ematch, match_in_class
from repro.lang.parser import parse, to_sexpr
from repro.lang.term import Term, make, wildcard


def _assert_same_matches(g, pattern, **kwargs):
    fast = ematch(g, pattern, compiled=True, **kwargs)
    slow = ematch(g, pattern, compiled=False, **kwargs)
    assert fast == slow, (
        f"pattern {to_sexpr(pattern)}: compiled={fast} legacy={slow}"
    )
    return fast


class TestCompilation:
    def test_all_wildcard_compound_fuses(self):
        compiled = compile_pattern(parse("(+ ?a ?b)"))
        assert [i[0] for i in compiled.program] == [SCANW]
        assert compiled.slot_names == ("a", "b")

    def test_nested_pattern_program_shape(self):
        compiled = compile_pattern(parse("(VecAdd (Vec ?a ?b) 1)"))
        codes = [i[0] for i in compiled.program]
        assert codes == [SCAN, SCANW, LEAF]

    def test_repeated_wildcard_checks(self):
        # Both children fuse; the repeated ?x becomes a check action
        # inside the second SCANW rather than a fresh bind.
        compiled = compile_pattern(parse("(* (+ ?x ?y) (+ ?x ?z))"))
        codes = [i[0] for i in compiled.program]
        assert codes == [SCAN, SCANW, SCANW]
        actions = compiled.program[2][5]
        assert actions[0][0] is False  # ?x: check against slot
        assert actions[1][0] is True   # ?z: new binding
        assert compiled.slot_names == ("x", "y", "z")

    def test_mixed_children_use_generic_scan(self):
        compiled = compile_pattern(parse("(* ?a (+ ?b 1))"))
        codes = [i[0] for i in compiled.program]
        assert codes == [SCAN, BINDW, SCAN, BINDW, LEAF]

    def test_programs_are_cached(self):
        pattern = parse("(+ ?cache_probe ?b)")
        assert compile_pattern(pattern) is compile_pattern(pattern)

    def test_disassemble_lists_every_instruction(self):
        compiled = compile_pattern(parse("(VecAdd (Vec ?a ?b) 1)"))
        listing = compiled.disassemble()
        assert len(listing.splitlines()) == len(compiled.program)
        assert "scanw" in listing


class TestRhsCompilation:
    def test_reads_follow_lhs_slots(self):
        rhs = compile_rhs(parse("(+ ?a ?b)"), parse("(+ ?b ?a)"))
        assert rhs.reads == (1, 0)
        assert [n[:3] for n in rhs.nodes] == [("+", None, (0, 1))]

    def test_repeated_subterm_compiles_once(self):
        rhs = compile_rhs(parse("(* ?a 2)"),
                          parse("(+ (+ ?a 0) (+ ?a 0))"))
        assert rhs.reads == (0,)
        # 0, then (+ ?a 0), then the root over that one register twice.
        assert [n[2] for n in rhs.nodes] == [(), (0, 1), (2, 2)]

    def test_bare_wildcard_rhs_has_no_templates(self):
        rhs = compile_rhs(parse("(+ ?x ?a)"), parse("?a"))
        assert rhs.reads == (1,)
        assert rhs.nodes == ()

    def test_children_getters_build_tuples(self):
        rhs = compile_rhs(parse("(mac ?c ?a ?b)"),
                          parse("(+ ?c (neg (* ?a ?b)))"))
        regs = [10, 11, 12, 13, 14, 15]
        assert [n[3](regs) for n in rhs.nodes] == [
            (11, 12), (13,), (10, 14),
        ]

    def test_programs_are_cached(self):
        lhs, rhs = parse("(+ ?a ?b)"), parse("(+ ?b ?a)")
        assert compile_rhs(lhs, rhs) is compile_rhs(lhs, rhs)

    def test_unbound_rhs_wildcard_raises(self):
        with pytest.raises(KeyError):
            compile_rhs(parse("(+ ?a ?b)"), parse("(+ ?a ?unbound)"))

    def test_instantiate_matches_add_instantiation(self):
        g = EGraph()
        a = g.add_term(parse("(Get x 0)"))
        b = g.add_term(parse("(Get y 0)"))
        lhs = parse("(* ?a ?b)")
        rhs = compile_rhs(lhs, parse("(+ (* ?b ?a) (* ?b ?a))"))
        root = g.instantiate(rhs, (a, b))
        assert g.find(root) == g.lookup_term(
            parse("(+ (* (Get y 0) (Get x 0)) (* (Get y 0) (Get x 0)))")
        )
        assert g.add_instantiation(
            parse("(+ (* ?v ?u) (* ?v ?u))"), {"u": a, "v": b}
        ) == root


class TestDirectedCases:
    def test_leaf_only_pattern(self):
        g = EGraph()
        root = g.add_term(parse("(neg 7)"))
        _assert_same_matches(g, parse("(neg 7)"), op_index=g.op_index())
        _assert_same_matches(g, parse("(neg 8)"), op_index=g.op_index())
        assert match_in_class(g, parse("(neg 7)"), root, compiled=True) == [{}]

    def test_wildcard_root_match_in_class(self):
        g = EGraph()
        root = g.add_term(parse("(+ a b)"))
        fast = match_in_class(g, parse("?w"), root, compiled=True)
        slow = match_in_class(g, parse("?w"), root, compiled=False)
        assert fast == slow == [{"w": g.find(root)}]

    def test_nonlinear_across_siblings(self):
        g = EGraph()
        g.add_term(parse("(* (+ a b) (+ a c))"))
        g.add_term(parse("(* (+ a b) (+ d c))"))
        pattern = parse("(* (+ ?x ?y) (+ ?x ?z))")
        matches = _assert_same_matches(g, pattern, op_index=g.op_index())
        assert len(matches) == 1

    def test_nonlinear_within_fused_node(self):
        g = EGraph()
        g.add_term(parse("(+ a a)"))
        g.add_term(parse("(+ a b)"))
        matches = _assert_same_matches(
            g, parse("(+ ?x ?x)"), op_index=g.op_index()
        )
        assert len(matches) == 1

    def test_matches_on_dirty_graph(self):
        # Mid-iteration matching sees merged-but-unrepaired classes.
        g = EGraph()
        a = g.add_term(parse("(+ (neg p) (neg q))"))
        b = g.add_term(parse("(+ (neg q) (neg p))"))
        g.union(a, b)  # no rebuild: graph is dirty
        _assert_same_matches(g, parse("(+ (neg ?x) ?y)"))

    def test_cap_truncation_identical(self):
        g = EGraph()
        root = g.add_term(parse("(+ a b)"))
        for i in range(25):
            g.union(root, g.add_term(parse(f"(+ a c{i})")))
        g.rebuild()
        pattern = parse("(+ ?x ?y)")
        for cap in (1, 2, 7, 26, 1000):
            fast = match_in_class(g, pattern, root, cap=cap, compiled=True)
            slow = match_in_class(g, pattern, root, cap=cap, compiled=False)
            assert fast == slow
            assert len(fast) == min(cap, 26)

    def test_work_budget_sweep_identical(self):
        g = EGraph()
        for i in range(40):
            g.add_term(parse(f"(* (+ (Get x {i}) 1) (Get y {i}))"))
        pattern = parse("(* (+ ?a ?b) ?c)")
        for budget in range(1, 130, 3):
            _assert_same_matches(
                g, pattern, op_index=g.op_index(), work_budget=budget
            )

    def test_counters_report_node_visits(self):
        g = EGraph()
        for i in range(10):
            g.add_term(parse(f"(+ (Get x {i}) 1)"))
        counters: dict = {}
        ematch(g, parse("(+ ?a ?b)"), op_index=g.op_index(),
               counters=counters)
        assert counters["node_visits"] > 0

    def test_env_flag_selects_legacy(self, monkeypatch):
        g = EGraph()
        g.add_term(parse("(+ a b)"))
        monkeypatch.setenv("REPRO_LEGACY_EMATCH", "1")
        legacy_default = ematch(g, parse("(+ ?a ?b)"))
        monkeypatch.delenv("REPRO_LEGACY_EMATCH")
        compiled_default = ematch(g, parse("(+ ?a ?b)"))
        assert legacy_default == compiled_default


# -- randomized differential fuzzing -------------------------------------

_OPS = [("+", 2), ("*", 2), ("neg", 1), ("Vec", 4)]
_LEAVES = ["a", "b", "c", "0", "1", "(Get x 0)", "(Get x 1)"]


def _random_term(rng: random.Random, depth: int) -> Term:
    if depth <= 0 or rng.random() < 0.3:
        return parse(rng.choice(_LEAVES))
    op, arity = rng.choice(_OPS)
    return make(
        op, *(_random_term(rng, depth - 1) for _ in range(arity))
    )


def _random_pattern(rng: random.Random, depth: int) -> Term:
    roll = rng.random()
    if depth <= 0 or roll < 0.25:
        if roll < 0.6:
            return wildcard(rng.choice("pqr"))
        return parse(rng.choice(_LEAVES))
    op, arity = rng.choice(_OPS)
    return make(
        op, *(_random_pattern(rng, depth - 1) for _ in range(arity))
    )


def _random_egraph(rng: random.Random) -> EGraph:
    g = EGraph()
    roots = [g.add_term(_random_term(rng, rng.randint(1, 4)))
             for _ in range(rng.randint(3, 10))]
    for _ in range(rng.randint(0, 4)):
        g.union(rng.choice(roots), rng.choice(roots))
    g.rebuild()
    return g


@pytest.mark.parametrize("seed", range(60))
def test_fuzz_compiled_equals_legacy(seed):
    rng = random.Random(seed)
    g = _random_egraph(rng)
    for _ in range(8):
        pattern = _random_pattern(rng, rng.randint(1, 3))
        if pattern.op == "Wild":
            continue  # handled before matcher selection, trivially equal
        limit = rng.choice([None, 1, 3, 50])
        budget = rng.choice([5, 37, 10_000])
        kwargs = dict(limit=limit, work_budget=budget)
        if rng.random() < 0.7:
            kwargs["op_index"] = g.op_index()
        _assert_same_matches(g, pattern, **kwargs)


@pytest.mark.parametrize("seed", range(20))
def test_fuzz_on_dirty_graphs(seed):
    # Same equivalence with pending (unrebuilt) unions, as the runner
    # produces between rule applications within one iteration.
    rng = random.Random(1000 + seed)
    g = _random_egraph(rng)
    classes = [c.id for c in g.classes()]
    for _ in range(3):
        g.union(rng.choice(classes), rng.choice(classes))
    for _ in range(6):
        pattern = _random_pattern(rng, rng.randint(1, 3))
        if pattern.op == "Wild":
            continue
        _assert_same_matches(g, pattern, work_budget=rng.choice([11, 10_000]))
