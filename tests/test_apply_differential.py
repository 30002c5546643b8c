"""Differential tests: slot-tuple rule application vs. the dict oracle.

The product :func:`~repro.egraph.rewrite.apply_rewrite` runs a rule as
compiled programs over slot tuples.  ``apply_oracle`` is the dict
``ematch`` plus recursive ``add_instantiation`` it replaced, with the
congruence repair of that time.  From the same e-graph, both must
report the same ``(n_matches, n_unions, n_visits)`` and leave the
e-graph in the same state, down to union-find path compression: the
``save_egraph`` bytes must be equal.  The inputs are random e-graphs
from the property-test term strategy under hand-written rules, and
every rule application and rebuild of real compiles of two Fig. 4
kernels.
"""

from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from apply_oracle import oracle_apply_rewrite, oracle_rebuild
from egraph_snapshot import load_egraph, save_egraph
from test_extract_differential import fig4_style_options
from test_property_egraph import terms

from repro.core.pregen import default_compiler
from repro.egraph import runner as runner_module
from repro.egraph.egraph import EGraph
from repro.egraph.rewrite import apply_rewrite, parse_rewrite
from repro.isa import fusion_g3_spec
from repro.kernels.suite import suite_by_key
from repro.lang.parser import parse
from repro.lang.term import make

COMM_ADD = parse_rewrite("comm-add", "(+ ?a ?b) => (+ ?b ?a)")

RULES = [
    # Bare-wildcard LHS (matches every class once).
    parse_rewrite("pad-zero", "?a => (+ ?a 0)"),
    # Bare-wildcard RHS, with a leaf constant on the LHS.
    parse_rewrite("add-zero", "(+ ?a 0) => ?a"),
    parse_rewrite("neg-neg", "(neg (neg ?a)) => ?a"),
    # Repeated wildcards, within one node and across siblings.
    parse_rewrite("double", "(+ ?a ?a) => (* ?a 2)"),
    parse_rewrite(
        "factor", "(+ (* ?x ?y) (* ?x ?z)) => (* ?x (+ ?y ?z))"
    ),
    # Leaf constants on the RHS only.
    parse_rewrite("sub-self", "(- ?a ?a) => 0"),
    parse_rewrite("mac-intro", "(* ?a ?b) => (mac 0 ?a ?b)"),
    # RHS with a repeated subterm.
    parse_rewrite("split", "(* ?a 2) => (+ (+ ?a 0) (+ ?a 0))"),
    parse_rewrite(
        "sub-expand", "(- ?a ?b) => (+ (- ?a ?b) (- (neg ?b) (neg ?b)))"
    ),
    # Plain structure: commutativity, associativity, 3-ary nodes.
    COMM_ADD,
    parse_rewrite("assoc-add", "(+ ?a (+ ?b ?c)) => (+ (+ ?a ?b) ?c)"),
    parse_rewrite("mac-split", "(mac ?c ?a ?b) => (+ ?c (* ?a ?b))"),
    parse_rewrite("mac-fuse", "(+ ?c (* ?a ?b)) => (mac ?c ?a ?b)"),
]

# (match_limit, match_work): None/large never truncates; the small
# ones cut the binding lists and the scans short.
BUDGETS = [(None, 100_000), (1, 100_000), (3, 100_000), (2, 9), (None, 4)]


def assert_same_state(product: EGraph, oracle: EGraph) -> None:
    assert save_egraph(product) == save_egraph(oracle)


def stats_key(stats) -> tuple:
    return (stats.n_matches, stats.n_unions, stats.n_visits)


def apply_both(g: EGraph, rule, use_index: bool = True, **kwargs):
    """Apply ``rule`` to one snapshot copy of ``g`` with the product
    and to another with the oracle, and check that they agree.

    Returns ``(product copy, oracle copy, product stats)``.
    """
    data = save_egraph(g)
    product, _ = load_egraph(data)
    oracle, _ = load_egraph(data)
    got = apply_rewrite(
        product, rule,
        op_index=product.op_index() if use_index else None, **kwargs,
    )
    want = oracle_apply_rewrite(
        oracle, rule,
        op_index=oracle.op_index() if use_index else None, **kwargs,
    )
    assert stats_key(got) == stats_key(want)
    assert_same_state(product, oracle)
    return product, oracle, got


class TestRandomEGraphs:
    @given(
        term_list=st.lists(terms(), min_size=1, max_size=6),
        merges=st.lists(
            st.tuples(st.integers(0, 40), st.integers(0, 40)), max_size=4
        ),
        steps=st.lists(
            st.tuples(
                st.integers(0, len(RULES) - 1),
                st.sampled_from(BUDGETS),
                st.booleans(),  # match from the op index
                st.booleans(),  # restrict roots to a frontier
                st.booleans(),  # rebuild afterwards
            ),
            min_size=1,
            max_size=8,
        ),
    )
    @settings(max_examples=80, deadline=None)
    def test_same_stats_and_state(self, term_list, merges, steps):
        g = EGraph()
        for t in term_list:
            g.add_term(t)
        class_ids = [c.id for c in g.classes()]
        for i, j in merges:
            # No rebuild: rules also run on dirty graphs mid-iteration.
            g.union(class_ids[i % len(class_ids)],
                    class_ids[j % len(class_ids)])
        for rule_i, (limit, work), use_index, use_roots, rebuild in steps:
            # Every other canonical class id.
            roots = set(sorted(g._classes)[::2]) if use_roots else None
            product, oracle, _ = apply_both(
                g, RULES[rule_i], use_index,
                match_limit=limit, match_work=work, roots=roots,
            )
            if rebuild:
                assert product.rebuild() == oracle_rebuild(oracle)
                assert_same_state(product, oracle)
            g = product


class TestDirected:
    def test_truncating_limit_and_budget_agree(self):
        # One root holding many bindings, cut by both knobs.
        g = EGraph()
        root = g.add_term(parse("(+ a b)"))
        for i in range(12):
            g.union(root, g.add_term(parse(f"(+ a c{i})")))
        g.rebuild()
        for limit, work in [(None, 100_000), (2, 100_000), (5, 7)]:
            apply_both(g, COMM_ADD, match_limit=limit, match_work=work)

    def test_bindings_stale_by_two_merges_compress_like_find(self):
        # (+ ?a ?b) => ?b merges c under T1's class, then T1's class
        # under T2's, before the match on (+ w c) reads c: c's path is
        # two links long by then, and find() must compress it.
        g = EGraph()
        t1 = parse("(+ u c)")
        t2 = make("+", parse("v"), t1)
        g.add_term(t1)
        g.add_term(t2)
        for k in range(3):  # T1's class outweighs c's in parents
            g.add_term(make("*", t1, parse(str(k))))
        for k in range(7):  # T2's class outweighs both merged
            g.add_term(make("*", t2, parse(str(k))))
        g.add_term(parse("(+ w c)"))
        g.rebuild()
        rule = parse_rewrite("take-b", "(+ ?a ?b) => ?b")
        _product, _oracle, got = apply_both(g, rule)
        assert stats_key(got) == (3, 3, 3)


KERNELS = ("matmul-2x2x2", "2dconv-3x3-2x2")


@pytest.fixture(scope="module")
def suite_applications():
    """Compile ``KERNELS`` with every application and rebuild checked.

    Returns ``{kernel: (apply flags, rebuild flags)}``, one flag per
    call, true where the oracle agreed.  Flags are recorded rather
    than asserted in place, so no compile-time error handling can
    swallow a mismatch.
    """
    compiler = default_compiler(fusion_g3_spec())
    suite = suite_by_key(width=4)
    options = fig4_style_options()
    applied: list[bool] = []
    rebuilt: list[bool] = []
    product_apply = runner_module.apply_rewrite
    product_rebuild = EGraph.rebuild

    # The oracle copy that matched the last application, and what it
    # matched: the runner touches the graph only through rule
    # applications between two that share an op index (it builds one
    # per iteration), so that copy is the next application's start.
    last = {"egraph": None, "op_index": None, "oracle": None}

    def checking_apply(egraph, rule, **kwargs):
        op_index = kwargs.get("op_index")
        if (op_index is not None and last["oracle"] is not None
                and last["egraph"] is egraph
                and last["op_index"] is op_index):
            oracle = last["oracle"]
        else:
            oracle, _ = load_egraph(save_egraph(egraph))
        got = product_apply(egraph, rule, **kwargs)
        want = oracle_apply_rewrite(oracle, rule, **kwargs)
        same = (stats_key(got) == stats_key(want)
                and save_egraph(egraph) == save_egraph(oracle))
        applied.append(same)
        last.update(egraph=egraph, op_index=op_index,
                    oracle=oracle if same else None)
        return got

    def checking_rebuild(self):
        before = save_egraph(self)
        n_repairs = product_rebuild(self)
        oracle, _ = load_egraph(before)
        rebuilt.append(
            n_repairs == oracle_rebuild(oracle)
            and save_egraph(self) == save_egraph(oracle)
        )
        return n_repairs

    results = {}
    patch = pytest.MonkeyPatch()
    patch.setattr(runner_module, "apply_rewrite", checking_apply)
    patch.setattr(EGraph, "rebuild", checking_rebuild)
    try:
        for key in KERNELS:
            applied.clear()
            rebuilt.clear()
            compiler.compile_kernel(suite[key], options=options)
            results[key] = (list(applied), list(rebuilt))
    finally:
        patch.undo()
    return results


class TestSuiteApplications:
    @pytest.mark.parametrize("key", KERNELS)
    def test_every_application_matches_oracle(self, suite_applications, key):
        applied, rebuilt = suite_applications[key]
        assert len(applied) > 100
        assert all(applied)
        assert len(rebuilt) > 10
        assert all(rebuilt)
