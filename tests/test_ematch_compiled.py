"""Differential tests for compiled e-matching.

The product matcher runs each LHS program as a generated Python
function (:func:`repro.egraph.compile_pattern.shape_matcher`).  It must
return the *identical* match list — same ``(root, binding)`` pairs,
same order, same truncation under caps and work budgets, same node
visits — as two oracles on any e-graph, both in
``tests/match_oracle.py``: the recursive matcher and the e-matching VM
interpreter the generated functions replaced.  Against the VM it must
also spend the same work and leave the union-find parent array exactly
as the VM's ``find`` calls did.
"""

from __future__ import annotations

import random
import sys
import threading
import time
from fractions import Fraction

import pytest

from egraph_snapshot import load_egraph, save_egraph
from match_oracle import (
    CompiledMatcher,
    oracle_ematch_slots,
    recursive_ematch,
    recursive_match_in_class,
)

from repro.egraph.compile_pattern import (
    BINDW,
    CHECKW,
    LEAF,
    SCAN,
    SCANW,
    CompiledPattern,
    compile_pattern,
    compile_rhs,
    shape_matcher,
)
from repro.egraph.egraph import EGraph
from repro.egraph.ematch import (
    DEFAULT_MATCH_CAP,
    DEFAULT_MATCH_WORK,
    ematch,
    ematch_slots,
    match_in_class,
)
from repro.lang.ops import CONST
from repro.lang.parser import parse, to_sexpr
from repro.lang.term import Term, const, make, symbol, wildcard


def _assert_same_matches(g, pattern, **kwargs):
    fast_visits: dict = {}
    slow_visits: dict = {}
    fast = ematch(g, pattern, counters=fast_visits, **kwargs)
    slow = recursive_ematch(g, pattern, counters=slow_visits, **kwargs)
    assert fast == slow, (
        f"pattern {to_sexpr(pattern)}: compiled={fast} recursive={slow}"
    )
    assert fast_visits == slow_visits, to_sexpr(pattern)
    return fast


def _copy(g: EGraph) -> EGraph:
    """An independent copy, union-find parent array included."""
    return load_egraph(save_egraph(g))[0]


def _assert_same_as_vm(g, pattern, use_index=True, **kwargs):
    """Product vs. VM on two copies of ``g``: groups, work, parents.

    Returns the remaining work.
    """
    product, oracle = _copy(g), _copy(g)
    budget = kwargs.get("work_budget", DEFAULT_MATCH_WORK)
    counters: dict = {}
    got = ematch_slots(
        product, pattern, counters=counters,
        op_index=product.op_index() if use_index else None, **kwargs,
    )
    want, work = oracle_ematch_slots(
        oracle, pattern,
        op_index=oracle.op_index() if use_index else None, **kwargs,
    )
    assert got == want, f"pattern {to_sexpr(pattern)}"
    assert budget - counters.get("node_visits", 0) == work
    assert product._uf._parent == oracle._uf._parent
    return work


def _run_both(product: EGraph, oracle: EGraph, compiled: CompiledPattern,
              work: int, cap: int = DEFAULT_MATCH_CAP):
    """One program on every class of two equal e-graphs, directly:
    ``(product groups, work, parents) == (VM groups, work, parents)``.

    Runs ``compiled`` as given, so its constants need not be the
    interned pattern's.
    """
    uf = product._uf
    got = compiled.matcher()(
        compiled.constants, list(product._classes), None, None, work, cap,
        uf.find, uf._parent, product._classes,
    )
    vm = CompiledMatcher(compiled, oracle, cap, work)
    want = []
    for class_id in list(oracle._classes):
        bindings = vm.match_slots(class_id)
        if bindings:
            want.append((class_id, bindings))
        if vm.work <= 0:
            break
    assert got == (want, vm.work)
    assert product._uf._parent == oracle._uf._parent
    return got[0]


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
        assert match_in_class(g, parse("(neg 7)"), root) == [{}]

    def test_wildcard_root_match_in_class(self):
        g = EGraph()
        root = g.add_term(parse("(+ a b)"))
        fast = match_in_class(g, parse("?w"), root)
        slow = recursive_match_in_class(g, parse("?w"), root)
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
            fast = match_in_class(g, pattern, root, cap=cap)
            slow = recursive_match_in_class(g, pattern, root, cap=cap)
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
            continue  # handled before matching, trivially equal
        limit = rng.choice([None, 1, 3, 50])
        budget = rng.choice([5, 37, 10_000])
        kwargs = dict(limit=limit, work_budget=budget)
        if rng.random() < 0.7:
            kwargs["op_index"] = g.op_index()
        if rng.random() < 0.4:
            kwargs["roots"] = _random_roots(rng, g)
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


def _random_roots(rng: random.Random, g: EGraph) -> set[int]:
    """A random frontier: some of the canonical classes."""
    ids = [c.id for c in g.classes()]
    return set(rng.sample(ids, rng.randint(0, len(ids))))


# -- generated matchers vs. the VM interpreter ---------------------------


@pytest.mark.parametrize("dirty", [False, True])
@pytest.mark.parametrize("seed", range(40))
def test_fuzz_generated_equals_vm(seed, dirty):
    # Dirty graphs hold paths of length two in the union-find, which
    # find() compresses: the product must compress exactly the same.
    rng = random.Random(5000 + seed)
    g = _random_egraph(rng)
    if dirty:
        classes = [c.id for c in g.classes()]
        for _ in range(rng.randint(1, 5)):
            g.union(rng.choice(classes), rng.choice(classes))
    for _ in range(6):
        pattern = _random_pattern(rng, rng.randint(1, 4))
        kwargs = dict(limit=rng.choice([None, 1, 2, 3, 50]),
                      work_budget=rng.choice([0, 1, 2, 5, 11, 37, 10_000]))
        if rng.random() < 0.4:
            kwargs["roots"] = _random_roots(rng, g)
        _assert_same_as_vm(g, pattern, use_index=rng.random() < 0.6,
                           **kwargs)


def _sweep_graph(dirty: bool) -> EGraph:
    """Roots matching ``_SWEEP`` with several bindings each, among
    near misses (wrong op, wrong arity, a failed check, a missing leaf).

    The dirty graph also chains unions without a rebuild, so ids read
    from nodes resolve through union-find paths of length two or more.
    """
    g = EGraph()

    def vec(first, plus, times, one, last):
        return make("Vec", first, make("+", *plus), make("*", *times), one,
                    last)

    for i in range(3):
        a, b, c = (symbol(f"{name}{i}") for name in "abc")
        root = g.add_term(vec(c, (a, b), (a, c), const(1), b))
        for term in (
            vec(a, (a, c), (a, b), const(1), c),
            vec(c, (b, b), (b, c), const(1), b),
            vec(c, (a, b), (c, c), const(1), b),
            vec(c, (a, b), (a, c), const(1), a),
            vec(c, (a, b), (a, c), const(2), b),
            make("Vec", c, make("-", a, b), make("*", a, c), const(1), b),
            make("Vec", a, b, c),
        ):
            g.union(root, g.add_term(term))
        # Several bindings per nested scan, so caps bite inside them.
        for x, y in ((a, b), (c, a), (b, a)):
            g.union(g.add_term(make("+", a, b)), g.add_term(make("+", x, y)))
        for x, y in ((a, c), (b, c), (a, a)):
            g.union(g.add_term(make("*", a, c)), g.add_term(make("*", x, y)))
    if not dirty:
        g.rebuild()
        return g
    # The class with more parents survives a union: merge two symbols,
    # then merge them into a hub with more parents than both.
    for name in "abc":
        hub = symbol(f"{name}_hub")
        for j in range(50):
            g.add_term(make("neg", hub, const(j)))
        g.union(g.add_term(symbol(f"{name}0")), g.add_term(symbol(f"{name}1")))
        g.union(g.add_term(hub), g.add_term(symbol(f"{name}0")))
    parent = g._uf._parent
    assert any(parent[parent[c]] != parent[c]
               for eclass in g.classes() for node in eclass.nodes
               for c in node[2])
    return g


# SCAN (root), BINDW ?w, SCANW binding ?x ?y, SCANW checking ?x and
# binding ?z, LEAF 1, CHECKW ?y.
_SWEEP = parse("(Vec ?w (+ ?x ?y) (* ?x ?z) 1 ?y)")


def test_sweep_pattern_uses_every_instruction():
    codes = [instr[0] for instr in compile_pattern(_SWEEP).program]
    assert codes == [SCAN, BINDW, SCANW, SCANW, LEAF, CHECKW]
    assert compile_pattern(_SWEEP).program[3][5] == ((False, 1), (True, 0))


@pytest.mark.parametrize("dirty", [False, True])
def test_every_work_budget_truncates_like_vm(dirty):
    g = _sweep_graph(dirty)
    full = DEFAULT_MATCH_WORK
    visits = full - _assert_same_as_vm(g, _SWEEP, work_budget=full)
    assert visits > 50
    for budget in range(visits + 2):
        _assert_same_as_vm(g, _SWEEP, work_budget=budget)
        _assert_same_as_vm(g, _SWEEP, work_budget=budget, limit=2)
        _assert_same_as_vm(g, _SWEEP, use_index=False, work_budget=budget)


@pytest.mark.parametrize("dirty", [False, True])
def test_cap_truncation_like_vm(dirty):
    g = _sweep_graph(dirty)
    for pattern in (parse("(+ ?x ?y)"), _SWEEP):
        compiled = compile_pattern(pattern)
        for cap in (1, 2, 3, 5):
            _run_both(_copy(g), _copy(g), compiled, DEFAULT_MATCH_WORK,
                      cap=cap)


# -- deep patterns ---------------------------------------------------------


def _neg_chain(depth: int, leaf: Term) -> Term:
    term = leaf
    for _ in range(depth):
        term = make("neg", term)
    return term


def _vec_nest(depth: int, leaf) -> Term:
    """``(Vec (Vec ... (Vec x y) ...) a_d 1)``, ``depth`` levels deep,
    with ``leaf(name)`` at each named position (a wildcard or symbol)."""
    term = make("Vec", leaf("x"), leaf("y"))
    for i in range(depth - 1):
        term = make("Vec", term, leaf(f"a{i}"), const(1))
    return term


@pytest.mark.parametrize("dirty", [False, True])
def test_deep_patterns_match_like_vm(dirty):
    # CPython compiles at most 20 nested loops into one function; the
    # generator moves deep scans into helper functions.
    g = EGraph()
    for leaf in ("p", "q"):
        for depth in (29, 30, 31):
            g.add_term(_neg_chain(depth, symbol(leaf)))
    for depth in (24, 25):
        g.add_term(_vec_nest(depth, symbol))
    g.add_term(_vec_nest(25, lambda name: symbol(name + "_")))
    if dirty:
        g.union(g.add_term(symbol("p")), g.add_term(symbol("q")))
        g.union(g.add_term(symbol("x")), g.add_term(symbol("y_")))
        g.union(g.add_term(symbol("q")), g.add_term(symbol("x")))
    chain = _neg_chain(30, wildcard("x"))
    nest = _vec_nest(25, wildcard)
    assert [i[0] for i in compile_pattern(chain).program].count(SCAN) == 29
    for pattern, expected in ((chain, 4), (nest, 2)):
        for budget in (DEFAULT_MATCH_WORK, 40, 101):
            _assert_same_as_vm(g, pattern, work_budget=budget)
        _assert_same_matches(g, pattern, op_index=g.op_index())
        assert len(ematch_slots(g, pattern, op_index=g.op_index())) == expected


# -- rule data never reaches source text ----------------------------------

_HOSTILE_OP = "a'); import os; os._exit(3) #"
_HOSTILE_SYMBOLS = ("it's", 'say "hi"', "two\nlines", "\\'\"\n#")


def test_hostile_op_names_and_payloads_match_like_vm():
    g = EGraph()
    for name in _HOSTILE_SYMBOLS:
        g.add_term(make(_HOSTILE_OP, symbol(name), make("+", symbol(name),
                                                        const(1))))
    g.add_term(make(_HOSTILE_OP, symbol("plain"), symbol("plain")))
    for pattern in (
        make(_HOSTILE_OP, wildcard("a"), wildcard("b")),
        make(_HOSTILE_OP, wildcard("a"), make("+", wildcard("a"),
                                              const(1))),
        *(make(_HOSTILE_OP, symbol(name), wildcard("b"))
          for name in _HOSTILE_SYMBOLS),
    ):
        _assert_same_as_vm(g, pattern)
        assert ematch_slots(g, pattern, op_index=g.op_index())
        _assert_same_matches(g, pattern, op_index=g.op_index())


@pytest.mark.parametrize("target", [1, 1.0, Fraction(1), 2, 0.5])
@pytest.mark.parametrize("held", [1, 1.0, Fraction(1)])
def test_equal_leaf_constants_match_like_vm(held, target):
    # Interning folds 1, 1.0 and Fraction(1) into one term, so the
    # program is built by hand to carry exactly this target.
    def graph() -> EGraph:
        g = EGraph()
        g.add_enode("neg", None, (g.add_enode(CONST, held, ()),))
        return g

    base = compile_pattern(parse("(neg 7)"))
    program = tuple(
        (LEAF, instr[1], (CONST, target, ())) if instr[0] == LEAF else instr
        for instr in base.program
    )
    compiled = CompiledPattern(base.pattern, program, base.slot_names,
                               base.n_regs)
    assert compiled.constants[-1][1] is target
    groups = _run_both(graph(), graph(), compiled, DEFAULT_MATCH_WORK)
    assert bool(groups) == (held == target)


# -- the shape cache under threads ----------------------------------------


def test_shape_cache_is_shared_across_threads():
    n_threads = 8
    barrier = threading.Barrier(n_threads, timeout=30)
    results: dict = {}
    errors: list = []

    def patterns(t: int) -> list[Term]:
        # Fresh ops per thread, shapes shared by all threads: arities
        # no other test uses, so the shapes are new to the cache too.
        out = []
        for n in (13, 14, 15):
            wide = make(f"W{t}", *(wildcard(f"a{i}") for i in range(n)))
            out.append(make(f"U{t}", wide, const(n)))
            out.append(make(f"U{t}", wildcard("z"), wide))
        return out

    def worker(t: int) -> None:
        try:
            g = EGraph()
            for n in (13, 14, 15):
                wide = make(f"W{t}", *(symbol(f"s{i % 4}") for i in range(n)))
                g.add_term(make(f"U{t}", wide, const(n)))
                g.add_term(make(f"U{t}", const(t), wide))
            barrier.wait()
            for pattern in patterns(t):
                product, oracle = _copy(g), _copy(g)
                got = ematch_slots(product, pattern,
                                   op_index=product.op_index())
                want, _work = oracle_ematch_slots(
                    oracle, pattern, op_index=oracle.op_index()
                )
                results[t, pattern] = (got == want, len(got))
        except Exception as exc:  # reported by the main thread
            errors.append((t, exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    start = time.monotonic()
    try:
        threads = [threading.Thread(target=worker, args=(t,))
                   for t in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert not errors, errors
    assert len(results) == n_threads * 6
    assert all(same and n == 1 for same, n in results.values())
    assert time.monotonic() - start < 30
    by_shape: dict = {}
    for t in range(n_threads):
        for pattern in patterns(t):
            compiled = compile_pattern(pattern)
            by_shape.setdefault(compiled.shape, set()).add(
                id(compiled.matcher())
            )
            assert compiled.matcher() is shape_matcher(compiled.shape)
    assert len(by_shape) == 6
    assert all(len(fns) == 1 for fns in by_shape.values())
