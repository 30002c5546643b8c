"""Unit tests for the e-graph: hashcons, union, congruence closure."""

from repro.egraph.egraph import EGraph
from repro.egraph.unionfind import UnionFind
from repro.lang.parser import parse


class TestUnionFind:
    def test_make_set_and_find(self):
        uf = UnionFind()
        a, b = uf.make_set(), uf.make_set()
        assert uf.find(a) == a
        assert uf.find(b) == b
        assert not uf.in_same_set(a, b)

    def test_union_directed(self):
        uf = UnionFind()
        a, b = uf.make_set(), uf.make_set()
        uf.union(a, b)
        assert uf.find(b) == a
        assert uf.in_same_set(a, b)

    def test_path_compression_chain(self):
        uf = UnionFind()
        ids = [uf.make_set() for _ in range(100)]
        for x, y in zip(ids, ids[1:]):
            uf.union(x, y)
        assert all(uf.find(i) == ids[0] for i in ids)


class TestAddTerm:
    def test_hashcons_dedupes(self):
        g = EGraph()
        a = g.add_term(parse("(+ (Get x 0) 1)"))
        b = g.add_term(parse("(+ (Get x 0) 1)"))
        assert a == b
        assert g.n_classes == 3  # get, const, add

    def test_shared_subterms_share_classes(self):
        g = EGraph()
        g.add_term(parse("(+ (Get x 0) (Get x 0))"))
        assert g.n_classes == 2

    def test_payload_distinguishes(self):
        g = EGraph()
        a = g.add_term(parse("(Get x 0)"))
        b = g.add_term(parse("(Get x 1)"))
        assert a != b


class TestUnion:
    def test_union_merges(self):
        g = EGraph()
        a = g.add_term(parse("(+ 1 2)"))
        b = g.add_term(parse("(+ 2 1)"))
        assert not g.equivalent(a, b)
        assert g.union(a, b)
        assert g.equivalent(a, b)
        assert not g.union(a, b)  # already merged

    def test_union_count(self):
        g = EGraph()
        a = g.add_term(parse("1"))
        b = g.add_term(parse("2"))
        before = g.n_unions
        g.union(a, b)
        assert g.n_unions == before + 1


class TestCongruence:
    def test_parents_merge_after_rebuild(self):
        # if a == b then f(a) == f(b) after rebuild.
        g = EGraph()
        fa = g.add_term(parse("(neg a)"))
        fb = g.add_term(parse("(neg b)"))
        a = g.add_term(parse("a"))
        b = g.add_term(parse("b"))
        g.union(a, b)
        assert not g.equivalent(fa, fb)
        g.rebuild()
        assert g.equivalent(fa, fb)

    def test_congruence_cascades(self):
        # a == b  =>  g(f(a)) == g(f(b)) transitively.
        g = EGraph()
        gfa = g.add_term(parse("(sgn (neg a))"))
        gfb = g.add_term(parse("(sgn (neg b))"))
        g.union(g.add_term(parse("a")), g.add_term(parse("b")))
        g.rebuild()
        assert g.equivalent(gfa, gfb)
        assert g.is_clean

    def test_multi_arg_congruence(self):
        g = EGraph()
        t1 = g.add_term(parse("(+ a c)"))
        t2 = g.add_term(parse("(+ b c)"))
        g.union(g.add_term(parse("a")), g.add_term(parse("b")))
        g.rebuild()
        assert g.equivalent(t1, t2)

    def test_rebuild_idempotent(self):
        g = EGraph()
        g.add_term(parse("(+ a b)"))
        g.rebuild()
        assert g.rebuild() == 0


class TestLookup:
    def test_lookup_existing(self):
        g = EGraph()
        root = g.add_term(parse("(+ a b)"))
        assert g.lookup_term(parse("(+ a b)")) == g.find(root)
        assert g.lookup_term(parse("(+ b a)")) is None

    def test_lookup_after_union(self):
        g = EGraph()
        ab = g.add_term(parse("(+ a b)"))
        ba = g.add_term(parse("(+ b a)"))
        g.union(ab, ba)
        g.rebuild()
        assert g.lookup_term(parse("(+ a b)")) == g.lookup_term(
            parse("(+ b a)")
        )

    def test_lookup_absent_child(self):
        g = EGraph()
        g.add_term(parse("(+ a b)"))
        assert g.lookup_term(parse("(+ (+ a b) (neg c))")) is None

    def test_lookup_visits_each_distinct_subterm_once(self):
        # qr-3x3's term has 108 distinct subterms but 16,427 tree
        # nodes: a walk over the tree would canonicalize one node per
        # tree node.
        from repro.kernels.suite import suite_by_key
        from repro.lang.term import subterms, term_size

        term = suite_by_key(width=4)["qr-3x3"].program.term
        g = EGraph()
        root = g.add_term(term)
        g.rebuild()
        calls = []
        canonicalize = g.canonicalize
        g.canonicalize = lambda node: calls.append(node) or canonicalize(
            node
        )
        assert g.lookup_term(term) == g.find(root)
        distinct = set(subterms(term))
        assert term_size(term) > 100 * len(distinct)
        assert len(calls) == len(distinct)
        assert len(set(calls)) == len(distinct)


class TestInstantiation:
    def test_add_instantiation_binds_classes(self):
        g = EGraph()
        a = g.add_term(parse("(Get x 0)"))
        b = g.add_term(parse("(Get y 0)"))
        root = g.add_instantiation(
            parse("(+ ?u ?v)"), {"u": a, "v": b}
        )
        assert g.lookup_term(parse("(+ (Get x 0) (Get y 0))")) == g.find(
            root
        )

    def test_node_count(self):
        g = EGraph()
        g.add_term(parse("(+ (Get x 0) (Get x 1))"))
        assert g.n_nodes == 3
        assert g.n_classes == 3
