"""Tests for the incrementally maintained per-op candidate index and
the exact live-node counter."""

from __future__ import annotations

import random

import pytest

from runner_oracle import op_index_rescan

from repro.egraph.egraph import EGraph
from repro.egraph.ematch import ematch
from repro.egraph.rewrite import parse_rewrite
from repro.egraph.runner import RunnerLimits, run_saturation
from repro.lang.parser import parse


def _canonical_sets(g: EGraph, index: dict) -> dict:
    return {
        op: {g.find(c) for c in ids} for op, ids in index.items() if ids
    }


def _random_mutations(g: EGraph, rng: random.Random, n_ops: int):
    ops = [("+", 2), ("*", 2), ("neg", 1)]
    leaves = ["a", "b", "c", "0", "1"]
    for _ in range(n_ops):
        roll = rng.random()
        if roll < 0.6:
            op, arity = rng.choice(ops)
            args = " ".join(rng.choice(leaves) for _ in range(arity))
            g.add_term(parse(f"({op} {args})"))
        else:
            classes = [c.id for c in g.classes()]
            if len(classes) >= 2:
                g.union(rng.choice(classes), rng.choice(classes))
        if rng.random() < 0.3:
            g.rebuild()
    g.rebuild()


class TestIncrementalIndex:
    @pytest.mark.parametrize("seed", range(15))
    def test_matches_rescan_after_random_ops(self, seed):
        rng = random.Random(seed)
        g = EGraph()
        _random_mutations(g, rng, 60)
        incremental = _canonical_sets(g, g.op_index())
        rescan = _canonical_sets(g, op_index_rescan(g))
        assert incremental == rescan

    def test_compaction_bounds_entries(self):
        g = EGraph()
        root = g.add_term(parse("(+ a b)"))
        for i in range(200):
            g.union(root, g.add_term(parse(f"(+ a x{i})")))
        g.rebuild()
        index = g.op_index()  # staleness threshold forces a compaction
        assert g._index_stale == 0
        # one canonical + class survives; the candidate list is deduped
        assert len(index["+"]) == 1

    def test_snapshot_is_isolated_from_later_adds(self):
        g = EGraph()
        g.add_term(parse("(+ a b)"))
        snapshot = g.op_index()
        before = list(snapshot["+"])
        g.add_term(parse("(+ c d)"))
        assert snapshot["+"] == before
        assert len(g.op_index()["+"]) == 2

    def test_ematch_results_identical_with_either_index(self):
        g = EGraph()
        a = g.add_term(parse("(+ (neg p) q)"))
        b = g.add_term(parse("(+ q (neg p))"))
        g.union(a, b)
        g.rebuild()
        pattern = parse("(+ ?x ?y)")
        inc = ematch(g, pattern, op_index=g.op_index())
        scan = ematch(g, pattern, op_index=op_index_rescan(g))
        key = lambda m: (g.find(m[0]), tuple(sorted(m[1].items())))
        assert sorted(map(key, inc)) == sorted(map(key, scan))

    def test_merged_class_found_through_stale_entry(self):
        g = EGraph()
        a = g.add_term(parse("(neg a)"))
        b = g.add_term(parse("(neg b)"))
        g.union(a, b)
        g.rebuild()
        # Without compaction the index may still hold the dead id; the
        # matcher must resolve it to the survivor and still match.
        matches = ematch(g, parse("(neg ?x)"), op_index=g.op_index())
        assert {g.find(c) for c, _ in matches} == {g.find(a)}


class TestLiveNodeCount:
    @pytest.mark.parametrize("seed", range(10))
    def test_tracks_exact_sum(self, seed):
        rng = random.Random(100 + seed)
        g = EGraph()
        _random_mutations(g, rng, 50)
        assert g.n_nodes == sum(len(c.nodes) for c in g.classes())
        assert g.n_nodes_live == g.n_nodes
        assert g.n_nodes_fast >= g.n_nodes

    def test_shrinks_after_dedup(self):
        g = EGraph()
        a = g.add_term(parse("(neg a)"))
        b = g.add_term(parse("(neg b)"))
        before = g.n_nodes_live
        g.union(g.add_term(parse("a")), g.add_term(parse("b")))
        g.rebuild()  # (neg a) and (neg b) become one canonical node
        assert g.n_nodes_live < before
        assert g.equivalent(a, b)

    def test_mid_iteration_guard_allows_long_runs(self):
        # A run that repeatedly pads and dedups must not trip the
        # mid-iteration guard: the live count comes back down on
        # rebuild, unlike the historical ever-growing upper bound.
        g = EGraph()
        for i in range(12):
            g.add_term(parse(f"(Get x {i})"))
        report = run_saturation(
            g,
            [
                parse_rewrite("pad", "?a => (+ ?a 0)"),
                parse_rewrite("unpad", "(+ ?a 0) => ?a"),
                parse_rewrite("comm", "(+ ?a ?b) => (+ ?b ?a)"),
            ],
            RunnerLimits(max_iterations=40, max_nodes=5_000),
        )
        assert report.saturated
        assert g.n_nodes == sum(len(c.nodes) for c in g.classes())
