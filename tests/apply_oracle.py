"""Rule application before slot tuples, kept as a differential oracle.

This is how ``repro.egraph.rewrite.apply_rewrite`` applied a rule
before rules compiled to slot-tuple programs.  ``ematch`` turned every
binding into a ``dict``, and ``add_instantiation`` walked the RHS term
recursively, one ``add_enode`` per node, then ``union`` ran for every
match.  ``oracle_rebuild`` is the congruence repair of that time,
which canonicalized every node it touched through ``find``.  These are kept
verbatim so that ``tests/test_apply_differential.py`` can check that
the product leaves the e-graph in exactly the same state.
"""

from __future__ import annotations

import time

from match_oracle import CompiledMatcher, RecursiveMatcher

from repro.egraph.compile_pattern import compile_pattern
from repro.egraph.egraph import EClass, EGraph, ENode
from repro.egraph.ematch import DEFAULT_MATCH_CAP, DEFAULT_MATCH_WORK
from repro.egraph.rewrite import ApplyStats, Rewrite
from repro.lang.ops import WILD
from repro.lang.term import Term


class _DictMatcher(CompiledMatcher):
    """The compiled matcher with its old per-class ``dict`` output."""

    __slots__ = ()

    def match_class(self, class_id: int) -> list[dict]:
        """All bindings of the pattern against ``class_id``."""
        if self.work <= 0:
            return []
        compiled = self._compiled
        regs = [0] * compiled.n_regs
        regs[0] = self._find(class_id)
        program = compiled.program
        states = self._run(program, 0, len(program), [()], regs)
        names = compiled.slot_names
        return [dict(zip(names, s)) for s in states]


def _make_matcher(egraph, pattern, cap, work, compiled):
    if compiled:
        matcher = _DictMatcher(compile_pattern(pattern), egraph, cap, work)
        return matcher, matcher.match_class
    matcher = RecursiveMatcher(egraph, cap, work)
    return matcher, lambda cid: matcher.match(pattern, cid, [{}])


def oracle_ematch(
    egraph: EGraph,
    pattern: Term,
    op_index: dict[str, list[int]] | None = None,
    limit: int | None = None,
    work_budget: int = DEFAULT_MATCH_WORK,
    roots: set[int] | None = None,
    compiled: bool = True,
    counters: dict | None = None,
) -> list[tuple[int, dict]]:
    """All ``(root class id, binding dict)`` matches of ``pattern``.

    ``compiled=False`` matches with the recursive walk
    (``match_oracle.RecursiveMatcher``) instead of the VM.
    """
    results: list[tuple[int, dict]] = []
    cap = min(limit, DEFAULT_MATCH_CAP) if limit else DEFAULT_MATCH_CAP

    if pattern.op == WILD:
        # A bare-wildcard LHS matches every class once.
        for eclass in egraph.classes():
            if roots is not None and eclass.id not in roots:
                continue
            results.append((eclass.id, {pattern.payload: eclass.id}))
            if limit is not None and len(results) >= limit:
                break
        return results

    matcher, match_root = _make_matcher(
        egraph, pattern, cap, work_budget, compiled
    )
    if op_index is not None:
        candidates = op_index.get(pattern.op, ())
        find = egraph.find
        seen: set[int] = set()
        for class_id in candidates:
            root = find(class_id)
            if root in seen:
                continue
            seen.add(root)
            if roots is not None and root not in roots:
                continue
            for binding in match_root(root):
                results.append((root, binding))
            if limit is not None and len(results) >= limit:
                break
            if matcher.exhausted:
                break
    else:
        for eclass in egraph.classes():
            if roots is not None and eclass.id not in roots:
                continue
            for binding in match_root(eclass.id):
                results.append((eclass.id, binding))
            if limit is not None and len(results) >= limit:
                break
            if matcher.exhausted:
                break
    if counters is not None:
        counters["node_visits"] = (
            counters.get("node_visits", 0) + (work_budget - matcher.work)
        )
    return results


def add_enode(egraph: EGraph, op: str, payload, children: tuple) -> int:
    """Add an e-node (children are e-class ids); returns its class."""
    find = egraph._uf.find
    node = (op, payload, tuple(find(c) for c in children))
    existing = egraph._hashcons.get(node)
    if existing is not None:
        return find(existing)
    class_id = egraph._uf.make_set()
    egraph._n_adds += 1
    egraph._n_live_nodes += 1
    eclass = EClass(class_id)
    eclass.nodes.append(node)
    egraph._classes[class_id] = eclass
    egraph._hashcons[node] = class_id
    egraph._touched.add(class_id)
    index = egraph._op_index.get(op)
    if index is None:
        egraph._op_index[op] = [class_id]
    else:
        index.append(class_id)
    for child in node[2]:
        egraph._classes[find(child)].parents.append((node, class_id))
    return class_id


def add_instantiation(
    egraph: EGraph, pattern: Term, binding: dict[str, int]
) -> int:
    """Add ``pattern`` with wildcards bound to e-class ids."""
    if pattern.op == "Wild":
        return egraph._uf.find(binding[pattern.payload])
    children = tuple(
        add_instantiation(egraph, arg, binding) for arg in pattern.args
    )
    return add_enode(egraph, pattern.op, pattern.payload, children)


def oracle_apply_rewrite(
    egraph: EGraph,
    rule: Rewrite,
    op_index: dict[str, list[int]] | None = None,
    match_limit: int | None = None,
    match_work: int | None = None,
    roots: set[int] | None = None,
    compiled: bool = True,
) -> ApplyStats:
    """Match ``rule.lhs`` everywhere and union with ``rule.rhs``."""
    stats = ApplyStats()
    counters: dict = {}
    t0 = time.perf_counter()
    matches = oracle_ematch(
        egraph,
        rule.lhs,
        op_index=op_index,
        limit=match_limit,
        work_budget=match_work or DEFAULT_MATCH_WORK,
        roots=roots,
        compiled=compiled,
        counters=counters,
    )
    stats.match_time = time.perf_counter() - t0
    stats.n_visits = counters.get("node_visits", 0)
    stats.n_matches = len(matches)
    for class_id, binding in matches:
        rhs_id = add_instantiation(egraph, rule.rhs, binding)
        if egraph.union(class_id, rhs_id):
            stats.n_unions += 1
    return stats


def oracle_rebuild(egraph: EGraph) -> int:
    """Restore hashcons/congruence invariants; returns repair count."""
    n_repairs = 0
    while egraph._worklist:
        todo = {egraph._uf.find(c) for c in egraph._worklist}
        egraph._worklist.clear()
        for class_id in todo:
            if class_id in egraph._classes:
                _repair(egraph, class_id)
                n_repairs += 1
    return n_repairs


def _canonicalize(egraph: EGraph, node: ENode) -> ENode:
    """``node`` with every child id replaced by its representative."""
    op, payload, children = node
    find = egraph._uf.find
    new_children = tuple(find(c) for c in children)
    if new_children == children:
        return node
    return (op, payload, new_children)


def _repair(egraph: EGraph, class_id: int) -> None:
    find = egraph._uf.find
    eclass = egraph._classes.get(find(class_id))
    if eclass is None:  # merged away by a congruence union
        return

    # Re-canonicalize parent e-nodes; equal canonical parents in
    # different classes witness a congruence and get unioned.
    new_parents: dict[ENode, int] = {}
    for pnode, pclass in eclass.parents:
        egraph._hashcons.pop(pnode, None)
        canon = _canonicalize(egraph, pnode)
        pclass = find(pclass)
        previous = new_parents.get(canon)
        if previous is not None and previous != pclass:
            egraph.union(previous, pclass)
            pclass = find(pclass)
        new_parents[canon] = pclass
    for canon, pclass in new_parents.items():
        egraph._hashcons[canon] = pclass
    eclass.parents = list(new_parents.items())

    # Dedupe this class's own nodes under canonicalization.
    seen: dict[ENode, None] = {}
    for node in eclass.nodes:
        seen.setdefault(_canonicalize(egraph, node), None)
    egraph._n_live_nodes -= len(eclass.nodes) - len(seen)
    eclass.nodes = list(seen)
