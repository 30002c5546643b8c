"""E-matching: finding all instances of a pattern in an e-graph.

Matching a pattern against an e-class yields bindings of its
wildcards to e-class ids.  A binding is a *slot tuple*: slot ``i``
holds the class bound to ``compile_pattern(pattern).slot_names[i]``.
:func:`ematch_slots` returns those tuples grouped by root, and rule
application hands them straight to the compiled right-hand side.
:func:`ematch` and :func:`match_in_class` are the ``dict`` views
(wildcard name -> class id), built only at that boundary.

Two interchangeable matchers implement the same semantics:

- the **compiled** matcher (default): each pattern is compiled once
  into a flat instruction program (:mod:`repro.egraph.compile_pattern`),
  and each program shape into a generated Python function that runs a
  whole rule application — candidate loop, scans, binding tuples, caps
  and work budget — in one call.  This is the saturation hot path;
- the **legacy** matcher: the classic backtracking relational walk
  kept as the executable specification, selectable with
  ``REPRO_LEGACY_EMATCH=1`` (or ``compiled=False``) and used by the
  differential fuzz tests to prove the compiled programs produce
  identical match lists.  Its ``dict`` bindings are converted to slot
  tuples as they leave it, and it runs inside the same candidate loop.

The e-matching VM interpreter that ran the programs before they were
generated is kept as a second oracle in ``tests/match_oracle.py``.

Binding lists are *capped* (``limit``): patterns with sibling
subpatterns over large classes produce a cross product of bindings,
and without a cap a single class can yield millions of matches — the
E-graph explosion of paper §2.3 showing up inside one match call.
Truncation keeps the earliest bindings, which follow e-node insertion
order and therefore favour the original program structure.  The total
``limit`` is checked between roots, never inside one, so a call can
return more than ``limit`` matches (see :func:`ematch`).

Work accounting is uniform: every e-node visited by any scan — leaf or
compound — charges one unit of the shared ``work_budget``, so budgets
mean the same thing on every path and across both matchers.

``ematch`` additionally restricts root candidates with a per-op index
so each rule only visits classes that can possibly match.
"""

from __future__ import annotations

import os

from repro.egraph.compile_pattern import compile_pattern
from repro.egraph.egraph import EGraph
from repro.lang.ops import WILD
from repro.lang.term import Term

Binding = dict

# Hard default cap on bindings produced while matching one pattern.
DEFAULT_MATCH_CAP = 20_000

# Default budget of e-node visits for one ematch call.  Binding caps
# bound the *output*, but a pattern can scan enormous products that
# fail late; the work budget bounds the scan itself, keeping every
# rule application O(budget) regardless of graph shape.
DEFAULT_MATCH_WORK = 100_000


def _legacy_requested() -> bool:
    return os.environ.get("REPRO_LEGACY_EMATCH", "").strip().lower() in (
        "1", "true", "yes", "on",
    )


class _Matcher:
    """One pattern-matching context over an e-graph (legacy walk).

    Holds direct references to the union-find and class table — the
    matcher is the saturation hot path, and attribute/method lookups
    per node measurably dominate otherwise.
    """

    __slots__ = ("_find", "_classes", "_cap", "work")

    def __init__(self, egraph: EGraph, cap: int, work: int = DEFAULT_MATCH_WORK):
        self._find = egraph._uf.find
        self._classes = egraph._classes
        self._cap = cap
        self.work = work

    @property
    def exhausted(self) -> bool:
        return self.work <= 0

    def match(
        self, pattern: Term, class_id: int, bindings: list[Binding]
    ) -> list[Binding]:
        if self.work <= 0:
            return []
        find = self._find
        class_id = find(class_id)

        if pattern.op == WILD:
            name = pattern.payload
            out: list[Binding] = []
            append = out.append
            for binding in bindings:
                bound = binding.get(name)
                if bound is None:
                    extended = dict(binding)
                    extended[name] = class_id
                    append(extended)
                elif find(bound) == class_id:
                    append(binding)
            return out

        nodes = self._classes[class_id].nodes
        pat_args = pattern.args

        if not pat_args and pattern.is_leaf:
            # Leaf pattern: the exact leaf e-node must be present.
            target = (pattern.op, pattern.payload, ())
            for node in nodes:
                if self.work <= 0:
                    break
                self.work -= 1
                if node == target:
                    return bindings
            return []

        op = pattern.op
        payload = pattern.payload
        n_args = len(pat_args)
        cap = self._cap
        out = []
        for node in nodes:
            if self.work <= 0:
                break
            self.work -= 1
            if node[0] != op or node[1] != payload:
                continue
            children = node[2]
            if len(children) != n_args:
                continue
            extended = bindings
            for pat, child in zip(pat_args, children):
                extended = self.match(pat, child, extended)
                if not extended:
                    break
            if extended:
                out.extend(extended)
                if len(out) >= cap:
                    del out[cap:]
                    break
        return out


def _legacy_groups(
    egraph: EGraph,
    pattern: Term,
    candidates,
    roots: set[int] | None,
    limit: int | None,
    work: int,
    cap: int,
) -> tuple[list[tuple[int, list[tuple]]], int]:
    """The generated matchers' candidate loop around the legacy walk.

    Returns ``(groups, remaining work)``; the walk's ``dict`` bindings
    become slot tuples here, so both matchers feed the same consumers.
    """
    matcher = _Matcher(egraph, cap, work)
    names = compile_pattern(pattern).slot_names
    uf = egraph._uf
    find = uf.find
    parent = uf._parent
    groups: list[tuple[int, list[tuple]]] = []
    n_matches = 0
    seen: set[int] = set()
    for class_id in candidates:
        # find() without the call when the path is already short.
        root = parent[class_id]
        if root != parent[root]:
            root = find(class_id)
        if root in seen:
            continue
        seen.add(root)
        if roots is not None and root not in roots:
            continue
        bindings = [
            tuple([binding[name] for name in names])
            for binding in matcher.match(pattern, root, [{}])
        ]
        if bindings:
            groups.append((root, bindings))
            n_matches += len(bindings)
            if limit is not None and n_matches >= limit:
                break
        if matcher.work <= 0:
            break
    return groups, matcher.work


def _match(
    egraph: EGraph,
    pattern: Term,
    candidates,
    roots: set[int] | None,
    limit: int | None,
    work: int,
    cap: int,
    compiled: bool | None,
) -> tuple[list[tuple[int, list[tuple]]], int]:
    """``(groups, remaining work)`` over ``candidates`` (class ids).

    Each candidate is canonicalized and matched once, in order, until
    ``limit`` matches are collected or the work runs out.
    """
    if compiled is None:
        compiled = not _legacy_requested()
    if not compiled:
        return _legacy_groups(egraph, pattern, candidates, roots, limit,
                              work, cap)
    program = compile_pattern(pattern)
    uf = egraph._uf
    return program.matcher()(
        program.constants, candidates, roots, limit, work, cap,
        uf.find, uf._parent, egraph._classes,
    )


def match_in_class(
    egraph: EGraph,
    pattern: Term,
    class_id: int,
    cap: int = DEFAULT_MATCH_CAP,
    compiled: bool | None = None,
) -> list[Binding]:
    """Bindings under which ``pattern`` matches class ``class_id``."""
    groups, _work = _match(egraph, pattern, (class_id,), None, None,
                           DEFAULT_MATCH_WORK, cap, compiled)
    names = compile_pattern(pattern).slot_names
    return [dict(zip(names, s)) for _root, bindings in groups
            for s in bindings]


def ematch(
    egraph: EGraph,
    pattern: Term,
    op_index: dict[str, list[int]] | None = None,
    limit: int | None = None,
    work_budget: int = DEFAULT_MATCH_WORK,
    roots: set[int] | None = None,
    compiled: bool | None = None,
    counters: dict | None = None,
) -> list[tuple[int, Binding]]:
    """All ``(root class id, binding)`` matches of ``pattern``.

    ``op_index`` (from :meth:`EGraph.op_index`) restricts root
    candidates; pass the same index to every rule in an iteration.
    ``limit`` stops the root scan once the matches collected reach it
    (the backoff scheduler's knob) and also caps each compound's
    binding list.  The check runs only after a whole root's bindings
    are added, so the result can exceed ``limit``: by up to one root's
    worth, i.e. up to ``limit - 1 + min(limit, DEFAULT_MATCH_CAP)``
    matches.  ``work_budget`` bounds the total e-nodes scanned, making
    one rule application O(budget) on any graph.  ``roots`` (canonical
    class ids) restricts the match roots — frontier matching.

    ``compiled`` selects the matcher implementation (None = compiled
    unless ``REPRO_LEGACY_EMATCH`` is set).  ``counters``, if given,
    accumulates ``"node_visits"`` — the e-nodes actually scanned.

    This is the ``dict`` view of :func:`ematch_slots`, which rule
    application uses directly.
    """
    names = compile_pattern(pattern).slot_names
    return [
        (root, dict(zip(names, s)))
        for root, bindings in ematch_slots(
            egraph, pattern, op_index=op_index, limit=limit,
            work_budget=work_budget, roots=roots, compiled=compiled,
            counters=counters,
        )
        for s in bindings
    ]


def ematch_slots(
    egraph: EGraph,
    pattern: Term,
    op_index: dict[str, list[int]] | None = None,
    limit: int | None = None,
    work_budget: int = DEFAULT_MATCH_WORK,
    roots: set[int] | None = None,
    compiled: bool | None = None,
    counters: dict | None = None,
) -> list[tuple[int, list[tuple]]]:
    """The matches of :func:`ematch`, grouped by root, as slot tuples.

    Returns ``[(root, [binding tuple, ...]), ...]`` in match order,
    roots with no binding omitted; slot ``i`` of a tuple is the class
    bound to ``compile_pattern(pattern).slot_names[i]``.  A
    bare-wildcard ``pattern`` binds ``(class_id,)`` at every class.
    Arguments mean what they mean for :func:`ematch`.
    """
    groups: list[tuple[int, list[tuple]]] = []
    cap = min(limit, DEFAULT_MATCH_CAP) if limit else DEFAULT_MATCH_CAP

    if pattern.op == WILD:
        # A bare-wildcard LHS matches every class once.
        for eclass in egraph.classes():
            if roots is not None and eclass.id not in roots:
                continue
            groups.append((eclass.id, [(eclass.id,)]))
            if limit is not None and len(groups) >= limit:
                break
        return groups

    if op_index is not None:
        candidates = op_index.get(pattern.op, ())
    else:
        # The class table's keys: every canonical class, in the order
        # ``egraph.classes()`` yields them.
        candidates = egraph._classes
    groups, work = _match(egraph, pattern, candidates, roots, limit,
                          work_budget, cap, compiled)
    if counters is not None:
        counters["node_visits"] = (
            counters.get("node_visits", 0) + (work_budget - work)
        )
    return groups
