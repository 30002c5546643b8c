"""E-matching: finding all instances of a pattern in an e-graph.

Matching a pattern against an e-class yields bindings of its
wildcards to e-class ids.  A binding is a *slot tuple*: slot ``i``
holds the class bound to ``compile_pattern(pattern).slot_names[i]``.
:func:`ematch_slots` returns those tuples grouped by root, and rule
application hands them straight to the compiled right-hand side.
:func:`ematch` and :func:`match_in_class` are the ``dict`` views
(wildcard name -> class id), built only at that boundary.

Each pattern is compiled once into a flat instruction program
(:mod:`repro.egraph.compile_pattern`), and each program shape into a
generated Python function that runs a whole rule application —
candidate loop, scans, binding tuples, caps and work budget — in one
call.  This is the saturation hot path.

``tests/match_oracle.py`` keeps the two matchers it replaced as
differential oracles: the classic backtracking recursive walk and the
e-matching VM interpreter that ran the programs before they were
generated.  The fuzz tests hold the product to identical match lists
and node visits against both.

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
mean the same thing on every path and against both oracles.

``ematch`` additionally restricts root candidates with a per-op index
so each rule only visits classes that can possibly match.
"""

from __future__ import annotations

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


def _match(
    egraph: EGraph,
    pattern: Term,
    candidates,
    roots: set[int] | None,
    limit: int | None,
    work: int,
    cap: int,
) -> tuple[list[tuple[int, list[tuple]]], int]:
    """``(groups, remaining work)`` over ``candidates`` (class ids).

    Each candidate is canonicalized and matched once, in order, until
    ``limit`` matches are collected or the work runs out.
    """
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
) -> list[Binding]:
    """Bindings under which ``pattern`` matches class ``class_id``."""
    groups, _work = _match(egraph, pattern, (class_id,), None, None,
                           DEFAULT_MATCH_WORK, cap)
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
    ``counters``, if given, accumulates ``"node_visits"`` — the
    e-nodes actually scanned.

    This is the ``dict`` view of :func:`ematch_slots`, which rule
    application uses directly.
    """
    names = compile_pattern(pattern).slot_names
    return [
        (root, dict(zip(names, s)))
        for root, bindings in ematch_slots(
            egraph, pattern, op_index=op_index, limit=limit,
            work_budget=work_budget, roots=roots, counters=counters,
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
                          work_budget, cap)
    if counters is not None:
        counters["node_visits"] = (
            counters.get("node_visits", 0) + (work_budget - work)
        )
    return groups
