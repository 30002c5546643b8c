"""Minimum-cost term extraction from a saturated e-graph.

Extraction settles every e-class exactly once, cheapest first: Knuth's
generalization of Dijkstra's algorithm, the bottom-up extraction egg
uses.  An e-node waits until all of its child classes have settled.
It is then costed once, with its children's final costs and chosen
heads, and offers that total to its own class.  Classes settle off a
heap in ascending cost order.  The cost function is strictly monotonic
(Definition 2), so a node's total exceeds each child's cost.  By the
time a class reaches the top of the heap, every node that can achieve
its minimum has therefore been costed, and the popped cost is final.
Each e-node is costed at most once; the ``extract`` span reports the
count as ``n_evals``.

Cost ties are broken *canonically* as a class settles: among the nodes
achieving its minimum, the one whose materialized term is
lexicographically least wins.  Each settled class gets a *canon key*,
the nested tuple ``(op, repr(payload), child keys...)`` of its chosen
term.  Keys nest by reference, so building one is O(arity), and the
children of a minimum-cost node settled strictly earlier, so their
keys are final.  The extracted program is thus a function of the
e-graph's term sets alone, not of rule application order or node
insertion order: two saturations that discover the same equalities
extract byte-identical programs.  A node competes only if all of its
children settled before its class did.  A minimum-cost node can fail
that only through a zero-cost node, which the callable cost API
admits; leaving it out keeps the chosen pointers acyclic, so the final
term is materialized by walking them.

The cost function is *structural*: choosing an e-node costs

    node_cost(op, payload, chosen_children) + sum(child costs)

where the node cost may inspect the chosen children's *heads* (their
root op/payload) — the Isaria cost model needs this because a ``Vec``
of computed lanes is far more expensive than one of loadable leaves
(§3.2).  Cost functions may implement the fast head-based protocol
(``node_cost_heads``); plain callables over child terms are adapted.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable

from repro.egraph.egraph import EGraph
from repro.lang.term import Term, make
from repro.obs import current_tracer

# A head is the (op, payload) pair of a chosen child node.
Head = tuple


class _TermCostAdapter:
    """Wrap a child-term cost function into the head protocol.

    Builds tiny one-level dummy terms so legacy/structural cost
    callables keep working; the dummies only expose op/payload/leafness,
    which is all a structural cost function may rely on.  The dummy for
    each ``(op, payload)`` head is memoized per adapter: extraction
    calls the cost function once per (node, child) pair, and without
    the memo every call re-enters the term intern table.
    """

    def __init__(self, fn: Callable):
        self._fn = fn
        self._heads: dict[Head, Term] = {}

    def node_cost_heads(self, op: str, payload, child_heads) -> float:
        cache = self._heads
        child_terms = []
        for head in child_heads:
            term = cache.get(head)
            if term is None:
                term = cache[head] = _dummy_term(head[0], head[1])
            child_terms.append(term)
        return self._fn(op, payload, tuple(child_terms))


_DUMMY_CHILD = None


def _dummy_term(op: str, payload) -> Term:
    global _DUMMY_CHILD
    if op in ("Const", "Symbol", "Get", "Wild"):
        return make(op, payload=payload)
    if _DUMMY_CHILD is None:
        _DUMMY_CHILD = make("Symbol", payload="•dummy")
    return make(op, _DUMMY_CHILD, payload=payload)


def _head_cost_fn(cost):
    if hasattr(cost, "node_cost_heads"):
        return cost.node_cost_heads
    if hasattr(cost, "node_cost"):
        return _TermCostAdapter(cost.node_cost).node_cost_heads
    return _TermCostAdapter(cost).node_cost_heads


class Extractor:
    """Cost-ordered bottom-up extractor over one e-graph."""

    def __init__(self, egraph: EGraph, cost):
        self._egraph = egraph
        self._node_cost = _head_cost_fn(cost)
        # class id -> (total cost, chosen node)
        self._best: dict[int, tuple[float, tuple]] = {}
        with current_tracer().span(
            "extract", n_nodes=egraph.n_nodes, n_classes=egraph.n_classes
        ) as span:
            n_evals = self._solve()
            span.add(n_solved=len(self._best), n_evals=n_evals)

    def _solve(self) -> int:
        """Settle every extractable class; returns node-cost evaluations.

        The per-node tables below are locals, so they are freed as soon
        as solving ends; only the chosen node per class is kept.
        """
        egraph = self._egraph
        canonicalize = egraph.canonicalize
        node_cost = self._node_cost
        best = self._best

        # Per e-node: the node as stored, its class, its canonical
        # children, and how many child occurrences are still unsettled.
        nodes: list[tuple] = []
        owners: list[int] = []
        kids: list[tuple[int, ...]] = []
        waiting: list[int] = []
        # child class -> nodes waiting on it (one entry per occurrence)
        users: dict[int, list[int]] = {}
        ready: list[int] = []
        for eclass in egraph.classes():
            for node in eclass.nodes:
                index = len(nodes)
                children = canonicalize(node)[2]
                nodes.append(node)
                owners.append(eclass.id)
                kids.append(children)
                waiting.append(len(children))
                if not children:
                    ready.append(index)
                for child in children:
                    users.setdefault(child, []).append(index)

        # unsettled class -> (cheapest total so far, nodes achieving it)
        frontier: dict[int, tuple[float, list[int]]] = {}
        heap: list[tuple[float, int]] = []
        # settled class -> canon key of its chosen term
        canon: dict[int, tuple] = {}
        n_evals = 0

        while True:
            for index in ready:
                owner = owners[index]
                if owner in canon:
                    continue  # settled before this node's last child
                node = nodes[index]
                total = 0.0
                heads = []
                for child in kids[index]:
                    child_cost, chosen = best[child]
                    total += child_cost
                    heads.append((chosen[0], chosen[1]))
                total += node_cost(node[0], node[1], heads)
                n_evals += 1
                entry = frontier.get(owner)
                if entry is None or total < entry[0]:
                    frontier[owner] = (total, [index])
                    heappush(heap, (total, owner))
                elif total == entry[0]:
                    entry[1].append(index)

            # Settle the cheapest unsettled class.  Entries for settled
            # classes are stale offers, superseded by a cheaper one.
            while heap and heap[0][1] in canon:
                heappop(heap)
            if not heap:
                return n_evals
            cost, class_id = heappop(heap)

            key = chosen = None
            for index in frontier.pop(class_id)[1]:
                node = nodes[index]
                node_key = (node[0], repr(node[1])) + tuple(
                    canon[child] for child in kids[index]
                )
                if key is None or node_key < key:
                    key, chosen = node_key, node
            canon[class_id] = key
            best[class_id] = (cost, chosen)

            ready = []
            for index in users.get(class_id, ()):
                waiting[index] -= 1
                if not waiting[index]:
                    ready.append(index)

    # -- queries ---------------------------------------------------------

    def has_solution(self, class_id: int) -> bool:
        """True when ``class_id`` has at least one extractable term."""
        return self._egraph.find(class_id) in self._best

    def best(self, class_id: int) -> tuple[float, Term]:
        """(cost, term) of the cheapest program in ``class_id``."""
        entry = self._best.get(self._egraph.find(class_id))
        if entry is None:
            raise ValueError(
                f"e-class {class_id} has no extractable term "
                "(cyclic class with no base case)"
            )
        return entry[0], self._materialize(class_id)

    def best_cost(self, class_id: int) -> float:
        """Cost of the cheapest program in ``class_id``."""
        entry = self._best.get(self._egraph.find(class_id))
        if entry is None:
            raise ValueError(f"e-class {class_id} has no extractable term")
        return entry[0]

    def best_term(self, class_id: int) -> Term:
        """The cheapest program in ``class_id`` (term only)."""
        return self.best(class_id)[1]

    def _materialize(self, class_id: int) -> Term:
        """Build the chosen term by following best-node pointers.

        Iterative post-order: strict monotonicity makes the chosen
        pointers acyclic, but kernels can be deep, so no recursion.
        """
        find = self._egraph.find
        best = self._best
        memo: dict[int, Term] = {}
        stack = [find(class_id)]
        while stack:
            cid = stack[-1]
            if cid in memo:
                stack.pop()
                continue
            entry = best.get(cid)
            if entry is None:
                raise ValueError(
                    f"e-class {cid} has no extractable term"
                )
            op, payload, children = entry[1]
            missing = [
                find(c) for c in children if find(c) not in memo
            ]
            if missing:
                stack.extend(missing)
                continue
            stack.pop()
            memo[cid] = make(
                op,
                *(memo[find(c)] for c in children),
                payload=payload,
            )
        return memo[find(class_id)]


def extract_best(egraph: EGraph, class_id: int, cost) -> tuple[float, Term]:
    """One-shot extraction: cheapest (cost, term) for ``class_id``."""
    return Extractor(egraph, cost).best(class_id)
