"""The worklist-fixpoint extractor, kept as a differential oracle.

This is the extraction algorithm ``repro.egraph.extract`` used before
it became one cost-ordered pass.  Phase 1 is a LIFO worklist fixpoint
over minimum costs: when a class's best cost improves, every class
holding a parent e-node is re-examined.  Phase 2 is a second fixpoint
that canonicalizes cost ties by least canon key.  Both phases may
visit a class many times before its children settle, which is what
made it slow; it is kept verbatim so
``tests/test_extract_differential.py`` can check that the product
extractor returns the same ``(cost, term)`` on every input.
"""

from __future__ import annotations

from repro.egraph.egraph import EGraph
from repro.egraph.extract import Extractor, _head_cost_fn


class OracleExtractor(Extractor):
    """The fixpoint extractor, behind the product :class:`Extractor`'s
    query API (``best``, ``best_cost``, ``has_solution``)."""

    def __init__(self, egraph: EGraph, cost):
        self._egraph = egraph
        self._node_cost = _head_cost_fn(cost)
        # class id -> (total cost, chosen node)
        self._best: dict[int, tuple[float, tuple]] = {}
        self._solve()

    def _solve(self) -> None:
        egraph = self._egraph
        best = self._best
        node_cost = self._node_cost
        find = egraph.find

        # parent map: child class -> classes containing a parent node
        classes = list(egraph.classes())
        parents: dict[int, set[int]] = {}
        for eclass in classes:
            for _op, _payload, children in eclass.nodes:
                for child in children:
                    parents.setdefault(find(child), set()).add(eclass.id)

        worklist = [c.id for c in classes]
        in_list = set(worklist)

        while worklist:
            class_id = worklist.pop()
            in_list.discard(class_id)
            eclass = egraph.eclass(class_id)
            entry = best.get(class_id)
            current = entry[0] if entry is not None else None
            improved = False
            for node in eclass.nodes:
                children = node[2]
                total = 0.0
                heads = []
                ok = True
                for child in children:
                    child_entry = best.get(find(child))
                    if child_entry is None:
                        ok = False
                        break
                    total += child_entry[0]
                    chosen = child_entry[1]
                    heads.append((chosen[0], chosen[1]))
                if not ok:
                    continue
                total += node_cost(node[0], node[1], heads)
                if current is None or total < current:
                    current = total
                    best[class_id] = (total, node)
                    improved = True
            if improved:
                for parent in parents.get(class_id, ()):
                    parent = find(parent)
                    if parent not in in_list:
                        worklist.append(parent)
                        in_list.add(parent)

        self._break_ties(parents)

    def _break_ties(self, parents: dict[int, set[int]]) -> None:
        """Canonicalize the chosen node of every cost-tied class.

        Second fixpoint over final costs: each class's *canon key* is
        a nested ``(op, repr(payload), child keys...)`` tuple — the
        structure of its chosen term — and among nodes achieving the
        class's minimum cost the lexicographically least key wins.
        Keys nest by reference, so building one is O(arity); the
        fixpoint computes the unique least solution, making the chosen
        term independent of e-graph iteration order.  A cost-tied
        cyclic choice would need two zero-cost nodes, which strict
        monotonicity rules out, so the canonical pointers stay acyclic.
        """
        egraph = self._egraph
        best = self._best
        node_cost = self._node_cost
        find = egraph.find

        # Initial canon keys from the (acyclic) phase-1 pointers.
        canon: dict[int, tuple] = {}
        stack = list(best)
        while stack:
            cid = stack[-1]
            if cid in canon:
                stack.pop()
                continue
            op, payload, children = best[cid][1]
            missing = [
                find(c) for c in children if find(c) not in canon
            ]
            if missing:
                stack.extend(missing)
                continue
            stack.pop()
            canon[cid] = (op, repr(payload)) + tuple(
                canon[find(c)] for c in children
            )

        worklist = list(best)
        in_list = set(worklist)
        while worklist:
            class_id = worklist.pop()
            in_list.discard(class_id)
            entry = best.get(class_id)
            if entry is None:
                continue
            target, chosen = entry
            current = canon[class_id]
            improved = False
            for node in egraph.eclass(class_id).nodes:
                children = node[2]
                total = 0.0
                heads = []
                keys = []
                ok = True
                for child in children:
                    child_id = find(child)
                    child_entry = best.get(child_id)
                    if child_entry is None:
                        ok = False
                        break
                    total += child_entry[0]
                    chosen_child = child_entry[1]
                    heads.append((chosen_child[0], chosen_child[1]))
                    keys.append(canon[child_id])
                if not ok:
                    continue
                total += node_cost(node[0], node[1], heads)
                if total != target:
                    continue
                key = (node[0], repr(node[1])) + tuple(keys)
                if key < current:
                    current = key
                    canon[class_id] = key
                    best[class_id] = (target, node)
                    improved = True
            if improved:
                for parent in parents.get(class_id, ()):
                    parent = find(parent)
                    if parent not in in_list:
                        worklist.append(parent)
                        in_list.add(parent)
