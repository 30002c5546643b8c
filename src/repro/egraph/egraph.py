"""The e-graph: e-classes of e-nodes with deferred congruence repair.

An e-node is a plain tuple ``(op, payload, children)`` where children
are e-class ids; plain tuples keep hashing fast, which dominates
e-graph performance in Python.  The implementation follows the egg
paper's rebuilding algorithm: ``union`` only merges classes and enqueues
them, and ``rebuild`` restores the hashcons and congruence invariants.
"""

from __future__ import annotations

from typing import Iterator

from repro.egraph.compile_pattern import (
    CompiledRhs,
    compile_pattern,
    compile_rhs,
)
from repro.egraph.unionfind import UnionFind
from repro.lang.term import Term

# (op, payload, child class ids)
ENode = tuple


def make_enode(op: str, payload, children: tuple[int, ...]) -> ENode:
    return (op, payload, children)


class EClass:
    """One equivalence class of e-nodes."""

    __slots__ = ("id", "nodes", "parents")

    def __init__(self, class_id: int):
        self.id = class_id
        # Canonical e-nodes in this class.
        self.nodes: list[ENode] = []
        # (parent enode as constructed, parent class id) pairs; repaired
        # lazily during rebuild.
        self.parents: list[tuple[ENode, int]] = []


class EGraph:
    """A congruence-closed term graph supporting equality saturation."""

    def __init__(self):
        self._uf = UnionFind()
        self._classes: dict[int, EClass] = {}
        self._hashcons: dict[ENode, int] = {}
        self._worklist: list[int] = []
        self._n_unions = 0
        self._n_adds = 0
        self._n_live_nodes = 0
        self._touched: set[int] = set()
        # Incremental per-op root-candidate index: op -> class ids that
        # (transitively, through the union-find) hold a node with that
        # op.  Appended to on every add; unions leave stale ids behind
        # that readers resolve with ``find`` and that ``op_index``
        # compacts away once enough staleness accumulates.
        self._op_index: dict[str, list[int]] = {}
        self._index_stale = 0

    # -- basic queries -----------------------------------------------------

    def find(self, class_id: int) -> int:
        """The canonical representative of ``class_id``."""
        return self._uf.find(class_id)

    @property
    def n_classes(self) -> int:
        """Number of live (canonical) e-classes."""
        return len(self._classes)

    @property
    def n_nodes(self) -> int:
        """Live e-node count, O(1).

        Tracked incrementally (+1 per add, -k per rebuild dedup); the
        nodes of classes merged by ``union`` move but are not
        destroyed, so only those two operations touch the counter.
        """
        return self._n_live_nodes

    @property
    def n_nodes_live(self) -> int:
        """Alias of :attr:`n_nodes` — the exact live count, O(1).

        Unlike the historical ``n_nodes_fast`` upper bound (which only
        ever grows), this shrinks when rebuilds dedup nodes, so
        mid-iteration limit guards don't kill long runs spuriously.
        """
        return self._n_live_nodes

    @property
    def n_nodes_fast(self) -> int:
        """Upper bound on node count, O(1).

        Counts every e-node ever created (dedup during rebuild can
        shrink the true count).  Kept for diagnostics; limit guards use
        :attr:`n_nodes_live` instead.
        """
        return self._n_adds

    @property
    def n_unions(self) -> int:
        """Total successful unions ever performed (progress metric)."""
        return self._n_unions

    @property
    def is_clean(self) -> bool:
        """True when no rebuild work is pending."""
        return not self._worklist

    def classes(self) -> Iterator[EClass]:
        """All canonical e-classes."""
        return iter(self._classes.values())

    def eclass(self, class_id: int) -> EClass:
        """The canonical :class:`EClass` containing ``class_id``."""
        return self._classes[self.find(class_id)]

    def canonicalize(self, node: ENode) -> ENode:
        """``node`` with every child id replaced by its representative."""
        op, payload, children = node
        uf = self._uf
        parent = uf._parent
        canon = []
        for c in children:
            r = parent[c]
            if r != parent[r]:
                r = uf.find(c)
            canon.append(r)
        new_children = tuple(canon)
        if new_children == children:
            return node
        return (op, payload, new_children)

    # -- construction --------------------------------------------------------

    def add_enode(self, op: str, payload, children: tuple[int, ...]) -> int:
        """Add an e-node (children are e-class ids); returns its class."""
        find = self._uf.find
        node = (op, payload, tuple(find(c) for c in children))
        existing = self._hashcons.get(node)
        if existing is not None:
            return find(existing)
        return self._add_new(node)

    def _add_new(self, node: ENode) -> int:
        """Add canonical ``node``, a hashcons miss, as a new class.

        The miss path :meth:`add_enode` and :meth:`instantiate` share.
        """
        find = self._uf.find
        class_id = self._uf.make_set()
        self._n_adds += 1
        self._n_live_nodes += 1
        eclass = EClass(class_id)
        eclass.nodes.append(node)
        self._classes[class_id] = eclass
        self._hashcons[node] = class_id
        self._touched.add(class_id)
        op = node[0]
        index = self._op_index.get(op)
        if index is None:
            self._op_index[op] = [class_id]
        else:
            index.append(class_id)
        for child in node[2]:
            self._classes[find(child)].parents.append((node, class_id))
        return class_id

    def add_term(self, term: Term) -> int:
        """Add a ground term bottom-up; returns the root's class id.

        Iterative and memoized over the term DAG, so heavily shared
        kernels (QR) insert in time proportional to their DAG size.
        """
        from repro.lang.term import fold_term

        return fold_term(
            term,
            lambda t, child_ids: self.add_enode(t.op, t.payload, child_ids),
        )

    def union(self, a: int, b: int) -> bool:
        """Assert a = b.  Returns True if the graph changed.

        Congruence is restored by the next :meth:`rebuild`.
        """
        a, b = self._uf.find(a), self._uf.find(b)
        if a == b:
            return False
        # Keep the class with more parents as the survivor: less parent
        # list copying over the life of the graph.
        ca, cb = self._classes[a], self._classes[b]
        if len(ca.parents) < len(cb.parents):
            a, b = b, a
            ca, cb = cb, ca
        self._uf.union(a, b)
        ca.nodes.extend(cb.nodes)
        ca.parents.extend(cb.parents)
        del self._classes[b]
        self._worklist.append(a)
        self._n_unions += 1
        self._index_stale += 1
        self._touched.add(a)
        return True

    # -- rebuilding (deferred congruence closure) ---------------------------

    def rebuild(self) -> int:
        """Restore hashcons/congruence invariants; returns repair count."""
        n_repairs = 0
        while self._worklist:
            todo = {self._uf.find(c) for c in self._worklist}
            self._worklist.clear()
            for class_id in todo:
                if class_id in self._classes:
                    self._repair(class_id)
                    n_repairs += 1
        return n_repairs

    def _repair(self, class_id: int) -> None:
        find = self._uf.find
        eclass = self._classes.get(find(class_id))
        if eclass is None:  # merged away by a congruence union
            return

        # Re-canonicalize parent e-nodes; equal canonical parents in
        # different classes witness a congruence and get unioned.
        new_parents: dict[ENode, int] = {}
        for pnode, pclass in eclass.parents:
            self._hashcons.pop(pnode, None)
            canon = self.canonicalize(pnode)
            pclass = find(pclass)
            previous = new_parents.get(canon)
            if previous is not None and previous != pclass:
                self.union(previous, pclass)
                pclass = find(pclass)
            new_parents[canon] = pclass
        for canon, pclass in new_parents.items():
            self._hashcons[canon] = pclass
        eclass.parents = list(new_parents.items())

        # Dedupe this class's own nodes under canonicalization.
        seen: dict[ENode, None] = {}
        for node in eclass.nodes:
            seen.setdefault(self.canonicalize(node), None)
        self._n_live_nodes -= len(eclass.nodes) - len(seen)
        eclass.nodes = list(seen)

    # -- pattern instantiation ----------------------------------------------

    def instantiate(self, rhs: CompiledRhs, binding: tuple) -> int:
        """Add the compiled ``rhs`` under slot-tuple ``binding``.

        Returns the canonical class of the RHS root.  Each template
        probes the hashcons once and only a miss allocates.  The graph
        ends in the state the recursive :meth:`add_enode` walk of the
        same pattern leaves, down to union-find path compression.
        """
        uf = self._uf
        parent = uf._parent
        regs = []
        append = regs.append
        for slot in rhs.reads:
            c = binding[slot]
            # find() without the call when the path is already short.
            r = parent[c]
            if r != parent[r]:
                r = uf.find(c)
            append(r)
        nodes = rhs.nodes
        if not nodes:
            return regs[0]
        hashcons = self._hashcons
        for op, payload, _registers, children in nodes:
            node = (op, payload, children(regs))
            c = hashcons.get(node)
            if c is None:
                r = self._add_new(node)
            else:
                r = parent[c]
                if r != parent[r]:
                    r = uf.find(c)
            append(r)
        return r

    def add_instantiation(self, pattern: Term, binding: dict[str, int]) -> int:
        """Add ``pattern`` with wildcards bound to e-class ids.

        The ``dict`` view of :meth:`instantiate`: ``KeyError`` if a
        wildcard of ``pattern`` is unbound.
        """
        names = compile_pattern(pattern).slot_names
        return self.instantiate(
            compile_rhs(pattern, pattern),
            tuple([binding[name] for name in names]),
        )

    def take_touched(self) -> set[int]:
        """Canonical ids of classes changed since the last call.

        Supports frontier (incremental) matching: a saturation
        iteration can restrict pattern roots to recently changed
        classes, focusing match budgets on new structure.
        """
        find = self._uf.find
        touched = {
            find(c) for c in self._touched if find(c) in self._classes
        }
        self._touched.clear()
        return touched

    # -- indexes --------------------------------------------------------------

    def op_index(self) -> dict[str, list[int]]:
        """Map op -> candidate class ids holding a node with that op.

        Maintained *incrementally*: ``add_enode`` appends, unions only
        bump a staleness counter, and readers canonicalize candidate
        ids through ``find``.  The ids may therefore be stale (merged
        away) or duplicated — consumers (``ematch``) dedup by canonical
        root, which they must do anyway.  Once enough unions accumulate
        the lists are compacted in place, bounding the wasted scans.

        Returns a snapshot (fresh list objects), so nodes added while a
        saturation iteration consumes the index do not grow the
        candidate sets mid-iteration — same semantics as the historical
        full rescan, at a fraction of the per-iteration cost.
        """
        if self._index_stale > 64 + (len(self._classes) >> 2):
            self._compact_op_index()
        return {op: lst.copy() for op, lst in self._op_index.items() if lst}

    def _compact_op_index(self) -> None:
        """Drop merged-away and duplicate candidate ids, in place."""
        find = self._uf.find
        for lst in self._op_index.values():
            seen: set[int] = set()
            compacted: list[int] = []
            for class_id in lst:
                root = find(class_id)
                if root not in seen:
                    seen.add(root)
                    compacted.append(root)
            lst[:] = compacted
        self._index_stale = 0

    def holds(self, needs: tuple) -> bool:
        """False when a pattern with these ``needs`` cannot match here.

        ``needs`` is a compiled pattern's ``(ops, leaves)``
        (``CompiledPattern.needs``): the ops its scans look for and
        the leaf e-nodes it requires.  Without a node of one of those
        ops, or without one of those leaves, the pattern matches
        nothing anywhere in the graph.

        Ops are read from the live op index, not an :meth:`op_index`
        snapshot, so an op added mid-iteration counts at once.  Leaves
        are read from the hashcons, whose lookup compares like the
        matcher's ``node == target`` (``1``, ``1.0`` and
        ``Fraction(1)`` are one key).  Both reads are exact because
        presence is monotone.  Nodes are never deleted: rebuild only
        dedups equal nodes, and compaction keeps each op list's
        canonical ids, so an op's list never empties once appended to.
        ``_repair`` re-keys only parent nodes, which a leaf never is,
        so a leaf keeps its hashcons key.  Hence every node in the
        graph has a non-empty op list, and every leaf node is a
        hashcons key.
        """
        ops, leaves = needs
        index = self._op_index
        for op in ops:
            if not index.get(op):
                return False
        hashcons = self._hashcons
        for leaf in leaves:
            if leaf not in hashcons:
                return False
        return True

    # -- equality queries -----------------------------------------------------

    def equivalent(self, a: int, b: int) -> bool:
        """True when classes ``a`` and ``b`` have been unioned."""
        return self._uf.find(a) == self._uf.find(b)

    def lookup_term(self, term: Term) -> int | None:
        """Class id of ``term`` if it is represented, else None."""
        children = []
        for arg in term.args:
            child = self.lookup_term(arg)
            if child is None:
                return None
            children.append(child)
        node = (term.op, term.payload, tuple(children))
        found = self._hashcons.get(self.canonicalize(node))
        return self._uf.find(found) if found is not None else None
