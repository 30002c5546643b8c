"""The two e-matchers the generated matchers replaced, kept as oracles.

``CompiledMatcher`` is the e-matching VM interpreter: how
``repro.egraph.ematch`` ran a compiled LHS program before each program
shape became a generated Python function
(``repro.egraph.compile_pattern.shape_matcher``).  It dispatches one
instruction at a time, recurses once per SCAN hit and is called once
per candidate root; ``oracle_ematch_slots`` is the candidate loop
``ematch_slots`` wrapped around it.

``RecursiveMatcher`` is the classic backtracking relational walk over
the pattern term, the executable specification of e-matching that
predates compiled patterns.  ``recursive_ematch`` and
``recursive_match_in_class`` are ``ematch`` and ``match_in_class``
running it inside the same candidate loop, its ``dict`` bindings
converted to slot tuples and back as the product's are.

Both are kept verbatim so ``tests/test_ematch_compiled.py`` can check
that the generated matchers return the same matches and spend the same
work, and, against the VM, leave the union-find parent array exactly
as its ``find`` calls did.
"""

from __future__ import annotations

from repro.egraph.compile_pattern import (
    BINDW,
    CHECKW,
    LEAF,
    SCAN,
    SCANW,
    CompiledPattern,
    compile_pattern,
)
from repro.egraph.egraph import EGraph
from repro.egraph.ematch import DEFAULT_MATCH_CAP, DEFAULT_MATCH_WORK
from repro.lang.ops import WILD
from repro.lang.term import Term


class CompiledMatcher:
    """Runs one compiled program over a (possibly dirty) e-graph.

    Mirrors the :class:`RecursiveMatcher` contract: a shared work budget
    across calls, a per-compound binding cap, and class ids
    canonicalized through the union-find at every read so matching
    mid-iteration (between rule applications, before the batched
    rebuild) sees the same view the recursive matcher did.
    """

    __slots__ = ("_compiled", "_find", "_parent", "_classes", "_cap",
                 "_regs", "work")

    def __init__(self, compiled: CompiledPattern, egraph, cap: int,
                 work: int):
        self._compiled = compiled
        self._find = egraph._uf.find
        # Raw union-find parent array: lets the scan loops resolve
        # already-compressed ids with one list index instead of a
        # function call, falling back to find() on uncompressed paths.
        self._parent = egraph._uf._parent
        self._classes = egraph._classes
        self._cap = cap
        # Every instruction writes its registers before reading them,
        # so one register file serves all matches of this matcher.
        self._regs = [0] * compiled.n_regs
        self.work = work

    @property
    def exhausted(self) -> bool:
        """True once the e-node-visit work budget is spent."""
        return self.work <= 0

    def match_slots(self, class_id: int) -> list[tuple]:
        """All bindings against ``class_id``, as slot tuples.

        Tuple ``i`` holds the class bound to ``slot_names[i]``.
        """
        if self.work <= 0:
            return []
        parent = self._parent
        root = parent[class_id]
        if root != parent[root]:
            root = self._find(class_id)
        regs = self._regs
        regs[0] = root
        program = self._compiled.program
        return self._run(program, 0, len(program), [()], regs)

    def match_class(self, class_id: int) -> list[dict]:
        """All bindings of the pattern against ``class_id``."""
        names = self._compiled.slot_names
        return [dict(zip(names, s)) for s in self.match_slots(class_id)]

    def _run(self, program: tuple, pc: int, end: int,
             states: list, regs: list) -> list:
        find = self._find
        parent = self._parent
        classes = self._classes
        cap = self._cap
        while pc < end and states:
            if self.work <= 0:
                return []
            instr = program[pc]
            code = instr[0]
            if code == SCANW:
                _, reg, op, payload, n_args, actions, all_new = instr
                nodes = classes[find(regs[reg])].nodes
                out: list = []
                append = out.append
                work = self.work
                # ``states`` is constant for the whole scan; the
                # single-state case (every top-level scan, and most
                # nested ones) skips the per-node inner loop entirely.
                single = states[0] if len(states) == 1 else None
                for node in nodes:
                    if work <= 0:
                        break
                    work -= 1
                    if node[0] != op or node[1] != payload:
                        continue
                    children = node[2]
                    if len(children) != n_args:
                        continue
                    if work <= 0:
                        # The recursive matcher's per-child entry check:
                        # an exhausted budget yields no bindings for
                        # this node, and the next node stops the scan.
                        break
                    if n_args == 2:
                        c0, c1 = children
                        r0 = parent[c0]
                        if r0 != parent[r0]:
                            r0 = find(c0)
                        r1 = parent[c1]
                        if r1 != parent[r1]:
                            r1 = find(c1)
                        cids = (r0, r1)
                    else:
                        cids = tuple(map(find, children))
                    if all_new:
                        if single is not None:
                            append(single + cids)
                        else:
                            out.extend([s + cids for s in states])
                    else:
                        for s in states:
                            new = s
                            ok = True
                            for (is_new, slot), cid in zip(actions, cids):
                                if is_new:
                                    new = new + (cid,)
                                elif find(new[slot]) != cid:
                                    ok = False
                                    break
                            if ok:
                                append(new)
                    if len(out) >= cap:
                        del out[cap:]
                        break
                self.work = work
                states = out
                pc += 1
            elif code == BINDW:
                cid = find(regs[instr[1]])
                states = [s + (cid,) for s in states]
                pc += 1
            elif code == CHECKW:
                _, reg, slot = instr
                cid = find(regs[reg])
                states = [s for s in states if find(s[slot]) == cid]
                pc += 1
            elif code == SCAN:
                _, reg, op, payload, n_args, base, body_len = instr
                body_end = pc + 1 + body_len
                nodes = classes[find(regs[reg])].nodes
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
                    regs[base:base + n_args] = children
                    sub = self._run(program, pc + 1, body_end, states, regs)
                    if sub:
                        out.extend(sub)
                        if len(out) >= cap:
                            del out[cap:]
                            break
                states = out
                pc = body_end
            else:  # LEAF
                _, reg, target = instr
                nodes = classes[find(regs[reg])].nodes
                work = self.work
                found = False
                for node in nodes:
                    if work <= 0:
                        break
                    work -= 1
                    if node == target:
                        found = True
                        break
                self.work = work
                if not found:
                    states = []
                pc += 1
        return states


def oracle_ematch_slots(
    egraph: EGraph,
    pattern: Term,
    op_index: dict[str, list[int]] | None = None,
    limit: int | None = None,
    work_budget: int = DEFAULT_MATCH_WORK,
    roots: set[int] | None = None,
) -> tuple[list[tuple[int, list[tuple]]], int]:
    """``(groups, remaining work)`` of ``ematch_slots`` run on the VM."""
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
        return groups, work_budget

    matcher = CompiledMatcher(compile_pattern(pattern), egraph, cap,
                              work_budget)
    match_root = matcher.match_slots
    n_matches = 0
    if op_index is not None:
        candidates = op_index.get(pattern.op, ())
        uf = egraph._uf
        find = uf.find
        parent = uf._parent
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
            bindings = match_root(root)
            if bindings:
                groups.append((root, bindings))
                n_matches += len(bindings)
                if limit is not None and n_matches >= limit:
                    break
            if matcher.work <= 0:
                break
    else:
        for eclass in egraph.classes():
            if roots is not None and eclass.id not in roots:
                continue
            bindings = match_root(eclass.id)
            if bindings:
                groups.append((eclass.id, bindings))
                n_matches += len(bindings)
                if limit is not None and n_matches >= limit:
                    break
            if matcher.work <= 0:
                break
    return groups, matcher.work


class RecursiveMatcher:
    """One pattern-matching context over an e-graph (recursive walk).

    Holds direct references to the union-find and class table — the
    matcher was the saturation hot path, and attribute/method lookups
    per node measurably dominated otherwise.
    """

    __slots__ = ("_find", "_classes", "_cap", "work")

    def __init__(self, egraph: EGraph, cap: int, work: int = DEFAULT_MATCH_WORK):
        self._find = egraph._uf.find
        self._classes = egraph._classes
        self._cap = cap
        self.work = work

    @property
    def exhausted(self) -> bool:
        """True once the e-node-visit work budget is spent."""
        return self.work <= 0

    def match(
        self, pattern: Term, class_id: int, bindings: list[dict]
    ) -> list[dict]:
        """``bindings`` extended by every match of ``pattern`` at
        ``class_id``."""
        if self.work <= 0:
            return []
        find = self._find
        class_id = find(class_id)

        if pattern.op == WILD:
            name = pattern.payload
            out: list[dict] = []
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


def _recursive_groups(
    egraph: EGraph,
    pattern: Term,
    candidates,
    roots: set[int] | None,
    limit: int | None,
    work: int,
    cap: int,
) -> tuple[list[tuple[int, list[tuple]]], int]:
    """The generated matchers' candidate loop around the recursive walk.

    Returns ``(groups, remaining work)``; the walk's ``dict`` bindings
    become slot tuples here, as they did in the product.
    """
    matcher = RecursiveMatcher(egraph, cap, work)
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


def recursive_match_in_class(
    egraph: EGraph,
    pattern: Term,
    class_id: int,
    cap: int = DEFAULT_MATCH_CAP,
) -> list[dict]:
    """``match_in_class`` on the recursive walk."""
    groups, _work = _recursive_groups(egraph, pattern, (class_id,), None,
                                      None, DEFAULT_MATCH_WORK, cap)
    names = compile_pattern(pattern).slot_names
    return [dict(zip(names, s)) for _root, bindings in groups
            for s in bindings]


def recursive_ematch(
    egraph: EGraph,
    pattern: Term,
    op_index: dict[str, list[int]] | None = None,
    limit: int | None = None,
    work_budget: int = DEFAULT_MATCH_WORK,
    roots: set[int] | None = None,
    counters: dict | None = None,
) -> list[tuple[int, dict]]:
    """``ematch`` on the recursive walk: ``(root, binding dict)`` pairs."""
    names = compile_pattern(pattern).slot_names
    cap = min(limit, DEFAULT_MATCH_CAP) if limit else DEFAULT_MATCH_CAP
    if pattern.op == WILD:
        # A bare-wildcard LHS matches every class once.
        groups = []
        for eclass in egraph.classes():
            if roots is not None and eclass.id not in roots:
                continue
            groups.append((eclass.id, [(eclass.id,)]))
            if limit is not None and len(groups) >= limit:
                break
    else:
        if op_index is not None:
            candidates = op_index.get(pattern.op, ())
        else:
            candidates = egraph._classes
        groups, work = _recursive_groups(egraph, pattern, candidates, roots,
                                         limit, work_budget, cap)
        if counters is not None:
            counters["node_visits"] = (
                counters.get("node_visits", 0) + (work_budget - work)
            )
    return [(root, dict(zip(names, s))) for root, bindings in groups
            for s in bindings]
