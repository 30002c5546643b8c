"""Compiled rewrites: both sides of a rule as flat programs.

The recursive matcher in :mod:`repro.egraph.ematch` re-interprets the
pattern *term* on every candidate node: each call re-reads ``.op`` /
``.args``, re-zips children, and copies a ``dict`` per wildcard
binding.  That interpretation overhead is pure waste — the pattern is
fixed for the lifetime of a rule — so, in the spirit of egg's
e-matching virtual machine, we compile each pattern **once** into a
small program of register-style instructions and run that program
against e-classes instead.  The right-hand side compiles once too
(:func:`compile_rhs`), into a postorder program that reads the
left-hand side's binding slots, so a match travels from the matcher
to :meth:`EGraph.instantiate <repro.egraph.egraph.EGraph.instantiate>`
as a plain slot tuple and never becomes a ``dict``.

Compilation model
-----------------

*Registers* hold e-class ids.  Register 0 is the match root; each
compound sub-pattern is assigned a contiguous block of registers for
its children, filled in by its scan instruction.  *Binding slots* hold
the e-class ids bound to wildcards, assigned in first-occurrence order
along the (left-to-right, depth-first) pipeline — a property that lets
partial bindings be plain tuples grown by appending, instead of dict
copies.

Instructions (tuples, opcode first):

``SCAN reg op payload n base len``
    Scan the e-nodes of the class in ``reg`` for ``(op, payload)``
    nodes of arity ``n``; for each hit, load the children into
    registers ``base..base+n`` and run the next ``len`` instructions
    (the compiled children) over the *entire* current binding list,
    concatenating the results across hits.  This mirrors the legacy
    matcher's binding-list pipeline exactly, including the order in
    which bindings are produced — which matters because caps keep the
    *earliest* bindings.

``SCANW reg op payload n actions all_new``
    Fused fast path for the overwhelmingly common case of a compound
    whose children are all wildcards (``(VecAdd ?a ?b)``, the lift
    rules' lane patterns).  Each hit extends every binding tuple in
    one go, skipping per-child instruction dispatch; ``all_new``
    (precomputed: no repeated wildcards among the children) selects a
    check-free inner loop, and child ids resolve through the raw
    union-find parent array with a single-index fast path.

``BINDW reg`` / ``CHECKW reg slot``
    First / repeated occurrence of a wildcard: append the canonical
    class id to every binding, or filter bindings whose ``slot``
    disagrees with the class in ``reg``.

``LEAF reg node``
    Require the exact leaf e-node to be present in the class.

Work accounting is *uniform*: every e-node visited by any scan costs
one unit of the shared budget, in both this VM and the legacy matcher,
so budgets mean the same thing on every path and the two
implementations produce identical match lists (see the differential
fuzz test).

Requirements
------------

``CompiledPattern.needs`` is ``(ops, leaves)``: the ops of the
program's SCAN/SCANW instructions and the targets of its LEAF
instructions, each listed once.  A match must visit a node of every
such op and find every such leaf, so on an e-graph missing any of them
the program matches nothing.  The saturation runner checks them with
:meth:`EGraph.holds <repro.egraph.egraph.EGraph.holds>` and skips the
application without scanning; a bare-wildcard pattern needs nothing.

Right-hand sides
----------------

A :class:`CompiledRhs` has two parts.  ``reads`` lists the LHS slots
the RHS uses, one register each, in first-occurrence order.
``nodes`` lists e-node templates ``(op, payload, child registers,
children)`` in postorder, where ``children(regs)`` builds the child-id
tuple (an ``itemgetter`` from two children up).  Each instantiated
template's class id lands in the next register, so the last register
is the RHS root.  A repeated subterm compiles once and its register
is reused: the second occurrence would only hit the hashcons entry
the first one made.  A bare-wildcard RHS has no templates and
answers its one read.
"""

from __future__ import annotations

from operator import itemgetter

from repro.lang.ops import WILD
from repro.lang.term import Term

# Opcodes.
SCAN = 0
SCANW = 1
BINDW = 2
CHECKW = 3
LEAF = 4

_OPNAMES = {SCAN: "scan", SCANW: "scanw", BINDW: "bindw",
            CHECKW: "checkw", LEAF: "leaf"}


class CompiledPattern:
    """One pattern compiled to a flat instruction program.

    ``needs`` is ``(ops, leaves)``, what any match requires the e-graph
    to hold (see the module docstring).
    """

    __slots__ = ("pattern", "program", "slot_names", "n_regs", "needs")

    def __init__(self, pattern: Term, program: tuple,
                 slot_names: tuple, n_regs: int):
        self.pattern = pattern
        self.program = program
        self.slot_names = slot_names
        self.n_regs = n_regs
        self.needs = (
            tuple(dict.fromkeys(
                instr[2] for instr in program if instr[0] in (SCAN, SCANW)
            )),
            tuple(dict.fromkeys(
                instr[2] for instr in program if instr[0] == LEAF
            )),
        )

    def disassemble(self) -> str:
        """Human-readable listing (debugging / tests)."""
        lines = []
        for pc, instr in enumerate(self.program):
            lines.append(f"{pc:3d}  {_OPNAMES[instr[0]]} "
                         + " ".join(repr(x) for x in instr[1:]))
        return "\n".join(lines)


def _compile(pattern: Term) -> CompiledPattern:
    slots: dict[str, int] = {}
    n_regs = [1]

    def emit(pat: Term, reg: int) -> list[tuple]:
        if pat.op == WILD:
            slot = slots.get(pat.payload)
            if slot is None:
                slots[pat.payload] = len(slots)
                return [(BINDW, reg)]
            return [(CHECKW, reg, slot)]
        args = pat.args
        if not args and pat.is_leaf:
            return [(LEAF, reg, (pat.op, pat.payload, ()))]
        n = len(args)
        if n and all(a.op == WILD for a in args):
            actions = []
            for a in args:
                slot = slots.get(a.payload)
                if slot is None:
                    slots[a.payload] = len(slots)
                    actions.append((True, 0))
                else:
                    actions.append((False, slot))
            all_new = all(is_new for is_new, _ in actions)
            return [(SCANW, reg, pat.op, pat.payload, n,
                     tuple(actions), all_new)]
        base = n_regs[0]
        n_regs[0] += n
        body: list[tuple] = []
        for i, a in enumerate(args):
            body.extend(emit(a, base + i))
        return [(SCAN, reg, pat.op, pat.payload, n, base, len(body))] + body

    program = tuple(emit(pattern, 0))
    names = tuple(sorted(slots, key=slots.__getitem__))
    return CompiledPattern(pattern, program, names, n_regs[0])


# Terms are interned and immutable, so the cache is keyed by the
# pattern itself; each rule LHS/RHS compiles exactly once per process.
_CACHE: dict[Term, CompiledPattern] = {}


def compile_pattern(pattern: Term) -> CompiledPattern:
    """Compile (or fetch the cached program for) ``pattern``."""
    compiled = _CACHE.get(pattern)
    if compiled is None:
        compiled = _CACHE[pattern] = _compile(pattern)
    return compiled


def compiled_cache_size() -> int:
    """Number of compiled patterns held (diagnostics)."""
    return len(_CACHE)


class CompiledRhs:
    """One rewrite right-hand side compiled to a postorder program.

    ``reads`` holds LHS binding-slot indices and ``nodes`` holds
    ``(op, payload, child registers, children)`` templates; see the
    module docstring for the register layout.
    """

    __slots__ = ("reads", "nodes")

    def __init__(self, reads: tuple, nodes: tuple):
        self.reads = reads
        self.nodes = nodes


def _compile_rhs(slot_names: tuple, rhs: Term) -> CompiledRhs:
    slot_of = {name: i for i, name in enumerate(slot_names)}
    reads: list[int] = []
    register: dict[Term, int] = {}

    def collect(pat: Term) -> None:
        if pat.op == WILD:
            if pat not in register:
                register[pat] = len(reads)
                reads.append(slot_of[pat.payload])
            return
        for a in pat.args:
            collect(a)

    nodes: list[tuple] = []

    def emit(pat: Term) -> int:
        reg = register.get(pat)
        if reg is None:
            children = tuple(emit(a) for a in pat.args)
            reg = register[pat] = len(reads) + len(nodes)
            nodes.append((pat.op, pat.payload, children,
                          _child_getter(children)))
        return reg

    collect(rhs)
    emit(rhs)
    return CompiledRhs(tuple(reads), tuple(nodes))


def _child_getter(registers: tuple):
    """``regs -> tuple of regs[r] for r in registers``."""
    if len(registers) >= 2:
        return itemgetter(*registers)
    if registers:
        (reg,) = registers
        return lambda regs: (regs[reg],)
    return lambda regs: ()


# Keyed by the rule's two (interned) sides: the LHS fixes the slot
# numbering the RHS program reads.
_RHS_CACHE: dict[tuple[Term, Term], CompiledRhs] = {}


def compile_rhs(lhs: Term, rhs: Term) -> CompiledRhs:
    """Compile (or fetch) ``rhs`` as read from ``lhs``'s binding slots.

    Slots are numbered as in ``compile_pattern(lhs).slot_names``, so
    the program consumes the matcher's binding tuples directly.  Every
    RHS wildcard must occur in ``lhs`` (``KeyError`` otherwise).
    """
    key = (lhs, rhs)
    compiled = _RHS_CACHE.get(key)
    if compiled is None:
        compiled = _RHS_CACHE[key] = _compile_rhs(
            compile_pattern(lhs).slot_names, rhs
        )
    return compiled


class CompiledMatcher:
    """Runs one compiled program over a (possibly dirty) e-graph.

    Mirrors the legacy ``_Matcher`` contract: a shared work budget
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
                        # The legacy matcher's per-child entry check:
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
