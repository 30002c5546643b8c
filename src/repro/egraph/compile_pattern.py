"""Compiled rewrites: both sides of a rule as flat programs.

A recursive matcher (``RecursiveMatcher``, now kept as an oracle in
``tests/match_oracle.py``) re-interprets the pattern *term* on every
candidate node: each call re-reads ``.op`` / ``.args``, re-zips
children, and copies a ``dict`` per wildcard binding.  That
interpretation overhead is pure waste — the pattern is
fixed for the lifetime of a rule — so, in the spirit of egg's
e-matching virtual machine, we compile each pattern **once** into a
small program of register-style instructions.  The program is the IR:
each program *shape* is then translated once into a Python function
that runs a whole rule application's match (see "Generated
matchers" below).  The right-hand side compiles once too
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
    concatenating the results across hits.  This mirrors the recursive
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
one unit of the shared budget, in both the generated matchers and the
recursive matcher kept in ``tests/match_oracle.py``, so budgets mean
the same thing on every path and the two implementations produce
identical match lists (see the differential fuzz test).

Generated matchers
------------------

A program's *shape* is the program with every op, payload and leaf
target replaced by its position in a ``constants`` tuple
(``CompiledPattern.shape`` / ``.constants``).  Rules differ mostly in
their constants, so few shapes cover many patterns: the 511 LHS
patterns the masked-w8 bootstrap matches share 191 shapes.
:func:`shape_matcher` writes each shape's Python source once, compiles
it, and caches the function by shape; :meth:`CompiledPattern.matcher`
fetches it on first use, so the one-time cost (about 2 ms a shape
on a 2-vCPU x86 host) lands in the first match that needs it.  Two threads may generate
one shape at once; ``dict.setdefault`` keeps one of the two
equivalent functions.

The function ``match(K, candidates, roots, limit, work, cap, find,
parent, classes)`` runs one rule application: it canonicalizes each
candidate class id, skips repeats and classes outside ``roots``,
matches the rest in order, stops once ``limit`` matches are in or the
work is spent, and returns ``(groups, remaining work)``.  Each
instruction becomes inline code: scans are nested ``for`` loops over
``classes[id].nodes``, registers and slots are locals, and binding
lists are built as the VM built them.  There is no instruction
dispatch, no call per nested scan and no call per root.  The code
repeats the VM's every work test, charge, cap and binding order, so
match lists, node visits and the union-find state after matching are
the VM's; it reads ids through ``parent`` and calls ``find`` only on
paths ``find`` would compress.  CPython allows 20 nested loops in one
function, so a scan nested deeper than ``_MAX_INLINE_LOOPS`` becomes a
helper function of its own.

Rule data never reaches the source text.  Op names, payloads and
targets come from rule files and artifacts; the text is built only
from fixed names and from integers the pattern compiler produced
(registers, arities, slots), and the constants arrive as ``K``.  The
VM interpreter these functions replaced is kept as the oracle of
``tests/test_ematch_compiled.py`` in ``tests/match_oracle.py``.

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
    to hold.  ``shape`` and ``constants`` split the program into its
    structure and its rule data; :meth:`matcher` is the shape's
    generated match function (see the module docstring).
    """

    __slots__ = ("pattern", "program", "slot_names", "n_regs", "needs",
                 "shape", "constants", "_matcher")

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
        self.shape, self.constants = _split(program)
        self._matcher = None

    def matcher(self):
        """The generated match function for this program's shape.

        Generated (or fetched from the shape cache) on first use, so
        the one-time cost lands in the first match that needs it.
        """
        fn = self._matcher
        if fn is None:
            fn = self._matcher = shape_matcher(self.shape)
        return fn

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


# -- generated matchers ------------------------------------------------


def _split(program: tuple) -> tuple[tuple, tuple]:
    """``(shape, constants)`` of ``program``.

    The shape keeps each instruction's opcode, registers, arity, slots
    and body length.  Its ops, payloads and leaf targets move, in
    program order, into ``constants``.
    """
    shape = []
    constants: list = []
    for instr in program:
        code = instr[0]
        if code == SCAN:
            _, reg, op, payload, n_args, base, body_len = instr
            constants += (op, payload)
            shape.append((SCAN, reg, n_args, base, body_len))
        elif code == SCANW:
            _, reg, op, payload, n_args, actions, _all_new = instr
            constants += (op, payload)
            shape.append((SCANW, reg, n_args, actions))
        elif code == LEAF:
            _, reg, target = instr
            constants.append(target)
            shape.append((LEAF, reg))
        else:
            shape.append(instr)
    return tuple(shape), tuple(constants)


# CPython refuses more than 20 statically nested blocks in a function.
# A SCAN that would open a loop deeper than this moves into a helper
# function of its own; the deepest inline loop (a SCANW's per-binding
# loop inside the deepest inline SCAN) then sits at this depth plus two.
_MAX_INLINE_LOOPS = 12

_MATCH_ARGS = "K, candidates, roots, limit, work, cap, find, parent, classes"
_HELPER_ARGS = "S, cls, work, cap, find, parent, classes, K"


class _Codegen:
    """Writes the Python source of one shape's match function.

    Every name in the text is fixed or built from an integer in the
    shape; constant ``i`` is read as local ``k<i>`` from the tuple
    ``K``.  Each instruction's code follows the VM's and charges the
    same work.  It reads ids through ``parent``, calling ``find`` only
    when the path is longer than one step, which is when ``find``
    would compress it.
    """

    def __init__(self, shape: tuple):
        self.shape = shape
        # Per instruction: position of its first constant, and the
        # number of slots bound before it (binding tuples grow in
        # program order, so every tuple reaching it has that length).
        self.const: list[int] = []
        self.bound: list[int] = []
        n_const = n_bound = 0
        for instr in shape:
            self.const.append(n_const)
            self.bound.append(n_bound)
            code = instr[0]
            if code in (SCAN, SCANW):
                n_const += 2
            elif code == LEAF:
                n_const += 1
            if code == BINDW:
                n_bound += 1
            elif code == SCANW:
                n_bound += sum(is_new for is_new, _ in instr[3])
        self.unpack = (
            f"{', '.join(f'k{i}' for i in range(n_const))}, = K"
            if n_const else ""
        )
        self.helpers: list[str] = []

    def source(self) -> str:
        body = ["    groups = []", "    n_matches = 0", "    seen = set()",
                "    for cid in candidates:",
                "        r0 = parent[cid]",
                "        if r0 != parent[r0]:",
                "            r0 = find(cid)",
                "        if r0 in seen:",
                "            continue",
                "        seen.add(r0)",
                "        if roots is not None and r0 not in roots:",
                "            continue"]
        ind = " " * 8
        result = self._seq(body, ind, 0, len(self.shape), "[()]", 1)
        body += [f"{ind}if {result}:",
                 f"{ind}    groups.append((r0, {result}))",
                 f"{ind}    n_matches += len({result})",
                 f"{ind}    if limit is not None and n_matches >= limit:",
                 f"{ind}        break",
                 f"{ind}if work <= 0:",
                 f"{ind}    break",
                 "    return groups, work"]
        head = [f"def match({_MATCH_ARGS}):"]
        if self.unpack:
            head.append(f"    {self.unpack}")
        return "\n\n".join(self.helpers + ["\n".join(head + body)]) + "\n"

    def _seq(self, out: list, ind: str, pc: int, end: int, states: str,
             depth: int) -> str:
        """Emit instructions ``pc..end`` over the binding list ``states``.

        Returns the name holding the result.  The code sits directly in
        a loop (candidates or a SCAN's nodes) whose ``continue`` means
        "no bindings from here"; ``break`` means the same once work is
        spent, since the loop's next step would stop anyway.  The list
        ``"[()]"`` is the root's single empty binding.
        """
        # The VM tests work and bindings before every instruction.  A
        # test is left out where its outcome is known: the sequence is
        # entered with bindings, BINDW keeps them and spends no work,
        # and CHECKW spends no work.
        work_left = False
        nonempty = True
        while pc < end:
            if not work_left:
                out += [f"{ind}if work <= 0:", f"{ind}    break"]
            if not nonempty:
                out += [f"{ind}if not {states}:", f"{ind}    continue"]
            code = self.shape[pc][0]
            work_left = code in (BINDW, CHECKW)
            nonempty = code == BINDW
            if code == SCAN:
                states = self._scan(out, ind, pc, states, depth)
                pc += 1 + self.shape[pc][4]
                continue
            if code == SCANW:
                states = self._scanw(out, ind, pc, states)
            elif code == BINDW:
                cls = self._canon(out, ind, pc, self.shape[pc][1])
                new = (f"[({cls},)]" if states == "[()]"
                       else f"[t + ({cls},) for t in {states}]")
                out.append(f"{ind}s{pc} = {new}")
                states = f"s{pc}"
            elif code == CHECKW:
                _, reg, slot = self.shape[pc]
                cls = self._canon(out, ind, pc, reg)
                out.append(f"{ind}s{pc} = [t for t in {states} "
                           f"if t[{slot}] == {cls}]")
                states = f"s{pc}"
            else:  # LEAF
                cls = self._canon(out, ind, pc, self.shape[pc][1])
                k = self.const[pc]
                out += [f"{ind}hit = False",
                        f"{ind}for nd in classes[{cls}].nodes:",
                        f"{ind}    if work <= 0:",
                        f"{ind}        break",
                        f"{ind}    work -= 1",
                        f"{ind}    if nd == k{k}:",
                        f"{ind}        hit = True",
                        f"{ind}        break",
                        f"{ind}s{pc} = {states} if hit else []"]
                states = f"s{pc}"
            pc += 1
        return states

    def _canon(self, out: list, ind: str, pc: int, reg: int) -> str:
        """Name holding the canonical id of register ``reg``."""
        if reg == 0:
            return "r0"  # the root, canonical already
        out += [f"{ind}x{pc} = parent[r{reg}]",
                f"{ind}if x{pc} != parent[x{pc}]:",
                f"{ind}    x{pc} = find(r{reg})"]
        return f"x{pc}"

    def _scan_head(self, out: list, ind: str, pc: int, cls: str) -> str:
        """The node loop shared by SCAN and SCANW, up to the arity test."""
        k = self.const[pc]
        n_args = self.shape[pc][2]
        out += [f"{ind}s{pc} = []",
                f"{ind}for nd in classes[{cls}].nodes:",
                f"{ind}    if work <= 0:",
                f"{ind}        break",
                f"{ind}    work -= 1",
                f"{ind}    if nd[0] != k{k} or nd[1] != k{k + 1}:",
                f"{ind}        continue",
                f"{ind}    ch = nd[2]",
                f"{ind}    if len(ch) != {n_args}:",
                f"{ind}        continue"]
        return ind + "    "

    def _cap(self, out: list, ind: str, pc: int) -> None:
        out += [f"{ind}if len(s{pc}) >= cap:",
                f"{ind}    del s{pc}[cap:]",
                f"{ind}    break"]

    def _scan(self, out: list, ind: str, pc: int, states: str,
              depth: int) -> str:
        _, reg, n_args, base, body_len = self.shape[pc]
        cls = self._canon(out, ind, pc, reg)
        if depth >= _MAX_INLINE_LOOPS:
            self._helper(pc)
            out.append(f"{ind}s{pc}, work = scan{pc}({states}, {cls}, "
                       "work, cap, find, parent, classes, K)")
            return f"s{pc}"
        inner = self._scan_head(out, ind, pc, cls)
        if n_args:
            regs = ", ".join(f"r{base + i}" for i in range(n_args))
            out.append(f"{inner}{regs}, = ch")
        # The body runs over the whole incoming list for every hit.
        sub = self._seq(out, inner, pc + 1, pc + 1 + body_len, states,
                        depth + 1)
        out += [f"{inner}if {sub}:", f"{inner}    s{pc}.extend({sub})"]
        self._cap(out, inner + "    ", pc)
        return f"s{pc}"

    def _helper(self, pc: int) -> None:
        """Emit ``scan<pc>``, a SCAN as a function of its own."""
        lines = [f"def scan{pc}({_HELPER_ARGS}):"]
        if self.unpack:
            lines.append(f"    {self.unpack}")
        body: list[str] = []
        inner = self._scan_head(body, "    ", pc, "cls")
        _, _, n_args, base, body_len = self.shape[pc]
        if n_args:
            regs = ", ".join(f"r{base + i}" for i in range(n_args))
            body.append(f"{inner}{regs}, = ch")
        sub = self._seq(body, inner, pc + 1, pc + 1 + body_len, "S", 2)
        body += [f"{inner}if {sub}:", f"{inner}    s{pc}.extend({sub})"]
        self._cap(body, inner + "    ", pc)
        body.append(f"    return s{pc}, work")
        self.helpers.append("\n".join(lines + body))

    def _scanw(self, out: list, ind: str, pc: int, states: str) -> str:
        _, reg, n_args, actions = self.shape[pc]
        cls = self._canon(out, ind, pc, reg)
        inner = self._scan_head(out, ind, pc, cls)
        # The VM's second work test, after the arity test.
        out += [f"{inner}if work <= 0:", f"{inner}    break",
                f"{inner}{', '.join(f'a{i}' for i in range(n_args))}, = ch"]
        for i in range(n_args):
            out += [f"{inner}c{i} = parent[a{i}]",
                    f"{inner}if c{i} != parent[c{i}]:",
                    f"{inner}    c{i} = find(a{i})"]
        # Each action binds child i to the next slot or checks it
        # against an earlier slot: one of the incoming tuple's, or one
        # bound by an earlier child of this node.
        n_bound = self.bound[pc]
        slot_of: dict[int, str] = {}
        new: list[str] = []
        node_checks: list[str] = []
        tuple_checks: list[str] = []
        for i, (is_new, slot) in enumerate(actions):
            if is_new:
                slot_of[n_bound + len(new)] = f"c{i}"
                new.append(f"c{i}")
            elif slot < n_bound:
                tuple_checks.append(f"t[{slot}] == c{i}")
            else:
                node_checks.append(f"{slot_of[slot]} == c{i}")
        body = inner
        if node_checks:
            out.append(f"{body}if {' and '.join(node_checks)}:")
            body += "    "
        grown = f"({', '.join(new)},)" if new else "()"
        if states == "[()]":
            out.append(f"{body}s{pc}.append({grown})")
        else:
            out.append(f"{body}for t in {states}:")
            body += "    "
            if tuple_checks:
                out.append(f"{body}if {' and '.join(tuple_checks)}:")
                body += "    "
            out.append(f"{body}s{pc}.append(t + {grown})")
        self._cap(out, inner, pc)
        return f"s{pc}"


def _generate(shape: tuple):
    """Compile ``shape``'s source and return its ``match`` function."""
    namespace: dict = {}
    source = _Codegen(shape).source()
    exec(compile(source, "<generated matcher>", "exec"), namespace)
    return namespace["match"]


# Shape -> generated function, shared by every pattern of that shape.
_MATCHERS: dict[tuple, object] = {}


def shape_matcher(shape: tuple):
    """The generated match function for ``shape``.

    ``match(K, candidates, roots, limit, work, cap, find, parent,
    classes)`` returns ``(groups, remaining work)``; see the module
    docstring.
    """
    fn = _MATCHERS.get(shape)
    if fn is None:
        # Compiles run on worker threads, so two may generate one shape
        # at once.  Their functions are equivalent; setdefault keeps one.
        fn = _MATCHERS.setdefault(shape, _generate(shape))
    return fn
