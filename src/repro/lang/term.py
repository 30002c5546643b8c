"""Immutable, interned terms of the Isaria DSL.

A :class:`Term` is either

- an interior node ``Term(op, args)`` where ``args`` is a tuple of
  terms, or
- a leaf carrying a payload:  ``Const`` (a number), ``Symbol`` (a
  variable name), ``Get`` (an ``(array, index)`` pair), or ``Wild`` (a
  wildcard name, only in patterns).

Terms are *interned*: constructing the same term twice returns the same
object, so equality is identity and hashing is O(1).  The e-graph,
extraction, and rule minimization all lean on this.
"""

from __future__ import annotations

from typing import Iterator

from repro.lang.ops import CONST, GET, LEAF_OPS, SYMBOL, WILD

_INTERN: dict[tuple, "Term"] = {}


class Term:
    """One DSL term.  Use :func:`make` / the leaf constructors, not
    ``Term(...)`` directly, to get interning."""

    __slots__ = ("op", "args", "payload", "_hash")

    def __init__(self, op: str, args: tuple["Term", ...], payload=None):
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "args", args)
        object.__setattr__(self, "payload", payload)
        object.__setattr__(self, "_hash", hash((op, args, payload)))

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("Term is immutable")

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        # Interning makes identity equality sufficient, but support
        # structural equality for robustness (e.g. pickled terms).
        if self is other:
            return True
        if not isinstance(other, Term):
            return NotImplemented
        return (
            self.op == other.op
            and self.payload == other.payload
            and self.args == other.args
        )

    def __repr__(self) -> str:
        from repro.lang.parser import to_sexpr

        return f"Term({to_sexpr(self)})"

    @property
    def is_leaf(self) -> bool:
        """True for const/symbol/get/wildcard terms (no children)."""
        return self.op in LEAF_OPS

    def __reduce__(self):
        # Pickle through the interning constructor so unpickled terms
        # re-enter the intern table (and immutability survives slots).
        return (_reconstruct, (self.op, self.args, self.payload))


def _reconstruct(op: str, args: tuple, payload) -> "Term":
    """Pickle helper: rebuild through :func:`make`."""
    return make(op, *args, payload=payload)


def make(op: str, *args: Term, payload=None) -> Term:
    """Construct (or fetch the interned copy of) a term."""
    key = (op, args, payload)
    term = _INTERN.get(key)
    if term is None:
        for arg in args:
            if not isinstance(arg, Term):
                raise TypeError(f"child of {op} is not a Term: {arg!r}")
        term = Term(op, args, payload)
        _INTERN[key] = term
    return term


def const(value) -> Term:
    """A numeric constant leaf.

    Integral floats are normalized to ``int`` so ``2`` and ``2.0``
    intern to the same leaf.
    """
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"const payload must be a number, got {value!r}")
    return make(CONST, payload=value)


def symbol(name: str) -> Term:
    """A scalar variable leaf."""
    return make(SYMBOL, payload=str(name))


def get(array: str, index: int) -> Term:
    """An array-element leaf ``(Get array index)``.

    Rewrite rules treat array elements as opaque atoms, so ``Get`` is a
    leaf with an ``(array, index)`` payload rather than a binary node.
    An integral float index names the same leaf as its ``int``; a
    non-integral one raises ``ValueError`` instead of naming another
    element.
    """
    if isinstance(index, float) and not index.is_integer():
        raise ValueError(f"Get index must be an integer, got {index!r}")
    return make(GET, payload=(str(array), int(index)))


def wildcard(name: str) -> Term:
    """A pattern wildcard ``?name``."""
    return make(WILD, payload=str(name))


def is_const(term: Term) -> bool:
    """True for numeric constant leaves."""
    return term.op == CONST


def is_symbol(term: Term) -> bool:
    """True for variable leaves."""
    return term.op == SYMBOL


def is_get(term: Term) -> bool:
    """True for array-element leaves."""
    return term.op == GET


def is_wildcard(term: Term) -> bool:
    """True for pattern wildcards."""
    return term.op == WILD


def is_leaf(term: Term) -> bool:
    """True for any leaf (const, symbol, get, wildcard)."""
    return term.op in LEAF_OPS


def subterms(term: Term) -> Iterator[Term]:
    """Distinct subterms of ``term`` (pre-order, each yielded once).

    Terms are interned DAGs: a shared subexpression appears once here
    even if it occurs many times in the tree unfolding.  Kernels like
    QR decomposition share aggressively, so tree-walking them would be
    exponential.
    """
    seen: set[int] = set()
    stack = [term]
    while stack:
        t = stack.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        yield t
        stack.extend(reversed(t.args))


def fold_term(term: Term, fn):
    """Bottom-up fold over the term DAG, iteratively and memoized.

    ``fn(subterm, child_results)`` is called exactly once per distinct
    subterm, children first.  Use this instead of naive recursion: it
    is immune to both exponential tree unfolding of shared nodes and
    Python's recursion limit on deep kernels.
    """
    memo: dict[Term, object] = {}
    stack = [term]
    while stack:
        t = stack[-1]
        if t in memo:
            stack.pop()
            continue
        pending = [arg for arg in t.args if arg not in memo]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        memo[t] = fn(t, tuple(memo[arg] for arg in t.args))
    return memo[term]


# Terms are interned and immutable (and _INTERN keeps them alive), so
# a term's size is computed once per process.
_SIZES: dict[Term, int] = {}


def term_size(term: Term) -> int:
    """Number of nodes in the term *tree* (shared nodes counted per
    occurrence), computed DAG-efficiently and memoized per term."""
    size = _SIZES.get(term)
    if size is None:
        size = _SIZES[term] = fold_term(
            term, lambda t, child_sizes: 1 + sum(child_sizes)
        )
    return size


def term_depth(term: Term) -> int:
    """Height of the term tree (a leaf has depth 1)."""
    return fold_term(
        term,
        lambda t, child_depths: 1 + max(child_depths, default=0),
    )


def intern_table_size() -> int:
    """Number of distinct terms ever constructed (for diagnostics)."""
    return len(_INTERN)
