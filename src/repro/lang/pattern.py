"""Wildcard patterns over DSL terms.

A pattern is just a :class:`~repro.lang.term.Term` that may contain
``Wild`` leaves.  This module provides syntactic matching against ground
terms, substitution/instantiation, and wildcard renaming (used by the
lane generalization pass to mint fresh wildcards per lane).

E-graph matching — the workhorse of equality saturation — lives in
:mod:`repro.egraph.ematch`; the syntactic matcher here is used by rule
analyses, tests, and the SLP baseline.
"""

from __future__ import annotations

from repro.lang import term as T
from repro.lang.term import Term


# Terms are interned and immutable, so a pattern's wildcard names
# are collected once per process.
_WILDCARDS: dict[Term, tuple[str, ...]] = {}


def wildcards_of(pattern: Term) -> tuple[str, ...]:
    """Wildcard names in ``pattern``, in first-occurrence order
    (memoized per term)."""
    names = _WILDCARDS.get(pattern)
    if names is None:
        seen: dict[str, None] = {}
        for sub in T.subterms(pattern):
            if T.is_wildcard(sub):
                seen.setdefault(sub.payload, None)
        names = _WILDCARDS[pattern] = tuple(seen)
    return names


def is_ground(pattern: Term) -> bool:
    """True if ``pattern`` contains no wildcards."""
    return all(not T.is_wildcard(sub) for sub in T.subterms(pattern))


def contains_op(pattern: Term, op: str) -> bool:
    """True if any subterm of ``pattern`` has operator ``op``."""
    return any(sub.op == op for sub in T.subterms(pattern))


def instantiate(pattern: Term, binding: dict[str, Term]) -> Term:
    """Replace every wildcard with its binding.

    Raises ``KeyError`` if a wildcard is unbound, so partially applied
    rules fail loudly.
    """
    if T.is_wildcard(pattern):
        return binding[pattern.payload]
    if not pattern.args:
        return pattern
    args = tuple(instantiate(arg, binding) for arg in pattern.args)
    if args == pattern.args:
        return pattern
    return T.make(pattern.op, *args, payload=pattern.payload)


def match(
    pattern: Term, target: Term, binding: dict[str, Term] | None = None
) -> dict[str, Term] | None:
    """Syntactic match of ``pattern`` against a ground ``target``.

    Returns the (possibly extended) binding on success, ``None`` on
    failure.  Non-linear patterns (repeated wildcards) require equal
    subterms.
    """
    binding = dict(binding) if binding else {}
    stack = [(pattern, target)]
    while stack:
        pat, tgt = stack.pop()
        if T.is_wildcard(pat):
            bound = binding.get(pat.payload)
            if bound is None:
                binding[pat.payload] = tgt
            elif bound != tgt:
                return None
            continue
        if pat.op != tgt.op or pat.payload != tgt.payload:
            return None
        if len(pat.args) != len(tgt.args):
            return None
        stack.extend(zip(pat.args, tgt.args))
    return binding


def rename_wildcards(pattern: Term, mapping: dict[str, str]) -> Term:
    """Rename wildcards according to ``mapping`` (missing names kept)."""
    return instantiate(
        pattern,
        {
            name: T.wildcard(mapping.get(name, name))
            for name in wildcards_of(pattern)
        },
    )


def suffix_wildcards(pattern: Term, suffix: str) -> Term:
    """Append ``suffix`` to every wildcard name (fresh lane copies)."""
    return rename_wildcards(
        pattern, {name: f"{name}{suffix}" for name in wildcards_of(pattern)}
    )
