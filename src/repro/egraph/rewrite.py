"""Rewrite rules over the e-graph.

A :class:`Rewrite` is a directed rule ``lhs ~> rhs`` between patterns.
Applying it unions every match of ``lhs`` with the instantiated ``rhs``
— nothing is destroyed, which is what lets equality saturation explore
all orderings at once (paper §2.1).

Each rule compiles once into its LHS matcher program and a postorder
RHS program over the LHS binding slots
(:mod:`repro.egraph.compile_pattern`).  :func:`apply_rewrite` passes
every match from :func:`~repro.egraph.ematch.ematch_slots` to
:meth:`EGraph.instantiate <repro.egraph.egraph.EGraph.instantiate>`
as a slot tuple, and calls ``union`` only when the instantiated class
differs from the match root's.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.egraph.compile_pattern import compile_rhs
from repro.egraph.egraph import EGraph
from repro.egraph.ematch import DEFAULT_MATCH_WORK, ematch_slots
from repro.lang.parser import parse, to_sexpr
from repro.lang.pattern import wildcards_of
from repro.lang.term import Term


@dataclass(frozen=True)
class Rewrite:
    """A directed rewrite rule between wildcard patterns."""

    name: str
    lhs: Term
    rhs: Term

    def __post_init__(self):
        missing = set(wildcards_of(self.rhs)) - set(wildcards_of(self.lhs))
        if missing:
            raise ValueError(
                f"rule {self.name!r}: rhs wildcards {sorted(missing)} "
                "not bound by lhs"
            )

    def __str__(self) -> str:
        return f"{to_sexpr(self.lhs)} => {to_sexpr(self.rhs)}"

    def reversed(self, name: str | None = None) -> "Rewrite":
        """The rule applied right-to-left.

        Only valid when the lhs does not introduce wildcards absent
        from the rhs; callers check with :meth:`is_reversible`.
        """
        return Rewrite(name or f"{self.name}-rev", self.rhs, self.lhs)

    @property
    def is_reversible(self) -> bool:
        """True when both sides bind exactly the same wildcards."""
        return set(wildcards_of(self.lhs)) == set(wildcards_of(self.rhs))


def parse_rewrite(name: str, text: str) -> Rewrite:
    """Parse ``"lhs => rhs"`` concrete syntax into a rule."""
    if "=>" not in text:
        raise ValueError(f"rule text needs '=>': {text!r}")
    lhs_text, rhs_text = text.split("=>", 1)
    return Rewrite(name, parse(lhs_text.strip()), parse(rhs_text.strip()))


@dataclass
class ApplyStats:
    """Outcome of applying one rule for one iteration.

    ``n_matches`` counts the matches found, each of which is
    instantiated; ``n_visits`` (e-nodes scanned while matching),
    ``match_time`` and ``apply_time`` (instantiating and unioning)
    feed the runner's :class:`~repro.egraph.runner.SaturationPerf`
    counters.
    """

    n_matches: int = 0
    n_unions: int = 0
    n_visits: int = 0
    match_time: float = 0.0
    apply_time: float = 0.0


def apply_rewrite(
    egraph: EGraph,
    rule: Rewrite,
    op_index: dict[str, list[int]] | None = None,
    match_limit: int | None = None,
    match_work: int | None = None,
    roots: set[int] | None = None,
    compiled: bool | None = None,
) -> ApplyStats:
    """Match ``rule.lhs`` everywhere and union with ``rule.rhs``.

    The e-graph is left dirty; callers batch a ``rebuild`` per
    iteration, as egg does.  ``roots`` restricts match roots
    (frontier matching).  Every match is applied, even past
    ``match_limit`` (see :func:`~repro.egraph.ematch.ematch`).
    ``compiled`` selects the matcher as for
    :func:`~repro.egraph.ematch.ematch`; the runner resolves it once
    per saturation run.
    """
    stats = ApplyStats()
    counters: dict = {}
    t0 = time.perf_counter()
    groups = ematch_slots(
        egraph,
        rule.lhs,
        op_index=op_index,
        limit=match_limit,
        work_budget=match_work or DEFAULT_MATCH_WORK,
        roots=roots,
        compiled=compiled,
        counters=counters,
    )
    t1 = time.perf_counter()
    stats.match_time = t1 - t0
    stats.n_visits = counters.get("node_visits", 0)
    rhs = compile_rhs(rule.lhs, rule.rhs)
    instantiate = egraph.instantiate
    union = egraph.union
    uf = egraph._uf
    find = uf.find
    parent = uf._parent
    n_matches = n_unions = 0
    for root, bindings in groups:
        n_matches += len(bindings)
        for binding in bindings:
            rhs_id = instantiate(rhs, binding)
            # find(root) without the call when the path is short; a
            # union of one class with itself would change nothing.
            r = parent[root]
            if r != parent[r]:
                r = find(root)
            if r != rhs_id and union(root, rhs_id):
                n_unions += 1
    stats.n_matches = n_matches
    stats.n_unions = n_unions
    stats.apply_time = time.perf_counter() - t1
    return stats
