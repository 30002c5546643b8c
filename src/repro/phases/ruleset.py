"""The phased rule set a generated compiler carries."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Iterator

from repro.egraph.rewrite import Rewrite, parse_rewrite
from repro.egraph.runner import RuleTable
from repro.lang.term import is_wildcard

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.phases.assign import PhaseParams

_PHASE_NAMES = ("expansion", "compilation", "optimization")


@dataclass(frozen=True)
class PhasedRuleSet:
    """Candidate rules split into the three §3.2 phases."""

    expansion: tuple[Rewrite, ...]
    compilation: tuple[Rewrite, ...]
    optimization: tuple[Rewrite, ...]
    params: "PhaseParams"

    def __len__(self) -> int:
        return (
            len(self.expansion)
            + len(self.compilation)
            + len(self.optimization)
        )

    def __iter__(self) -> Iterator[Rewrite]:
        yield from self.expansion
        yield from self.compilation
        yield from self.optimization

    def all_rules(self) -> list[Rewrite]:
        """Every rule, ignoring phases (the §5.2 no-phasing ablation)."""
        return list(self)

    def table(self, phase: str, identities: bool = True) -> RuleTable:
        """One phase's rules as the runner's :class:`RuleTable`.

        Built on first use and kept on the rule set, so every
        saturation over a phase shares one table.  With
        ``identities=False`` the table leaves out identity-introduction
        rules (a bare-wildcard LHS such as ``?a => (+ ?a 0)``).
        """
        key = (phase, identities)
        table = self._tables.get(key)
        if table is None:
            rules = getattr(self, phase)
            if not identities:
                rules = [rule for rule in rules if not is_wildcard(rule.lhs)]
            table = self._tables[key] = RuleTable(rules)
        return table

    @cached_property
    def _tables(self) -> dict:
        """The tables :meth:`table` built, by ``(phase, identities)``."""
        return {}

    def counts(self) -> dict[str, int]:
        """Rule count per phase."""
        return {
            "expansion": len(self.expansion),
            "compilation": len(self.compilation),
            "optimization": len(self.optimization),
        }

    def summary(self) -> str:
        """One-line human summary: counts plus the α/β used."""
        counts = self.counts()
        total = len(self)
        return (
            f"{total} rules: {counts['expansion']} expansion, "
            f"{counts['compilation']} compilation, "
            f"{counts['optimization']} optimization "
            f"(alpha={self.params.alpha}, beta={self.params.beta})"
        )

    def to_text(self) -> str:
        """Serialize rules *with their phase membership* to plain text.

        Offline phase assignment is part of the once-per-ISA product
        (paper §5.3), so persisting it matters: a compiler restored
        from this text (see :meth:`from_text`) does not need to re-run
        ``assign_phases``.  One header line carries the α/β used; each
        rule line is ``phase<TAB>name<TAB>lhs => rhs`` in phase order.
        """
        lines = [f"params\t{self.params.alpha!r}\t{self.params.beta!r}"]
        for phase in _PHASE_NAMES:
            for rule in getattr(self, phase):
                lines.append(f"{phase}\t{rule.name}\t{rule}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "PhasedRuleSet":
        """Parse text produced by :meth:`to_text`.

        Raises ``ValueError`` on any malformed line, unknown phase
        name, or missing ``params`` header — corrupt artifacts must be
        detected, not silently half-loaded.
        """
        from repro.phases.assign import PhaseParams

        params: PhaseParams | None = None
        phases: dict[str, list[Rewrite]] = {p: [] for p in _PHASE_NAMES}
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split("\t")
            if fields[0] == "params":
                if len(fields) != 3:
                    raise ValueError(
                        f"line {lineno}: malformed params line {line!r}"
                    )
                params = PhaseParams(
                    alpha=float(fields[1]), beta=float(fields[2])
                )
                continue
            if len(fields) != 3:
                raise ValueError(
                    f"line {lineno}: malformed rule line {line!r}"
                )
            phase, name, body = fields
            if phase not in phases:
                raise ValueError(
                    f"line {lineno}: unknown phase {phase!r}"
                )
            phases[phase].append(parse_rewrite(name, body))
        if params is None:
            raise ValueError("phased ruleset text lacks a params line")
        return cls(
            expansion=tuple(phases["expansion"]),
            compilation=tuple(phases["compilation"]),
            optimization=tuple(phases["optimization"]),
            params=params,
        )
