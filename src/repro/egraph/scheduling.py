"""Declarative saturation schedules and the tuned rule scheduler.

The runner's default :class:`~repro.egraph.runner.BackoffScheduler`
treats every rule identically, but trace data shows rule costs are
wildly skewed: on the quaternion-style workload two of five rules eat
~60% of match time while merging nothing (``BENCH_saturation.json``).
This module makes the schedule a *value*:

- :class:`RulePolicy` / :class:`PhasePolicy` — per-rule match budgets,
  ban lengths, and disabling; per-phase iteration/node/time caps;
- :class:`ScheduleSpec` — a versioned, JSON-serializable bundle of
  both, persisted as a first-class field of
  :class:`~repro.core.artifact.CompilerArtifact`;
- :class:`TunedScheduler` — the runner policy that enforces a spec,
  reusing the backoff ban machinery with per-rule parameters;
- :func:`schedule_from_env` — the ``REPRO_SCHEDULE`` override, letting
  a spec file apply to any compilation without touching the artifact.

Specs are written by hand or — the intended path — emitted by the
offline autotuner (:mod:`repro.tools.autotune`), which searches the
lever space against a perf corpus and validates that every candidate
keeps extracted cost equal or better.
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass, field
from pathlib import Path

from repro.egraph.rewrite import Rewrite
from repro.egraph.runner import BackoffScheduler, RunnerLimits

#: Format version of serialized :class:`ScheduleSpec` documents.
SCHEDULE_VERSION = 1

#: Phase names a spec may carry policies for (matches the
#: :class:`~repro.phases.ruleset.PhasedRuleSet` phases plus the
#: ``unphased`` ablation).
PHASE_NAMES = ("expansion", "compilation", "optimization", "unphased")


class ScheduleError(ValueError):
    """A schedule spec document is malformed."""


@dataclass(frozen=True)
class RulePolicy:
    """Per-rule scheduling overrides.

    ``None`` means "inherit the scheduler default"; ``disabled`` drops
    the rule from every saturation run (for rules the trace corpus
    shows burning match time without ever merging anything).
    """

    match_limit: int | None = None
    ban_length: int | None = None
    disabled: bool = False

    def is_default(self) -> bool:
        """True when this policy changes nothing."""
        return (
            self.match_limit is None
            and self.ban_length is None
            and not self.disabled
        )


@dataclass(frozen=True)
class PhasePolicy:
    """Per-phase overrides of the runner's resource limits.

    Each field overrides the matching :class:`RunnerLimits` field for
    that phase's ``EqSat`` calls; ``None`` inherits the compile
    options.  ``match_limit``/``ban_length`` move the phase-wide
    scheduler defaults (per-rule policies still win).
    """

    max_iterations: int | None = None
    max_nodes: int | None = None
    time_limit: float | None = None
    match_limit: int | None = None
    ban_length: int | None = None

    def is_default(self) -> bool:
        """True when this policy changes nothing."""
        return all(
            getattr(self, f.name) is None
            for f in dataclasses.fields(self)
        )


@dataclass(frozen=True)
class ScheduleSpec:
    """A declarative saturation schedule, as one versioned value.

    ``rules`` maps rule names to :class:`RulePolicy`; ``phases`` maps
    phase names (see :data:`PHASE_NAMES`) to :class:`PhasePolicy`.
    ``note`` is free-form provenance (the autotuner stamps its seed
    and corpus there).  Instances are immutable; derive variants with
    :meth:`with_rule` / :meth:`with_phase`.
    """

    rules: dict = field(default_factory=dict)
    phases: dict = field(default_factory=dict)
    note: str = ""
    version: int = SCHEDULE_VERSION

    # -- derivation ------------------------------------------------------

    def with_rule(self, name: str, policy: RulePolicy) -> "ScheduleSpec":
        """A copy of this spec with ``name``'s policy replaced."""
        rules = dict(self.rules)
        rules[name] = policy
        return dataclasses.replace(self, rules=rules)

    def with_phase(self, name: str, policy: PhasePolicy) -> "ScheduleSpec":
        """A copy of this spec with phase ``name``'s policy replaced."""
        if name not in PHASE_NAMES:
            raise ScheduleError(f"unknown phase {name!r}")
        phases = dict(self.phases)
        phases[name] = policy
        return dataclasses.replace(self, phases=phases)

    # -- queries ---------------------------------------------------------

    def rule_policy(self, name: str) -> RulePolicy:
        """The policy for rule ``name`` (default policy when unset)."""
        return self.rules.get(name, _DEFAULT_RULE_POLICY)

    def phase_policy(self, name: str) -> PhasePolicy:
        """The policy for phase ``name`` (default policy when unset)."""
        return self.phases.get(name, _DEFAULT_PHASE_POLICY)

    def disabled_rules(self) -> list[str]:
        """Names of rules this spec disables, sorted."""
        return sorted(
            name for name, p in self.rules.items() if p.disabled
        )

    def is_default(self) -> bool:
        """True when the spec changes nothing anywhere."""
        return all(p.is_default() for p in self.rules.values()) and all(
            p.is_default() for p in self.phases.values()
        )

    def limits_for(self, phase: str, base: RunnerLimits) -> RunnerLimits:
        """``base`` with this spec's phase overrides applied."""
        policy = self.phase_policy(phase)
        changes = {
            name: value
            for name, value in (
                ("max_iterations", policy.max_iterations),
                ("max_nodes", policy.max_nodes),
                ("time_limit", policy.time_limit),
                ("match_limit", policy.match_limit),
                ("ban_length", policy.ban_length),
            )
            if value is not None
        }
        return dataclasses.replace(base, **changes) if changes else base

    def scheduler_for(
        self, phase: str, limits: RunnerLimits
    ) -> "TunedScheduler":
        """A fresh :class:`TunedScheduler` for one ``EqSat`` call.

        ``limits`` should already include the phase overrides (see
        :meth:`limits_for`); its ``match_limit``/``ban_length`` become
        the scheduler-wide defaults that per-rule policies refine.
        """
        return TunedScheduler(
            self,
            match_limit=limits.match_limit,
            ban_length=limits.ban_length,
        )

    # -- (de)serialization -----------------------------------------------

    def to_dict(self) -> dict:
        """JSON-ready form; default policies are elided."""
        return {
            "version": self.version,
            "note": self.note,
            "rules": {
                name: _policy_to_dict(policy)
                for name, policy in sorted(self.rules.items())
                if not policy.is_default()
            },
            "phases": {
                name: _policy_to_dict(policy)
                for name, policy in sorted(self.phases.items())
                if not policy.is_default()
            },
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "ScheduleSpec":
        """Parse :meth:`to_dict` output; :class:`ScheduleError` if bad."""
        if not isinstance(doc, dict):
            raise ScheduleError("schedule spec must be a JSON object")
        version = doc.get("version", SCHEDULE_VERSION)
        if version != SCHEDULE_VERSION:
            raise ScheduleError(
                f"unsupported schedule version {version!r} "
                f"(this reader handles {SCHEDULE_VERSION})"
            )
        try:
            rules = {
                str(name): _policy_from_dict(RulePolicy, body)
                for name, body in (doc.get("rules") or {}).items()
            }
            phases = {}
            for name, body in (doc.get("phases") or {}).items():
                if name not in PHASE_NAMES:
                    raise ScheduleError(f"unknown phase {name!r}")
                phases[name] = _policy_from_dict(PhasePolicy, body)
        except (TypeError, ValueError) as exc:
            raise ScheduleError(f"malformed schedule spec: {exc}")
        return cls(
            rules=rules,
            phases=phases,
            note=str(doc.get("note", "")),
            version=version,
        )

    def to_json(self) -> str:
        """The spec as a JSON document (the on-disk format)."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ScheduleSpec":
        """Parse :meth:`to_json` output; :class:`ScheduleError` if bad."""
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ScheduleError(f"schedule spec is not valid JSON: {exc}")
        return cls.from_dict(doc)

    def save(self, path: Path | str) -> Path:
        """Write the spec to ``path`` (parents created)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_json())
        return path

    @classmethod
    def load(cls, path: Path | str) -> "ScheduleSpec":
        """Read a spec file; :class:`ScheduleError` if unusable."""
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise ScheduleError(f"cannot read schedule {path}: {exc}")
        return cls.from_json(text)

    # -- presentation ----------------------------------------------------

    def summary(self) -> str:
        """Compact human-readable description (CLI ``inspect``)."""
        if self.is_default():
            return "default schedule (no overrides)"
        parts = []
        disabled = self.disabled_rules()
        if disabled:
            parts.append(f"disables {', '.join(disabled)}")
        tuned = sorted(
            name
            for name, p in self.rules.items()
            if not p.disabled and not p.is_default()
        )
        if tuned:
            parts.append(f"tunes {', '.join(tuned)}")
        phased = sorted(
            name for name, p in self.phases.items() if not p.is_default()
        )
        if phased:
            parts.append(f"caps phases {', '.join(phased)}")
        text = "; ".join(parts)
        if self.note:
            text += f" [{self.note}]"
        return text


_DEFAULT_RULE_POLICY = RulePolicy()
_DEFAULT_PHASE_POLICY = PhasePolicy()


def _policy_to_dict(policy) -> dict:
    doc = {}
    for f in dataclasses.fields(policy):
        value = getattr(policy, f.name)
        if value is not None and value is not False:
            doc[f.name] = value
    return doc


def _policy_from_dict(cls, body: dict):
    if not isinstance(body, dict):
        raise ScheduleError(f"policy must be an object, got {body!r}")
    known = {f.name for f in dataclasses.fields(cls)}
    unknown = set(body) - known
    if unknown:
        raise ScheduleError(f"unknown policy keys {sorted(unknown)}")
    return cls(**body)


class TunedScheduler(BackoffScheduler):
    """Backoff scheduling with per-rule budgets from a schedule spec.

    Per-rule ``match_limit``/``ban_length`` override the scheduler-wide
    defaults (threshold doubling starts from the rule's own base);
    ``disabled`` rules are dropped from the run before the first
    iteration via :meth:`is_disabled`.
    """

    def __init__(
        self,
        spec: ScheduleSpec,
        match_limit: int = 1000,
        ban_length: int = 5,
    ):
        super().__init__(match_limit=match_limit, ban_length=ban_length)
        self._spec = spec

    @property
    def spec(self) -> ScheduleSpec:
        """The schedule spec this scheduler enforces."""
        return self._spec

    def is_disabled(self, rule: Rewrite) -> bool:
        """True when the spec disables ``rule``."""
        return self._spec.rule_policy(rule.name).disabled

    def _base_limit(self, rule: Rewrite) -> int:
        policy = self._spec.rule_policy(rule.name)
        if policy.match_limit is not None:
            return policy.match_limit
        return self._initial_limit

    def _base_ban_length(self, rule: Rewrite) -> int:
        policy = self._spec.rule_policy(rule.name)
        if policy.ban_length is not None:
            return policy.ban_length
        return self._ban_length


def schedule_from_env() -> ScheduleSpec | None:
    """The ``REPRO_SCHEDULE`` override, or ``None`` when unset.

    The variable names a :meth:`ScheduleSpec.to_json` file; it takes
    precedence over any artifact-carried schedule so a tuned (or
    deliberately default) spec can be A/B-tested without rebuilding
    artifacts.  ``REPRO_SCHEDULE=0``/``off`` explicitly forces the
    default schedule.  An unreadable file raises — a requested
    schedule silently not applying would invalidate measurements.
    """
    value = os.environ.get("REPRO_SCHEDULE", "").strip()
    if not value:
        return None
    if value.lower() in ("0", "off", "none", "default"):
        return ScheduleSpec()
    return ScheduleSpec.load(value)
