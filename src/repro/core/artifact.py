"""First-class compiler artifacts: the offline stage as a file.

The paper's central economic argument (§5.3) is that the offline stage
— Ruler-style rule synthesis plus cost-based phase assignment — runs
**once per instruction set** and is amortized over every compilation.
A :class:`CompilerArtifact` makes that product durable: one versioned
JSON file holding the phased rule set *with its phase assignment*, the
α/β phase parameters, the cost-model parameters, the default
:class:`~repro.compiler.compile.CompileOptions`, and the synthesis
provenance (candidate counts and stage timings).  Loading an artifact
yields a working :class:`~repro.core.framework.GeneratedCompiler`
without re-running either ``synthesize_rules`` or ``assign_phases``.

Artifacts are keyed by a **semantics-aware fingerprint**: each
instruction's ``lane_fn`` is evaluated on a fixed grid of probe inputs
and the results are hashed, so editing an instruction's *behaviour* (a
§5.4 customization) changes the key even when its name, arity, and
cost are unchanged.

An artifact lives where :meth:`CompilerArtifact.save` puts it:
``repro-artifact build -o`` writes one file, and the compile
service's registry (:class:`~repro.service.registry.ArtifactRegistry`)
publishes, finds and validates them by semantics hash.  Build,
inspect, and use artifacts from the command line with
``repro-artifact`` (``python -m repro.tools.artifact_cli``).
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from repro.compiler.compile import CompileOptions
from repro.egraph.rewrite import Rewrite, parse_rewrite
from repro.egraph.runner import RunnerLimits
from repro.isa.spec import Instruction, IsaSpec
from repro.phases.assign import PhaseParams
from repro.phases.ruleset import PhasedRuleSet
from repro.ruler.synthesize import SynthesisConfig, SynthesisResult

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.framework import GeneratedCompiler

ARTIFACT_KIND = "repro-compiler-artifact"
ARTIFACT_VERSION = 3

# Versions this reader loads.  v3 added an optional ``schedule`` field
# (a tuned saturation schedule), since removed: the writer leaves it
# out and the reader refuses a document that sets it, so v2 and v3
# documents load alike.
_SUPPORTED_VERSIONS = (2, ARTIFACT_VERSION)

# Version folded into the semantics fingerprint.  Deliberately *not*
# ARTIFACT_VERSION: v3 only added an optional field, so v2 artifacts
# must keep matching their specs.  Bump this (invalidating every
# artifact) only when probed semantics themselves change meaning.
_SEMANTICS_VERSION = 2

# Fixed probe grid for the semantics hash.  The values exercise sign,
# zero (division/sgn edge cases), fractional, and >1 magnitudes; they
# are part of the artifact format and must never change silently —
# bump _SEMANTICS_VERSION instead.
_SEMANTIC_PROBES = (-2.5, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 3.25)


class ArtifactError(ValueError):
    """An artifact file is malformed or does not match the given ISA."""


# ---------------------------------------------------------------------------
# fingerprints
# ---------------------------------------------------------------------------


def _lane_semantics_digest(instr: Instruction) -> str:
    """Hash of the instruction's behaviour on the fixed probe grid.

    The lane function is applied to every tuple in the probe product
    (``8 ** arity`` evaluations); exceptions and ``None`` (undefined)
    results are folded in as distinguished tokens.
    """
    out = []
    for args in itertools.product(_SEMANTIC_PROBES, repeat=instr.arity):
        try:
            value = instr.lane_fn(*args)
        except Exception:
            value = "!raise"
        out.append(repr(value))
    digest = hashlib.sha256("|".join(out).encode()).hexdigest()
    return digest[:16]


def spec_semantics_hash(spec: IsaSpec) -> str:
    """Semantics-aware hash of an ISA spec (no synthesis config).

    Covers the structural cost-model knobs plus, per instruction, its
    signature *and* its probed lane semantics — so two specs differing
    only in a ``lane_fn`` body hash differently.
    """
    parts = [
        str(_SEMANTICS_VERSION),
        spec.name,
        str(spec.vector_width),
        str(spec.leaf_cost),
        str(spec.vec_lane_literal_cost),
        str(spec.vec_lane_compute_cost),
        str(spec.vec_contiguous_cost),
        str(spec.concat_cost),
    ]
    # Family extensions join the hash only when switched on, so every
    # pre-existing fusion-g3 artifact keeps its fingerprint.
    if spec.masked:
        parts.append(f"masked/{spec.mask_cost}")
    if spec.vec_unaligned_cost is not None:
        parts.append(f"unaligned/{spec.vec_unaligned_cost}")
    for instr in sorted(spec.instructions, key=lambda i: i.name):
        parts.append(
            f"{instr.name}/{instr.arity}/{instr.kind.value}/"
            f"{instr.base_cost}/{instr.vector_of}/{instr.commutative}/"
            f"{_lane_semantics_digest(instr)}"
        )
    return hashlib.sha256("|".join(parts).encode()).hexdigest()[:16]


def spec_fingerprint(spec: IsaSpec, config: SynthesisConfig) -> str:
    """Stable key for (ISA, synthesis config) pairs.

    Semantics-aware: includes :func:`spec_semantics_hash`, so editing a
    lane function changes the fingerprint.
    """
    parts = [spec_semantics_hash(spec)]
    parts.extend(
        str(x)
        for x in (
            config.max_term_size,
            config.variables,
            config.constants,
            config.n_cvec_random,
            config.cvec_seed,
            config.n_verify_samples,
            config.verify_seed,
            config.minimize,
            config.op_allowlist,
        )
    )
    # cost_prune joins the key only when switched *off*, so every
    # pre-existing artifact (written before the knob existed, default
    # True) keeps its fingerprint.
    if not config.cost_prune:
        parts.append("cost_prune=False")
    return hashlib.sha256("|".join(parts).encode()).hexdigest()[:16]


def artifact_fingerprint(
    spec: IsaSpec, config: SynthesisConfig, params: PhaseParams
) -> str:
    """Identity of a full artifact: spec semantics + config + α/β.

    Phase parameters are part of the offline product (they decide the
    per-phase rule membership the artifact persists), so two artifacts
    assigned with different α/β must never collide.
    """
    base = spec_fingerprint(spec, config)
    tail = f"{params.alpha!r}/{params.beta!r}"
    return hashlib.sha256(f"{base}|{tail}".encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# flat rule text (the format of the pregenerated rule files)
# ---------------------------------------------------------------------------


def rules_to_text(rules: list[Rewrite], header: str = "") -> str:
    """Serialize rules, one per line, with optional ``#`` header."""
    lines = [f"# {line}" for line in header.splitlines() if line]
    for rule in rules:
        lines.append(f"{rule.name}\t{rule}")
    return "\n".join(lines) + "\n"


def rules_from_text(text: str) -> list[Rewrite]:
    """Parse rules serialized by :func:`rules_to_text`."""
    rules: list[Rewrite] = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, _, body = line.partition("\t")
        if not body:
            raise ValueError(f"malformed rule line: {line!r}")
        rules.append(parse_rewrite(name, body))
    return rules


# ---------------------------------------------------------------------------
# options / config (de)serialization
# ---------------------------------------------------------------------------


def _options_to_dict(options: CompileOptions) -> dict:
    return dataclasses.asdict(options)


def _options_from_dict(data: dict) -> CompileOptions:
    """Rebuild :class:`CompileOptions`, tolerating missing/extra keys.

    Unknown keys (from a newer writer) are dropped; missing keys fall
    back to the dataclass defaults, so artifacts stay loadable across
    small option-set changes within one format version.
    """
    kwargs = {}
    for f in dataclasses.fields(CompileOptions):
        if f.name not in data:
            continue
        value = data[f.name]
        if f.name.endswith("_limits") and isinstance(value, dict):
            known = {lf.name for lf in dataclasses.fields(RunnerLimits)}
            value = RunnerLimits(
                **{k: v for k, v in value.items() if k in known}
            )
        kwargs[f.name] = value
    return CompileOptions(**kwargs)


def _config_to_dict(config: SynthesisConfig) -> dict:
    return dataclasses.asdict(config)


def provenance_from_synthesis(result: SynthesisResult) -> dict:
    """Summarize a :class:`SynthesisResult` for artifact provenance.

    Counts and timings only — the rules themselves live in the phased
    rule set; this records *how* they were produced.
    """
    return {
        "source": "synthesized",
        "n_rules": len(result.rules),
        "n_single_lane_rules": len(result.single_lane_rules),
        "n_enumerated": result.n_enumerated,
        "n_representatives": result.n_representatives,
        "n_pairs": result.n_pairs,
        "n_candidates": result.n_candidates,
        "n_verified": result.n_verified,
        "n_unsound": result.n_unsound,
        "elapsed": result.elapsed,
        "aborted": result.aborted,
        "stage_times": dict(result.stage_times),
    }


# ---------------------------------------------------------------------------
# the artifact itself
# ---------------------------------------------------------------------------


@dataclass
class CompilerArtifact:
    """The serialized product of the offline stage, as one value.

    Everything a compile server needs to answer requests for one ISA:
    the phased rule set (with phase membership baked in), the α/β used
    to assign it, the cost-model parameters, default compile options,
    and provenance of the synthesis run.  ``spec_hash`` ties the
    artifact to the *semantics* of the ISA it was built from;
    ``fingerprint`` identifies it (spec + synthesis config + α/β).
    """

    isa_name: str
    vector_width: int
    spec_hash: str
    fingerprint: str
    ruleset: PhasedRuleSet
    options: CompileOptions = field(default_factory=CompileOptions)
    cost_params: dict = field(default_factory=dict)
    synthesis_config: dict = field(default_factory=dict)
    provenance: dict = field(default_factory=dict)
    # Dominance-pruning provenance (repro.ruler.cost_prune): kept /
    # dropped counts and the cost-model digest pruning ran under.
    # None for unpruned rulesets and every pre-existing artifact.
    pruning: dict | None = None
    created: float = 0.0
    version: int = ARTIFACT_VERSION

    # -- construction ----------------------------------------------------

    @classmethod
    def from_compiler(
        cls,
        compiler: "GeneratedCompiler",
        config: SynthesisConfig | None = None,
        provenance: dict | None = None,
    ) -> "CompilerArtifact":
        """Capture a generated compiler as an artifact.

        ``config`` is the synthesis configuration the compiler's rules
        came from (used for the fingerprint; defaults to the stock
        config).  ``provenance`` overrides the synthesis summary — by
        default it is derived from ``compiler.synthesis`` when present.
        """
        spec = compiler.spec
        config = config or SynthesisConfig()
        pruning = None
        if provenance is None:
            if compiler.synthesis is not None:
                provenance = provenance_from_synthesis(compiler.synthesis)
            else:
                provenance = {"source": "unknown"}
        if compiler.synthesis is not None:
            pruning = getattr(compiler.synthesis, "pruning", None)
        return cls(
            isa_name=spec.name,
            vector_width=spec.vector_width,
            spec_hash=spec_semantics_hash(spec),
            fingerprint=artifact_fingerprint(
                spec, config, compiler.ruleset.params
            ),
            ruleset=compiler.ruleset,
            options=compiler.options,
            cost_params={
                "leaf_cost": spec.leaf_cost,
                "vec_lane_literal_cost": spec.vec_lane_literal_cost,
                "vec_lane_compute_cost": spec.vec_lane_compute_cost,
                "vec_contiguous_cost": spec.vec_contiguous_cost,
                "concat_cost": spec.concat_cost,
            },
            synthesis_config=_config_to_dict(config),
            provenance=provenance,
            pruning=pruning,
            created=time.time(),
        )

    # -- (de)serialization -----------------------------------------------

    def to_json(self) -> str:
        """The artifact as a JSON document (the on-disk format)."""
        params = self.ruleset.params
        doc = {
            "kind": ARTIFACT_KIND,
            "version": self.version,
            "isa": {
                "name": self.isa_name,
                "vector_width": self.vector_width,
                "spec_hash": self.spec_hash,
            },
            "fingerprint": self.fingerprint,
            "phase_params": {"alpha": params.alpha, "beta": params.beta},
            "phase_counts": self.ruleset.counts(),
            "ruleset": self.ruleset.to_text(),
            "options": _options_to_dict(self.options),
            "cost_params": dict(self.cost_params),
            "synthesis_config": dict(self.synthesis_config),
            "provenance": dict(self.provenance),
            "pruning": (
                dict(self.pruning) if self.pruning is not None else None
            ),
            "created": self.created,
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "CompilerArtifact":
        """Parse :meth:`to_json` output; :class:`ArtifactError` if bad."""
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ArtifactError(f"artifact is not valid JSON: {exc}")
        if not isinstance(doc, dict) or doc.get("kind") != ARTIFACT_KIND:
            raise ArtifactError("not a compiler artifact file")
        version = doc.get("version")
        if version not in _SUPPORTED_VERSIONS:
            raise ArtifactError(
                f"unsupported artifact version {version!r} "
                f"(this reader handles {_SUPPORTED_VERSIONS})"
            )
        if doc.get("schedule") is not None:
            # The fingerprint never covered the schedule, so compiling
            # without it would give other programs under the same key.
            raise ArtifactError(
                "artifact field 'schedule' is not supported: tuned "
                "saturation schedules were removed; rebuild the artifact"
            )
        try:
            isa = doc["isa"]
            ruleset = PhasedRuleSet.from_text(doc["ruleset"])
            return cls(
                isa_name=isa["name"],
                vector_width=int(isa["vector_width"]),
                spec_hash=isa["spec_hash"],
                fingerprint=doc["fingerprint"],
                ruleset=ruleset,
                options=_options_from_dict(doc.get("options", {})),
                cost_params=dict(doc.get("cost_params", {})),
                synthesis_config=dict(doc.get("synthesis_config", {})),
                provenance=dict(doc.get("provenance", {})),
                pruning=(
                    dict(doc["pruning"])
                    if isinstance(doc.get("pruning"), dict)
                    else None
                ),
                created=float(doc.get("created", 0.0)),
                version=version,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ArtifactError(f"malformed artifact: {exc}")

    def save(self, path: Path | str) -> Path:
        """Write the artifact to ``path`` (atomic; parents created)."""
        return write_atomic(path, self.to_json())

    @classmethod
    def load(cls, path: Path | str) -> "CompilerArtifact":
        """Read an artifact file; :class:`ArtifactError` if unusable."""
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise ArtifactError(f"cannot read artifact {path}: {exc}")
        return cls.from_json(text)

    # -- use -------------------------------------------------------------

    def matches_spec(self, spec: IsaSpec) -> bool:
        """True when ``spec``'s probed semantics match this artifact."""
        return spec_semantics_hash(spec) == self.spec_hash

    def to_compiler(
        self,
        spec: IsaSpec,
        options: CompileOptions | None = None,
        check: bool = True,
    ) -> "GeneratedCompiler":
        """Reconstruct the generated compiler for ``spec``.

        Skips both rule synthesis and phase assignment — the whole
        point of the artifact.  With ``check`` (default) the spec's
        semantics hash must match the artifact's, so a stale artifact
        cannot silently compile against changed instruction behaviour.
        """
        from repro.core.framework import GeneratedCompiler

        return GeneratedCompiler.from_artifact(
            self, spec, options=options, check=check
        )

    def summary(self) -> str:
        """Multi-line human-readable description (CLI ``inspect``)."""
        counts = self.ruleset.counts()
        params = self.ruleset.params
        prov = self.provenance
        lines = [
            f"compiler artifact v{self.version} for ISA "
            f"{self.isa_name!r} (width {self.vector_width})",
            f"  fingerprint:  {self.fingerprint}  "
            f"(spec semantics {self.spec_hash})",
            f"  rules:        {len(self.ruleset)} "
            f"({counts['expansion']} expansion, "
            f"{counts['compilation']} compilation, "
            f"{counts['optimization']} optimization)",
            f"  phase params: alpha={params.alpha} beta={params.beta}",
            f"  cost params:  "
            + " ".join(f"{k}={v}" for k, v in self.cost_params.items()),
        ]
        if self.pruning is not None:
            # One line per pruning stage (single_lane / full_width),
            # or the flat kept/dropped form the pregen path records.
            for stage, info in sorted(self.pruning.items()):
                if not isinstance(info, dict):
                    continue
                lines.append(
                    f"  pruning:      {stage}: "
                    f"kept {info.get('n_kept', '?')}"
                    f"/{info.get('n_in', '?')} "
                    f"({info.get('n_dominated', '?')} dominated, "
                    f"{info.get('n_rescued', '?')} rescued; "
                    f"cost model {info.get('cost_model_digest', '?')})"
                )
        source = prov.get("source", "unknown")
        if source == "synthesized":
            lines.append(
                f"  provenance:   synthesized "
                f"({prov.get('n_candidates', '?')} candidates, "
                f"{prov.get('n_verified', '?')} verified, "
                f"{prov.get('n_unsound', '?')} unsound, "
                f"{prov.get('elapsed', 0.0):.1f}s offline)"
            )
            stages = prov.get("stage_times") or {}
            if stages:
                lines.append(
                    "  stage times:  "
                    + " ".join(f"{k}={v:.2f}s" for k, v in stages.items())
                )
        else:
            lines.append(f"  provenance:   {source}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# atomic writes
# ---------------------------------------------------------------------------


_tmp_counter = itertools.count()


def _tmp_suffix() -> str:
    """A per-call-unique temp suffix: with the pid alone, two threads
    writing one path would share a temp file, and the loser's
    ``os.replace`` would raise ``FileNotFoundError``."""
    return ".tmp-%d-%d" % (os.getpid(), next(_tmp_counter))


def write_atomic(path: Path | str, text: str) -> Path:
    """Write ``text`` to ``path`` through a temp file and a rename.

    The one writer of every on-disk entry (artifact files and the
    service registry's artifacts and results): a reader
    sees the old file or the new one, never a torn one, even when the
    writer crashes or another writes the same path at once.  Parents
    are created; returns ``path``.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(_tmp_suffix())
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path
