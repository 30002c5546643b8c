"""Pregenerated rule sets shipped with the package.

The offline stage for the base Fusion-G3-like ISA takes a few minutes;
its output is deterministic, so the repository ships it under
``repro/data/`` and the default compiler loads it instantly.  Custom
ISAs (and the rule-budget experiments) still run synthesis live.

Two rule files ship: ``fusion_g3_rules.txt`` (the default — cost-
dominated rules pruned via :mod:`repro.ruler.cost_prune`) and
``fusion_g3_rules_full.txt`` (the unpruned synthesis output).  Every
compiler here loads the default file.  The full file stays for three
readers: ``repro.tools.regen_rules`` derives the default file from it,
``repro-artifact build --pregen`` records that lineage on the
artifact, and ``BENCH_minimize`` and
``tests/test_costprune_differential.py`` compile against it as the
unpruned reference.

Regenerate after changing the ISA spec or the synthesis pipeline with
``python -m repro.tools.regen_rules``.
"""

from __future__ import annotations

from pathlib import Path

from repro.compiler.compile import CompileOptions
from repro.core.artifact import rules_from_text
from repro.core.framework import GeneratedCompiler
from repro.egraph.rewrite import Rewrite
from repro.isa.fusion_g3 import fusion_g3_spec
from repro.isa.spec import IsaSpec
from repro.phases.assign import PhaseParams, assign_phases, default_params
from repro.phases.cost import CostModel

_DATA_DIR = Path(__file__).resolve().parents[1] / "data"
DEFAULT_RULES_FILE = _DATA_DIR / "fusion_g3_rules.txt"
FULL_RULES_FILE = _DATA_DIR / "fusion_g3_rules_full.txt"


def load_pregenerated_rules(path: Path | None = None) -> list[Rewrite]:
    """The shipped full-width rule set for the base ISA.

    With no explicit ``path`` this loads the cost-pruned default set.
    """
    if path is None:
        path = DEFAULT_RULES_FILE
    if not path.exists():
        raise FileNotFoundError(
            f"no pregenerated rules at {path}; run "
            "`python -m repro.tools.regen_rules`"
        )
    return rules_from_text(path.read_text())


def default_compiler(
    spec: IsaSpec | None = None,
    phase_params: PhaseParams | None = None,
    compile_options: CompileOptions | None = None,
) -> GeneratedCompiler:
    """An Isaria compiler for the base ISA from the shipped rules.

    This is the quickstart entry point: identical to running
    ``IsariaFramework(fusion_g3_spec()).generate_compiler()`` but
    skipping the minutes-long offline stage.
    """
    spec = spec or fusion_g3_spec()
    cost_model = CostModel(spec)
    rules = load_pregenerated_rules()
    ruleset = assign_phases(
        cost_model, rules, phase_params or default_params(spec)
    )
    return GeneratedCompiler(
        spec=spec,
        cost_model=cost_model,
        ruleset=ruleset,
        options=compile_options or CompileOptions(),
    )


def single_lane_rules(path: Path | None = None) -> list[Rewrite]:
    """The width-independent single-lane algebra of the shipped set.

    The ``scal-*`` rules relate scalar expressions only — no ``Vec``
    terms — so they are valid at every vector width and can be
    re-generalized (paper §3.1) for any ISA family sharing the
    fusion-g3 lane semantics.  The ``lift``/``vect``/``pad`` forms in
    the file are width-4-specific and are excluded here.
    """
    return [
        rule
        for rule in load_pregenerated_rules(path)
        if rule.name.startswith("scal-")
    ]


def family_compiler(
    spec: IsaSpec,
    phase_params: PhaseParams | None = None,
    compile_options: CompileOptions | None = None,
    rules: "list[Rewrite] | None" = None,
) -> GeneratedCompiler:
    """A compiler for any bundled ISA family at any width.

    The width-4 fusion-g3 spec loads the shipped full-width rules
    directly (byte-identical to :func:`default_compiler`); every other
    spec re-generalizes the shipped *single-lane* algebra at its own
    width — the canonical lift rules come from the spec's vector
    instructions, padding identities and vector forms are re-derived
    and re-verified at the target width (mask-aware on masked specs).

    ``rules`` overrides the single-lane seed set (tests pass ``[]``
    for a lean lift-rules-only compiler).
    """
    if spec.name == "fusion-g3" and spec.vector_width == 4:
        return default_compiler(spec, phase_params, compile_options)
    from repro.ruler.cost_prune import cost_prune_rules
    from repro.ruler.lanes import generalize_rules

    seed = single_lane_rules() if rules is None else rules
    generalized, _report = generalize_rules(seed, spec)
    # Re-generalization re-stamps width variants of every seed rule,
    # recreating dominated patterns at the target width; prune them.
    generalized, _prune = cost_prune_rules(generalized, spec)
    cost_model = CostModel(spec)
    ruleset = assign_phases(
        cost_model, generalized, phase_params or default_params(spec)
    )
    return GeneratedCompiler(
        spec=spec,
        cost_model=cost_model,
        ruleset=ruleset,
        options=compile_options or CompileOptions(),
    )
