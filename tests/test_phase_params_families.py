"""Default α/β thresholds separate phases on every bundled family.

:func:`repro.phases.assign.default_params` derives α/β from the cost
model rather than hard-coding fusion-g3 numbers, so the same recipe
must keep producing a *non-degenerate* three-phase split when the
shipped algebra is re-generalized onto other families and widths:
every phase populated, and compilation reserved for the scalar→vector
transitions that α is supposed to isolate.
"""

from __future__ import annotations

import pytest

from repro.isa.families import isa_family
from repro.phases.assign import default_params

_CELLS = [
    ("masked", 4),
    ("masked", 8),
    ("avx-like", 4),
    ("avx-like", 8),
]


@pytest.mark.parametrize(
    "family,width", _CELLS, ids=lambda v: str(v)
)
def test_phase_split_is_non_degenerate(family, width, family_compilers):
    compiler = family_compilers(family, width)
    counts = compiler.ruleset.counts()
    for phase, count in counts.items():
        assert count > 0, (
            f"{family}-w{width}: degenerate split, no {phase} rules "
            f"({counts})"
        )


@pytest.mark.parametrize(
    "family,width", _CELLS, ids=lambda v: str(v)
)
def test_alpha_isolates_vector_transitions(family, width, family_compilers):
    # α's job: compilation is where the scalar→vector transitions
    # live.  A handful of deeply lopsided scalar identities (erasing
    # three ops, e.g. ``(/ (neg ?x) (neg 1)) => ?x``) legitimately
    # clear the bar too, so assert the overwhelming share rather than
    # exclusivity.
    compiler = family_compilers(family, width)
    compilation = compiler.ruleset.compilation
    vector = [
        rule for rule in compilation
        if "Vec" in f"{rule.lhs} {rule.rhs}"
    ]
    assert len(vector) >= 0.9 * len(compilation), (
        f"{family}-w{width}: only {len(vector)}/{len(compilation)} "
        "compilation rules mention a vector op"
    )


@pytest.mark.parametrize(
    "family,width", _CELLS, ids=lambda v: str(v)
)
def test_default_params_track_the_spec(family, width):
    spec = isa_family(family).spec(width)
    params = default_params(spec)
    scalar_costs = [i.base_cost for i in spec.scalar_instructions()]
    assert params.alpha == 2.0 * max(scalar_costs) + 1.0
    assert params.beta == min(scalar_costs) + 2.0 * spec.leaf_cost
    # β must sit strictly below α for the two-step assignment to have
    # three reachable outcomes.
    assert params.beta < params.alpha
