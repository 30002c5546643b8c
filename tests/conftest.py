"""Shared fixtures.

Expensive artifacts (rule synthesis, generated compilers) are session-
scoped and sized for test speed: tests exercise the full pipeline on a
small synthesis (term size 3-4), while the benchmarks use the full
configuration.
"""

from __future__ import annotations

import pytest

from repro.compiler.compile import CompileOptions
from repro.core import IsariaFramework
from repro.core.pregen import family_compiler
from repro.egraph.runner import RunnerLimits
from repro.isa import fusion_g3_spec
from repro.isa.families import isa_family
from repro.phases import CostModel
from repro.ruler import SynthesisConfig, synthesize_rules


@pytest.fixture(scope="session")
def spec():
    return fusion_g3_spec()


@pytest.fixture(scope="session")
def cost_model(spec):
    return CostModel(spec)


@pytest.fixture(scope="session")
def synthesis_size3(spec):
    return synthesize_rules(spec, SynthesisConfig(max_term_size=3))


@pytest.fixture(scope="session")
def synthesis_size4(spec):
    return synthesize_rules(spec, SynthesisConfig(max_term_size=4))


def fast_compile_options() -> CompileOptions:
    """Reduced saturation limits so integration tests stay quick."""
    return CompileOptions(
        max_rounds=4,
        expansion_limits=RunnerLimits(
            max_iterations=4, max_nodes=12_000, time_limit=6.0
        ),
        compilation_limits=RunnerLimits(
            max_iterations=10, max_nodes=20_000, time_limit=8.0
        ),
        optimization_limits=RunnerLimits(
            max_iterations=5, max_nodes=12_000, time_limit=5.0
        ),
    )


@pytest.fixture(scope="session")
def isaria_compiler(spec):
    """A generated compiler from a size-4 synthesis (fast, useful)."""
    framework = IsariaFramework(
        spec,
        synthesis_config=SynthesisConfig(max_term_size=4),
        compile_options=fast_compile_options(),
    )
    return framework.generate_compiler()


@pytest.fixture(scope="session")
def family_compilers():
    """``get(family, width)``: the bundled family's compiler at
    ``width`` (:func:`~repro.core.pregen.family_compiler` on its spec),
    bootstrapped once per session however many modules ask for it."""
    built: dict = {}

    def get(family: str, width: int):
        key = (family, width)
        if key not in built:
            built[key] = family_compiler(isa_family(family).spec(width))
        return built[key]

    return get
