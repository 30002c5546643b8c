"""The phased rules of the bundled bootstraps, pinned.

A non-base ISA's compiler re-generalizes the shipped single-lane
algebra at its own width, re-verifies it, cost-prunes it and assigns
phases (:func:`~repro.core.pregen.family_compiler`); the base ISA's
assigns phases to the shipped rules (``default_compiler()``).  For
each, these are the rule count per phase and the sha256 of the three
phases' rule text, in the recipe perfbench's ruleset digest uses.  A
change that moves any of them changes what a bootstrapped compiler
rewrites with, and must update the record on purpose.

masked and avx-like share fusion-g3's lane semantics, so at one width
their rules are the same.
"""

import hashlib

import pytest

from repro.core.artifact import rules_to_text
from repro.core.pregen import default_compiler

_W4 = "a7a0daa36760aefcbd4820d758405bebc04cf0ddbf11b2f19f5e31b9fb35116c"
_W8 = "83da4a4cd5b6dedb6c668924b5f4278abbd58bb8996e7546fe39aa22f41614b5"
_BASE = "b479e2692543d54bf249438e0ddfffff066e3e96028471e88f9b07b42fb68545"

# (family, width) -> ((expansion, compilation, optimization), digest)
_RECORD = {
    ("masked", 4): ((306, 187, 111), _W4),
    ("masked", 8): ((327, 188, 89), _W8),
    ("avx-like", 4): ((306, 187, 111), _W4),
    ("avx-like", 8): ((327, 188, 89), _W8),
}


def _counts(ruleset) -> tuple:
    return (
        len(ruleset.expansion),
        len(ruleset.compilation),
        len(ruleset.optimization),
    )


def _digest(ruleset) -> str:
    text = "".join(
        rules_to_text(list(phase))
        for phase in (
            ruleset.expansion, ruleset.compilation, ruleset.optimization
        )
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize(
    "family,width", sorted(_RECORD), ids=lambda v: str(v)
)
def test_family_bootstrap_record(family, width, family_compilers):
    ruleset = family_compilers(family, width).ruleset
    counts, digest = _RECORD[family, width]
    assert _counts(ruleset) == counts
    assert _digest(ruleset) == digest


def test_default_compiler_record():
    ruleset = default_compiler().ruleset
    assert _counts(ruleset) == (315, 216, 124)
    assert _digest(ruleset) == _BASE
