"""The per-environment translation validator, kept as a differential
oracle.

This is ``GeneratedCompiler.validate_equivalence`` as it ran before
validation evaluated both terms as cvec rows: each of the samples is
drawn, then the source and the compiled term are each interpreted as
a separate tree walk in that environment, source first, and the first
environment whose values differ raises :class:`ValidationError`.  An
evaluation error propagates from the first environment that reaches
it.  It is kept verbatim so ``tests/test_validate_differential.py``
can check that the product validator gives the same outcome — None,
or the same exception type and message — on every input.
"""

from __future__ import annotations

import random

from repro.core.framework import ValidationError
from repro.interp.env import term_inputs
from repro.interp.value import values_equal
from repro.isa.spec import IsaSpec
from repro.lang.term import Term


def oracle_validate_equivalence(
    spec: IsaSpec,
    original: Term,
    compiled: Term,
    n_samples: int = 8,
    seed: int = 7,
) -> None:
    """Translation validation, one tree walk per term per sample."""
    interpreter = spec.interpreter()
    rng = random.Random(seed)
    inputs = sorted(
        set(term_inputs(original)) | set(term_inputs(compiled))
    )
    for _ in range(n_samples):
        env = {atom: rng.uniform(-3.0, 3.0) for atom in inputs}
        left = interpreter.evaluate(original, env)
        right = interpreter.evaluate(compiled, env)
        if not values_equal(left, right):
            raise ValidationError(
                f"compiled program differs from source on {env}: "
                f"{left!r} != {right!r}"
            )
