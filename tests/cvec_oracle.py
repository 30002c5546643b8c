"""Per-environment cvecs and enumeration, kept as differential oracles.

This is how rule synthesis fingerprinted terms before the batched
:class:`~repro.ruler.cvec.CvecEvaluator`: ``cvec_of`` interprets the
whole term tree once per environment of the grid, and
``oracle_enumerate_terms`` is ``enumerate_terms``'s bottom-up loop
built on it, one full tree interpretation per environment per
candidate.  Both are kept verbatim (minus the perf counters and the
deadline, which no differential test sets) so
``tests/test_cvec_differential.py`` can check that the product
fingerprints every term identically and enumerates the same pools,
pairs and counts.  They key values with the product's
:func:`~repro.ruler.cvec.fingerprint_key`, so their fingerprints
compare directly with the evaluator's.

``oracle_fingerprint_value`` is how a value was keyed before
fingerprint keys became exact integers and tagged integer triples:
integral values as ``Fraction``, other rationals as themselves, floats
rounded to 9 places.  ``tests/test_fingerprint_keys.py`` checks that
the product's keys are equal exactly when these are.

``oracle_sample_envs``, ``oracle_vector_envs`` and
``oracle_projection_envs`` draw the synthesis and verification grids
as they were drawn before integral samples became ``int``s: the same
RNG calls in the same order, every exact value a ``Fraction``.
``tests/test_integral_samples.py`` checks that the product's grids
hold the same numbers and that terms evaluate to the same values on
both.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from repro.interp.env import corner_envs
from repro.interp.interpreter import Interpreter
from repro.interp.value import UNDEFINED
from repro.isa.spec import IsaSpec
from repro.lang import term as T
from repro.lang.term import Term
from repro.ruler.cvec import CvecSpec, fingerprint_key
from repro.ruler.enumerate import EnumerationResult, _atoms, _compositions


def oracle_fingerprint_value(value):
    """A hashable, float-noise-tolerant key for one value."""
    if value is UNDEFINED:
        return "undef"
    if isinstance(value, float):
        if value == 0.0:
            return Fraction(0)
        return round(value, 9)
    if isinstance(value, Fraction) and value.denominator == 1:
        return Fraction(value)  # normalize int-valued entries
    if isinstance(value, int):
        return Fraction(value)
    return value


def cvec_of(
    term: Term, interpreter: Interpreter, spec: CvecSpec
) -> tuple | None:
    """The term's fingerprint, or None if undefined everywhere.

    All-undefined terms (e.g. ``(sqrt -1)``-like) carry no usable
    signal and are discarded by enumeration.
    """
    values = []
    any_defined = False
    for env in spec.envs:
        value = interpreter.evaluate(term, env)
        if value is not UNDEFINED:
            any_defined = True
        values.append(fingerprint_key(value))
    if not any_defined:
        return None
    return tuple(values)


def oracle_enumerate_terms(
    spec: IsaSpec,
    cvec_spec: CvecSpec,
    max_size: int = 5,
    constants: tuple = (0, 1),
) -> EnumerationResult:
    """``enumerate_terms`` with one tree interpretation per environment
    per candidate and without a deadline."""
    interpreter = spec.interpreter()
    ops = sorted(spec.instructions, key=lambda i: i.name)
    result = EnumerationResult()

    by_size: dict[int, list[Term]] = {1: []}
    for atom in _atoms(cvec_spec.variables, constants):
        cvec = cvec_of(atom, interpreter, cvec_spec)
        if cvec is None or cvec in result.representatives:
            continue
        result.representatives[cvec] = atom
        by_size[1].append(atom)
        result.n_enumerated += 1

    for size in range(2, max_size + 1):
        new_terms: list[Term] = []
        by_size[size] = new_terms
        for instr in ops:
            arity = instr.arity
            budget = size - 1
            if budget < arity:
                continue
            for sizes in _compositions(budget, arity):
                pools = [by_size.get(s, ()) for s in sizes]
                if any(not pool for pool in pools):
                    continue
                for children in itertools.product(*pools):
                    term = T.make(instr.name, *children)
                    result.n_enumerated += 1
                    cvec = cvec_of(term, interpreter, cvec_spec)
                    if cvec is None:
                        continue
                    rep = result.representatives.get(cvec)
                    if rep is None:
                        result.representatives[cvec] = term
                        new_terms.append(term)
                    elif rep != term:
                        result.pairs.append((rep, term))
    return result


ORACLE_CORNER_VALUES = (
    Fraction(0),
    Fraction(1),
    Fraction(-1),
    Fraction(2),
    Fraction(-3),
    Fraction(1, 2),
)


def oracle_sample_envs(
    inputs, n_random: int = 24, seed: int = 0, corner_limit: int = 64,
    corner_values=ORACLE_CORNER_VALUES,
) -> list:
    """``sample_envs`` with every value a ``Fraction``."""
    rng = random.Random(seed)
    envs = corner_envs(inputs, limit=corner_limit, values=corner_values)
    for _ in range(n_random):
        env = {}
        for atom in inputs:
            num = rng.randint(-8, 8)
            den = rng.choice((1, 1, 1, 2, 3, 4))
            env[atom] = Fraction(num, den)
        envs.append(env)
    return envs


def _oracle_lane(rng) -> Fraction:
    return Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3)))


def oracle_vector_envs(
    names: tuple, vectors: tuple, width: int, n_samples: int, seed: int
) -> list:
    """The full-width check's grid with every value a ``Fraction``."""
    rng = random.Random(seed)
    envs = []
    for _ in range(n_samples):
        env = {}
        for name, vector in zip(names, vectors):
            if vector:
                env[name] = tuple(_oracle_lane(rng) for _ in range(width))
            else:
                env[name] = _oracle_lane(rng)
        envs.append(env)
    return envs


def oracle_projection_envs(
    names: tuple, vectors: tuple, width: int, seed: int, actives: list
) -> list:
    """The masked re-check's grid with every value a ``Fraction``."""
    rng = random.Random(seed ^ 0x6D61736B)  # "mask"
    envs = []
    for active in actives:
        env = {}
        for name, vector in zip(names, vectors):
            if vector:
                lanes = [_oracle_lane(rng) for _ in range(width)]
                for lane in range(active, width):
                    lanes[lane] = Fraction(rng.randint(-97, 97))
                env[name] = tuple(lanes)
            else:
                env[name] = _oracle_lane(rng)
        envs.append(env)
    return envs
