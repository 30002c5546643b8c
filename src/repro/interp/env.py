"""Environments and input generation for term evaluation.

An :class:`Env` binds scalar variable names and ``(array, index)``
pairs to scalar values.  Rule synthesis needs many environments per
term; :func:`sample_envs` mixes structured corner cases (zeros, ones,
negatives — the inputs that expose unsound identities) with seeded
random values, mirroring Ruler's characteristic-vector inputs.

Exact values are rationals bound as :func:`~repro.interp.value.exact_value`
gives them: an ``int`` when integral, a ``Fraction`` otherwise.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from typing import Iterable, Sequence

from repro.interp.value import exact_value
from repro.lang import term as T
from repro.lang.term import Term

Env = dict


def env_variables(term: Term) -> tuple[tuple[str, ...], tuple[tuple, ...]]:
    """The scalar symbols and Get atoms that ``term`` reads.

    Returns ``(symbols, gets)`` in first-occurrence order.
    """
    symbols: dict[str, None] = {}
    gets: dict[tuple, None] = {}
    for sub in T.subterms(term):
        if T.is_symbol(sub):
            symbols.setdefault(sub.payload, None)
        elif T.is_get(sub):
            gets.setdefault(sub.payload, None)
    return tuple(symbols), tuple(gets)


def term_inputs(term: Term) -> tuple:
    """All input atoms of ``term``: symbol names then Get payloads."""
    symbols, gets = env_variables(term)
    return symbols + gets


# Corner values that expose the classic unsound candidates: absorbing
# zeros, identity ones, sign flips, a non-unit magnitude and a
# non-integral rational.  The integral ones are ``int``s, so arithmetic
# on them stays in C; only ``1/2`` is a ``Fraction``.
CORNER_VALUES: tuple[int | Fraction, ...] = (0, 1, -1, 2, -3, Fraction(1, 2))


def random_env(
    inputs: Sequence, rng: random.Random, exact: bool = True
) -> Env:
    """One random environment for the given input atoms.

    With ``exact`` (the default) values are small random rationals so
    arithmetic identities can be checked without float noise: an
    ``int`` when the draw is integral (about two in three), else a
    ``Fraction``.
    """
    env: Env = {}
    for atom in inputs:
        if exact:
            num = rng.randint(-8, 8)
            den = rng.choice((1, 1, 1, 2, 3, 4))
            env[atom] = exact_value(Fraction(num, den))
        else:
            env[atom] = rng.uniform(-10.0, 10.0)
    return env


def corner_envs(
    inputs: Sequence,
    limit: int = 64,
    values: Sequence = CORNER_VALUES,
) -> list[Env]:
    """Environments drawn from the cartesian product of corner values.

    For few inputs this is exhaustive over the corner set; for many it
    is truncated to ``limit`` deterministic combinations.  ``values``
    replaces the corner set (rule verification appends a rule's own
    constants).
    """
    envs: list[Env] = []
    for combo in itertools.islice(
        itertools.product(values, repeat=len(inputs)), limit
    ):
        envs.append(dict(zip(inputs, combo)))
    return envs


def sample_envs(
    inputs: Sequence,
    n_random: int = 24,
    seed: int = 0,
    corner_limit: int = 64,
    corner_values: Sequence = CORNER_VALUES,
) -> list[Env]:
    """Corner-case environments followed by seeded random ones."""
    rng = random.Random(seed)
    envs = corner_envs(inputs, limit=corner_limit, values=corner_values)
    envs.extend(random_env(inputs, rng) for _ in range(n_random))
    return envs


def merge_envs(envs: Iterable[Env]) -> Env:
    """Union of several environments (later bindings win)."""
    merged: Env = {}
    for env in envs:
        merged.update(env)
    return merged
