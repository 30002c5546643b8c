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
pairs and counts.
"""

from __future__ import annotations

import itertools

from repro.interp.interpreter import Interpreter
from repro.interp.value import UNDEFINED
from repro.isa.spec import IsaSpec
from repro.lang import term as T
from repro.lang.term import Term
from repro.ruler.cvec import CvecSpec, _fingerprint_value
from repro.ruler.enumerate import EnumerationResult, _atoms, _compositions


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
        values.append(_fingerprint_value(value))
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
    per candidate, in-process (never sharded) and without a deadline."""
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
