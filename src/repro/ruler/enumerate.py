"""Bottom-up term enumeration deduplicated by characteristic vector.

Enumerates terms over the *single-lane reduction* of the ISA: vector
instructions participate as ordinary scalar operators (paper §3.1's
key trick), so per-lane algebra is discovered once instead of per lane
and per lane combination.

The pool keeps exactly one representative term per cvec (the first,
therefore smallest, one found).  A newly enumerated term whose cvec is
already present contributes a *candidate pair* instead of growing the
pool — this mirrors how Ruler's e-graph collapses equivalent terms and
is what keeps enumeration from exploding.

Hot path (the offline stage's dominant cost, paper §5/Fig. 7): every
pool term's raw value row is cached in a :class:`CvecEvaluator`, so a
new candidate's cvec is one application of its root lane function
across all environments — O(envs) instead of O(nodes × envs) tree
walks.  ``tests/cvec_oracle.py`` keeps the per-environment interpreter
path this replaced, and the differential tests hold both to the same
pools and pairs.

The ``deadline`` budget is checked per candidate, so enumeration
aborts *mid-size* (not just between sizes) and ``aborted=True``
accurately reflects a partial pool.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field

from repro.interp.interpreter import Interpreter
from repro.isa.spec import IsaSpec
from repro.lang import builders as B
from repro.lang import term as T
from repro.lang.term import Term
from repro.ruler.cvec import CvecEvaluator, CvecSpec
from repro.ruler.stats import SynthesisPerf


@dataclass
class EnumerationResult:
    """Pool of representatives plus cvec-equal candidate pairs."""

    representatives: dict = field(default_factory=dict)  # cvec -> Term
    pairs: list = field(default_factory=list)  # (rep, newcomer) Term pairs
    n_enumerated: int = 0
    aborted: bool = False  # hit the time budget
    perf: SynthesisPerf = field(default_factory=SynthesisPerf)

    @property
    def n_representatives(self) -> int:
        """How many distinct-cvec representative terms survived."""
        return len(self.representatives)


def _atoms(variables: tuple[str, ...], constants: tuple) -> list[Term]:
    atoms = [B.symbol(name) for name in variables]
    atoms.extend(B.const(value) for value in constants)
    return atoms


def _record_size(
    perf: SynthesisPerf, size: int, elapsed: float, n_terms: int, n_new: int
) -> None:
    """Accumulate one size's enumeration stats into ``perf``."""
    perf.per_size_times[size] = perf.per_size_times.get(size, 0.0) + elapsed
    perf.per_size_terms[size] = perf.per_size_terms.get(size, 0) + n_terms
    perf.per_size_new[size] = perf.per_size_new.get(size, 0) + n_new


def enumerate_terms(
    spec: IsaSpec,
    cvec_spec: CvecSpec,
    max_size: int = 5,
    constants: tuple = (0, 1),
    deadline: float | None = None,
    interpreter: Interpreter | None = None,
    op_allowlist: tuple | None = None,
    perf: SynthesisPerf | None = None,
) -> EnumerationResult:
    """Enumerate single-lane terms of up to ``max_size`` nodes.

    ``deadline`` is an absolute ``time.monotonic()`` cutoff; hitting it
    aborts enumeration — including mid-size — with whatever has been
    found (the Fig. 7 budget behaviour).  ``perf`` collects hot-path
    counters (a fresh block is created when omitted).
    """
    interpreter = interpreter or spec.interpreter()
    if perf is None:
        perf = SynthesisPerf()

    ops = sorted(spec.instructions, key=lambda i: i.name)
    if op_allowlist is not None:
        allowed = set(op_allowlist)
        ops = [instr for instr in ops if instr.name in allowed]

    evaluator = CvecEvaluator(interpreter, cvec_spec.envs, perf=perf)
    result = EnumerationResult(perf=perf)
    pool: dict[int, Term] = {}  # interned cvec id -> representative
    by_size: dict[int, list] = {1: []}  # size -> [(term, row), ...]

    t0 = time.monotonic()
    for atom in _atoms(cvec_spec.variables, constants):
        if deadline is not None and time.monotonic() > deadline:
            result.aborted = True
            break
        row = evaluator.row_of(atom)
        fingerprint = evaluator.fingerprint_of(row)
        if fingerprint is None:
            continue
        fid = evaluator.intern(fingerprint)
        if fid in pool:
            continue
        pool[fid] = atom
        by_size[1].append((atom, row))
        result.n_enumerated += 1
    _record_size(
        perf, 1, time.monotonic() - t0, result.n_enumerated, len(by_size[1])
    )

    for size in range(2, max_size + 1):
        if result.aborted:
            break
        t0 = time.monotonic()
        n_start, pool_start = result.n_enumerated, len(pool)
        aborted = _enumerate_size(
            size, ops, by_size, pool, evaluator, result, deadline,
            interpreter,
        )
        _record_size(
            perf, size, time.monotonic() - t0,
            result.n_enumerated - n_start, len(pool) - pool_start,
        )
        result.aborted = result.aborted or aborted

    result.representatives = {
        evaluator.fingerprint(fid): term for fid, term in pool.items()
    }
    return result


def _enumerate_size(
    size: int,
    ops: list,
    by_size: dict,
    pool: dict,
    evaluator: CvecEvaluator,
    result: EnumerationResult,
    deadline: float | None,
    interpreter: Interpreter,
) -> bool:
    """One size's candidates.  Returns True on abort."""
    perf = evaluator.perf
    new_entries: list[tuple] = []
    by_size[size] = new_entries
    budget = size - 1
    for instr in ops:
        arity = instr.arity
        if budget < arity:
            continue
        fn = interpreter.lane_fn(instr.name)
        for sizes in _compositions(budget, arity):
            pools = [by_size.get(s, ()) for s in sizes]
            if any(not pool_s for pool_s in pools):
                continue
            for children in itertools.product(*pools):
                if deadline is not None and time.monotonic() > deadline:
                    return True
                term = T.make(instr.name, *(c[0] for c in children))
                result.n_enumerated += 1
                rows = tuple(c[1] for c in children)
                if fn is not None:
                    row = evaluator.apply_lane_fn(fn, rows)
                else:
                    row = evaluator.combine(term, rows)
                perf.cvec_cache_hits += arity
                fingerprint = evaluator.fingerprint_of(row)
                if fingerprint is None:
                    continue
                fid = evaluator.intern(fingerprint)
                rep = pool.get(fid)
                if rep is None:
                    pool[fid] = term
                    new_entries.append((term, row))
                elif rep != term:
                    result.pairs.append((rep, term))
    return False


def _compositions(total: int, parts: int):
    """All orderings of ``parts`` positive ints summing to ``total``."""
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest
