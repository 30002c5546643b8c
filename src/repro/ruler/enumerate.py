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
walks.  The largest term size — where candidate counts explode — can
additionally be sharded across ``repro.bench.parallel`` workers,
partitioned by root operator and merged deterministically.
``tests/cvec_oracle.py`` keeps the per-environment interpreter path
this replaced, and the differential tests hold both to the same pools
and pairs.

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

# Sharding the final size across processes only pays once the
# candidate count dwarfs the cost of shipping the pool to workers.
_SHARD_MIN_CANDIDATES = 20_000


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
    jobs: int | None = None,
    perf: SynthesisPerf | None = None,
) -> EnumerationResult:
    """Enumerate single-lane terms of up to ``max_size`` nodes.

    ``deadline`` is an absolute ``time.monotonic()`` cutoff; hitting it
    aborts enumeration — including mid-size — with whatever has been
    found (the Fig. 7 budget behaviour).  ``jobs`` controls sharding of
    the largest size: ``None`` shards automatically when the estimated
    candidate count warrants it, ``1`` forbids it, and ``>1`` forces it
    with at most that many workers.  ``perf`` collects hot-path
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
        if _should_shard(size, max_size, ops, by_size, jobs):
            aborted = _enumerate_size_sharded(
                size, ops, by_size, pool, evaluator, result, deadline,
                interpreter, cvec_spec,
            )
        else:
            aborted = _enumerate_size_serial(
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


def _enumerate_size_serial(
    size: int,
    ops: list,
    by_size: dict,
    pool: dict,
    evaluator: CvecEvaluator,
    result: EnumerationResult,
    deadline: float | None,
    interpreter: Interpreter,
) -> bool:
    """One size's candidates, in-process.  Returns True on abort."""
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


# -- sharded final size --------------------------------------------------


def _estimated_candidates(size: int, ops: list, by_size: dict) -> int:
    """How many candidate terms the size will construct (exact count)."""
    total = 0
    for instr in ops:
        budget = size - 1
        if budget < instr.arity:
            continue
        for sizes in _compositions(budget, instr.arity):
            combos = 1
            for s in sizes:
                combos *= len(by_size.get(s, ()))
            total += combos
    return total


def _should_shard(
    size: int, max_size: int, ops: list, by_size: dict, jobs: int | None
) -> bool:
    """Shard only the largest size, and only when it pays for itself."""
    if size != max_size or len(ops) < 2:
        return False
    if jobs is not None and jobs <= 1:
        return False
    from repro.bench.parallel import parallel_workers

    if parallel_workers(jobs) <= 1:
        return False
    if jobs is not None:
        return True  # explicit request
    return _estimated_candidates(size, ops, by_size) >= _SHARD_MIN_CANDIDATES


class _ShardTask:
    """Picklable enumeration of one root op at the sharded size.

    Workers pair candidates against the pre-existing pool (``known``)
    exactly as the serial loop would, and report first-discovery
    groups for fingerprints the pool has not seen; the merge step
    resolves cross-shard groups in sorted-op order, reproducing the
    serial pool assignment.
    """

    __slots__ = (
        "_interp", "_envs", "_op", "_arity", "_by_size", "_size",
        "_known", "_remaining",
    )

    def __init__(
        self,
        interpreter: Interpreter,
        envs: tuple,
        op: str,
        arity: int,
        by_size: dict,
        size: int,
        known: dict,
        remaining: float | None,
    ):
        self._interp = interpreter
        self._envs = envs
        self._op = op
        self._arity = arity
        self._by_size = by_size  # size -> [Term, ...] (pool terms only)
        self._size = size
        self._known = known  # fingerprint tuple -> representative Term
        self._remaining = remaining

    def __call__(self) -> tuple:
        """Enumerate this op's candidates; see module merge contract."""
        perf = SynthesisPerf()
        evaluator = CvecEvaluator(self._interp, self._envs, perf=perf)
        deadline = (
            time.monotonic() + self._remaining
            if self._remaining is not None
            else None
        )
        entries = {
            s: [(t, evaluator.row_of(t)) for t in terms]
            for s, terms in self._by_size.items()
        }
        known = self._known
        fn = self._interp.lane_fn(self._op)
        groups: dict[tuple, list] = {}  # fingerprint -> [terms]
        order: list[tuple] = []
        pairs: list[tuple] = []
        n_enumerated = 0
        aborted = False
        for sizes in _compositions(self._size - 1, self._arity):
            pools = [entries.get(s, ()) for s in sizes]
            if any(not pool_s for pool_s in pools):
                continue
            for children in itertools.product(*pools):
                if deadline is not None and time.monotonic() > deadline:
                    aborted = True
                    break
                term = T.make(self._op, *(c[0] for c in children))
                n_enumerated += 1
                rows = tuple(c[1] for c in children)
                if fn is not None:
                    row = evaluator.apply_lane_fn(fn, rows)
                else:
                    row = evaluator.combine(term, rows)
                perf.cvec_cache_hits += self._arity
                fingerprint = evaluator.fingerprint_of(row)
                if fingerprint is None:
                    continue
                rep = known.get(fingerprint)
                if rep is not None:
                    perf.fingerprint_collisions += 1
                    if rep != term:
                        pairs.append((rep, term))
                    continue
                group = groups.get(fingerprint)
                if group is None:
                    groups[fingerprint] = [term]
                    order.append(fingerprint)
                else:
                    perf.fingerprint_collisions += 1
                    group.append(term)
            if aborted:
                break
        news = [(fp, groups[fp]) for fp in order]
        return news, pairs, n_enumerated, perf, aborted


def _run_shard(task: _ShardTask) -> tuple:
    """Module-level trampoline so shard tasks pickle by reference."""
    return task()


def _enumerate_size_sharded(
    size: int,
    ops: list,
    by_size: dict,
    pool: dict,
    evaluator: CvecEvaluator,
    result: EnumerationResult,
    deadline: float | None,
    interpreter: Interpreter,
    cvec_spec: CvecSpec,
) -> bool:
    """The largest size fanned out across workers, one op per shard.

    Shards are merged in sorted-op order — the order the serial loop
    visits ops — so the surviving pool, pairs and counts are identical
    to a serial run (pair *ordering* may interleave differently, which
    downstream candidate sorting makes irrelevant).  Returns True when
    any shard hit the deadline.
    """
    from repro.bench.parallel import parallel_map

    perf = evaluator.perf
    known = {
        evaluator.fingerprint(fid): rep for fid, rep in pool.items()
    }
    plain_by_size = {
        s: [t for t, _ in entries] for s, entries in by_size.items()
        if entries
    }
    remaining = (
        max(0.0, deadline - time.monotonic()) if deadline is not None
        else None
    )
    tasks = [
        _ShardTask(
            interpreter, cvec_spec.envs, instr.name, instr.arity,
            plain_by_size, size, known, remaining,
        )
        for instr in ops
        if size - 1 >= instr.arity
    ]
    perf.enumeration_shards += len(tasks)
    outputs = parallel_map(_run_shard, tasks)

    by_size[size] = []  # final size: rows never needed again
    aborted = False
    for news, pairs, n_enumerated, shard_perf, shard_aborted in outputs:
        result.n_enumerated += n_enumerated
        aborted = aborted or shard_aborted
        shard_perf.enumeration_shards = 0  # already counted here
        perf.merge(shard_perf)
        for rep, term in pairs:
            result.pairs.append((rep, term))
        for fingerprint, terms in news:
            fid = evaluator.intern(fingerprint)
            rep = pool.get(fid)
            if rep is None:
                rep = terms[0]
                pool[fid] = rep
                terms = terms[1:]
            for term in terms:
                if rep != term:
                    result.pairs.append((rep, term))
    return aborted


def _compositions(total: int, parts: int):
    """All orderings of ``parts`` positive ints summing to ``total``."""
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest
