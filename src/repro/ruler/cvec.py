"""Characteristic vectors: behavioural fingerprints of terms.

A term's *cvec* is the tuple of its values on a fixed sequence of
environments.  Two terms with equal cvecs are candidate-equivalent
(Ruler's test-based filtering); verification then establishes actual
soundness.  Environments mix corner cases (zeros, ones, sign flips)
with seeded random rationals, evaluated exactly so algebraic identities
fingerprint identically; the few irrational-producing ops (sqrt) yield
floats, which are rounded for fingerprint stability.

:class:`CvecEvaluator` computes cvecs *structure-of-arrays*: it
caches every pool term's raw value row (one value per environment)
and computes a new term's row with a **single** application of its
root lane function across all environments over the children's cached
rows — O(envs) per candidate instead of O(nodes × envs).  Fingerprints
are interned to small ints for fast pool lookups.

A fingerprint is a tuple of per-environment *keys*
(:func:`fingerprint_key`) that hash and compare in C.  An integral
value keys as its ``int``, any other rational as the tagged triple
``("q", numerator, denominator)`` in lowest terms, and a float is
rounded to 9 places and then keyed exactly by its integer ratio, so
``0.5`` keys like ``Fraction(1, 2)`` and ``-0.0`` like ``0`` (nan and
±inf stay floats).  The tag keeps a rational apart from the 2-lane
vector ``(numerator, denominator)``, which keys as itself.  Keys are
equal exactly when the ``Fraction`` keys used before them were
(``tests/test_fingerprint_keys.py``), so interning order, pools and
pairs are unchanged, but no lookup runs ``Fraction``'s pure-Python
``__hash__`` or ``__eq__``.

The row combination performs exactly the arithmetic of one tree
interpretation per environment, so fingerprints agree with that
historical path; ``tests/cvec_oracle.py`` keeps it, and
``tests/test_cvec_differential.py`` fuzzes the invariant across the
bundled ISAs.

:func:`side_values` pairs two terms' rows environment by environment.
Rule verification and the compiler's translation validation both check
through it, on the rule's sample grid and on a compile's random
samples respectively.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from repro.interp.env import CORNER_VALUES, sample_envs
from repro.interp.interpreter import Interpreter
from repro.interp.value import UNDEFINED
from repro.lang.ops import CONST, GET, SYMBOL, OpKind
from repro.lang.term import Term


@dataclass(frozen=True)
class CvecSpec:
    """The shared evaluation grid for one synthesis run."""

    variables: tuple[str, ...]
    envs: tuple[dict, ...]

    @staticmethod
    def make(
        variables: tuple[str, ...],
        n_random: int = 24,
        seed: int = 0,
        corner_limit: int = 64,
    ) -> "CvecSpec":
        """Build a spec: corner-case envs plus ``n_random`` seeded ones."""
        envs = sample_envs(
            variables, n_random=n_random, seed=seed, corner_limit=corner_limit
        )
        return CvecSpec(variables=tuple(variables), envs=tuple(envs))

    def __len__(self) -> int:
        return len(self.envs)


def fingerprint_key(value):
    """The exact, C-hashable fingerprint key of one value.

    ``"undef"`` for UNDEFINED; an ``int`` for an integral value; the
    tagged triple ``("q", numerator, denominator)`` for any other
    rational; a float is first rounded to 9 places (fingerprint
    stability for the irrational-producing ops) and then keyed exactly
    by its integer ratio, except nan and ±inf, which stay the rounded
    float.  A vector (or ``List``) value keys as itself.
    """
    if type(value) is int:
        return value
    if isinstance(value, Fraction):
        numerator, denominator = value.as_integer_ratio()
    elif value is UNDEFINED:
        return "undef"
    elif isinstance(value, float):
        value = round(value, 9)
        if not math.isfinite(value):
            return value
        numerator, denominator = value.as_integer_ratio()
    elif isinstance(value, int):
        return int(value)
    else:
        return value
    if denominator == 1:
        return numerator
    return ("q", numerator, denominator)


def _lanewise(fn, args: tuple):
    """``fn`` applied lane by lane to ``args`` when they are all vectors
    of one width (a lane that yields None or UNDEFINED collapses the
    vector to UNDEFINED, as :func:`~repro.interp.value.make_vector`
    does); None for any other mix of arguments."""
    first = args[0]
    if not isinstance(first, tuple):
        return None
    width = len(first)
    for a in args:
        if not isinstance(a, tuple) or len(a) != width:
            return None
    lanes = tuple(map(fn, *args))
    for lane in lanes:
        if lane is None or lane is UNDEFINED:
            return UNDEFINED
    return lanes


class CvecEvaluator:
    """Batched, caching cvec evaluation over a fixed environment grid.

    Values are stored as *rows*: one raw (un-fingerprinted) value per
    environment, structure-of-arrays style.  Because rows hold the raw
    interpreter values, combining cached child rows with one root-op
    application performs exactly the arithmetic the tree interpreter
    would — the cvecs equal per-environment tree walks by construction.

    The evaluator also interns fingerprints to dense small ints so the
    enumeration pool and candidate bookkeeping hash an int instead of
    an ~88-element tuple on every lookup.  The one hash that interning
    does per fingerprint runs in C: a scalar keys as an ``int``, a
    tagged ``("q", numerator, denominator)`` triple, ``"undef"`` or a
    nan/inf float, never as a ``Fraction`` (see :func:`fingerprint_key`;
    the tag keeps a rational's key from equalling a 2-lane vector's).
    Counters go to ``perf`` (a :class:`repro.ruler.stats.SynthesisPerf`).
    """

    __slots__ = ("_interp", "envs", "_rows", "_ids", "_fingerprints", "perf")

    def __init__(self, interpreter: Interpreter, envs, perf=None):
        from repro.ruler.stats import SynthesisPerf

        self._interp = interpreter
        self.envs = tuple(envs)
        self._rows: dict[Term, tuple] = {}
        self._ids: dict[tuple, int] = {}
        self._fingerprints: list[tuple] = []
        self.perf = perf if perf is not None else SynthesisPerf()

    # -- raw value rows --------------------------------------------------

    def row_of(self, term: Term) -> tuple:
        """The term's raw value row, cached (one DAG walk, not one per
        environment)."""
        rows = self._rows
        cached = rows.get(term)
        if cached is not None:
            self.perf.cvec_cache_hits += 1
            return cached
        stack = [term]
        while stack:
            t = stack[-1]
            if t in rows:
                stack.pop()
                continue
            pending = [a for a in t.args if a not in rows]
            if pending:
                stack.extend(pending)
                continue
            stack.pop()
            rows[t] = self.combine(t, tuple(rows[a] for a in t.args))
            self.perf.cvec_cache_misses += 1
        return rows[term]

    def remember(self, term: Term, row: tuple) -> None:
        """Cache ``row`` as ``term``'s value row (for accepted pool
        terms, so later candidates combine it in O(envs))."""
        self._rows[term] = row

    def combine(self, term: Term, child_rows: tuple) -> tuple:
        """``term``'s row from its children's rows — one batched
        application of the root operator.

        Rows are built vector-natively: ``Symbol``/``Get`` leaves read
        the grid directly, ``Vec`` packs its lane rows, and a lane
        function applies across the grid — to scalar arguments
        directly and, for a vector instruction, lane-wise in place to
        equal-width vector arguments.  Everything else (``Concat``,
        ``List``, a missing binding, UNDEFINED or mismatched arguments)
        takes the interpreter's single-node semantics per environment,
        so every value and every :class:`EvalError` is the tree
        interpreter's.
        """
        self.perf.batched_evals += 1
        op = term.op
        if not term.args:
            if op == CONST:
                return (term.payload,) * len(self.envs)
            if op == SYMBOL or op == GET:
                key = term.payload
                try:
                    return tuple([env[key] for env in self.envs])
                except KeyError:
                    pass  # unbound here: the interpreter's lookup
        elif op == "Vec":
            return self._vec_row(term, child_rows)
        elif op != "Concat" and op != "List":
            interp = self._interp
            fn = interp.lane_fn(op)
            if fn is not None:
                lanewise = interp.op_kind(op) is OpKind.VECTOR
                return self._apply(term, fn, child_rows, lanewise)
        # Structural op or leaf: exact per-env node semantics.
        evaluate_node = self._interp.evaluate_node
        if child_rows:
            arg_iter = zip(*child_rows)
        else:
            arg_iter = (() for _ in self.envs)
        return tuple(
            evaluate_node(term, args, env)
            for env, args in zip(self.envs, arg_iter)
        )

    def _vec_row(self, term: Term, child_rows: tuple) -> tuple:
        """A ``Vec`` row: each environment's defined scalar lanes are
        its vector; an UNDEFINED lane (checked first) or a vector lane
        takes the interpreter's node semantics."""
        evaluate_node = self._interp.evaluate_node
        out = []
        append = out.append
        for lanes in zip(*child_rows):
            for lane in lanes:
                if lane is UNDEFINED or isinstance(lane, tuple):
                    append(evaluate_node(term, lanes, None))
                    break
            else:
                append(lanes)
        return tuple(out)

    def apply_lane_fn(self, fn, child_rows: tuple) -> tuple:
        """One lane function applied across the grid (the enumeration
        hot loop).

        Caller guarantees the rows hold only scalars (true for every
        enumeration grid — ``sample_envs`` binds scalars and lane
        functions return scalars); :meth:`combine` is the general
        entry point when vectors may appear.
        """
        self.perf.batched_evals += 1
        out = []
        append = out.append
        if len(child_rows) == 1:
            for a in child_rows[0]:
                if a is UNDEFINED:
                    append(UNDEFINED)
                else:
                    r = fn(a)
                    append(UNDEFINED if r is None else r)
        elif len(child_rows) == 2:
            for a, b in zip(child_rows[0], child_rows[1]):
                if a is UNDEFINED or b is UNDEFINED:
                    append(UNDEFINED)
                else:
                    r = fn(a, b)
                    append(UNDEFINED if r is None else r)
        else:
            for args in zip(*child_rows):
                if any(a is UNDEFINED for a in args):
                    append(UNDEFINED)
                else:
                    r = fn(*args)
                    append(UNDEFINED if r is None else r)
        return tuple(out)

    def _apply(
        self, term: Term, fn, child_rows: tuple, lanewise: bool
    ) -> tuple:
        """Lane-function application across the grid.

        Defined scalar arguments apply ``fn`` directly.  With
        ``lanewise`` (a vector instruction), arguments that are all
        vectors of one width apply ``fn`` lane by lane, a None lane
        collapsing the vector to UNDEFINED.  Any other mix — an
        UNDEFINED argument, a vector argument of a scalar op, mixed or
        mismatched widths — takes the interpreter's node semantics
        (UNDEFINED, or its EvalError), which never consult the env for
        interior nodes.
        """
        evaluate_node = self._interp.evaluate_node
        out = []
        append = out.append
        for args in zip(*child_rows):
            for a in args:
                if a is UNDEFINED or isinstance(a, tuple):
                    break
            else:
                r = fn(*args)
                append(UNDEFINED if r is None else r)
                continue
            if lanewise:
                vector = _lanewise(fn, args)
                if vector is not None:
                    append(vector)
                    continue
            append(evaluate_node(term, args, None))
        return tuple(out)

    # -- fingerprints ----------------------------------------------------

    def fingerprint_of(self, row: tuple) -> tuple | None:
        """The row's fingerprint tuple (one :func:`fingerprint_key`
        per environment), or None if undefined everywhere.

        All-undefined terms (e.g. ``(sqrt -1)``-like) carry no usable
        signal and are discarded by enumeration.
        """
        for value in row:
            if value is not UNDEFINED:
                return tuple(map(fingerprint_key, row))
        return None

    def intern(self, fingerprint: tuple) -> int:
        """The small-int id of ``fingerprint`` (stable per evaluator).

        A repeat fingerprint — a *collision*, the event that makes two
        terms candidate-equivalent — is counted in
        ``perf.fingerprint_collisions``.
        """
        ids = self._ids
        fid = ids.get(fingerprint)
        if fid is None:
            fid = len(self._fingerprints)
            ids[fingerprint] = fid
            self._fingerprints.append(fingerprint)
            self.perf.interned_fingerprints += 1
        else:
            self.perf.fingerprint_collisions += 1
        return fid

    def fingerprint(self, fid: int) -> tuple:
        """The fingerprint tuple interned as ``fid``."""
        return self._fingerprints[fid]

    def cvec_id(self, term: Term) -> int | None:
        """The term's interned cvec id (None if undefined everywhere).

        The term's row is computed (and cached) with one DAG walk.
        """
        fingerprint = self.fingerprint_of(self.row_of(term))
        if fingerprint is None:
            return None
        return self.intern(fingerprint)


def side_values(evaluator: CvecEvaluator, left: Term, right: Term):
    """``(env, left value, right value)`` over the evaluator's grid, in
    order.

    Both terms evaluate as rows on the one evaluator, so their shared
    leaves and subterms are computed once.  When batched evaluation
    raises, the per-environment loop (one tree interpretation of each
    term per environment, left first) runs instead.  It yields lazily,
    so a caller that stops at a mismatch in an earlier environment
    than the failing one ends exactly as that loop always did, and one
    that gets there sees the loop's own exception.  Rows cached before
    a failing node stay valid for later calls.  The path taken is
    counted on ``evaluator.perf``.
    """
    envs = evaluator.envs
    perf = evaluator.perf
    try:
        rows = evaluator.row_of(left), evaluator.row_of(right)
    except Exception:
        # Whatever the grid raised, the loop below raises it again at
        # the environment the per-environment order reaches it, unless
        # a mismatch comes first.
        pass
    else:
        perf.verify_batched_terms += 2
        return zip(envs, *rows)
    perf.verify_legacy_terms += 2
    evaluate = evaluator._interp.evaluate
    return (
        (env, evaluate(left, env), evaluate(right, env)) for env in envs
    )


class GridCache:
    """The sample grids of one checking pass, one per check signature.

    Every soundness check draws its environments from its signature
    alone — the check kind, the sorted wildcard names (and kinds), the
    sample count and a fixed seed — so all checks that share a
    signature already fuzz the same inputs.  The cache hands them one
    :class:`CvecEvaluator` over that grid, and each distinct subterm
    row is computed once per pass instead of once per rule.  Rows hold
    raw interpreter values, so a row is the same whichever check
    computes it first.

    A cache belongs to one pass over one interpreter.  :meth:`clear`
    frees its rows.
    """

    __slots__ = ("interpreter", "_evaluators")

    def __init__(self, interpreter: Interpreter):
        self.interpreter = interpreter
        self._evaluators: dict[tuple, CvecEvaluator] = {}

    def __len__(self) -> int:
        return len(self._evaluators)

    def evaluator(self, key: tuple, make_envs, perf=None) -> CvecEvaluator:
        """The evaluator over ``key``'s grid, drawn by ``make_envs()``
        on first use.  Its counters go to ``perf``, the caller's
        block, whichever caller drew the grid."""
        from repro.ruler.stats import SynthesisPerf

        evaluator = self._evaluators.get(key)
        if evaluator is None:
            evaluator = CvecEvaluator(self.interpreter, make_envs())
            self._evaluators[key] = evaluator
        evaluator.perf = perf if perf is not None else SynthesisPerf()
        return evaluator

    def samples(
        self, names: tuple, n_random: int, seed: int, perf=None,
        corners: tuple = (),
    ) -> CvecEvaluator:
        """The evaluator over ``sample_envs(names, n_random, seed)``,
        its corner values extended by ``corners``."""
        return self.evaluator(
            ("samples", names, n_random, seed, corners),
            lambda: sample_envs(
                names, n_random=n_random, seed=seed,
                corner_values=CORNER_VALUES + corners,
            ),
            perf,
        )

    def clear(self) -> None:
        """Drop every grid and its cached rows."""
        self._evaluators.clear()
