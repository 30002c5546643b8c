"""Runtime values for the DSL interpreter.

A value is one of:

- a *scalar*: an ``int``, ``float``, or ``fractions.Fraction``.  An
  exact rational is an ``int`` when it is integral and a ``Fraction``
  only when it is not (:func:`exact_value`): that is how every sample
  grid binds its values, so integer arithmetic, the common case, runs
  in C rather than through ``Fraction``'s pure-Python operators;
- a *vector*: a tuple of scalars (one per lane);
- :data:`UNDEFINED`: the result of an undefined operation (division by
  zero, square root of a negative).

Undefinedness propagates: any operation with an undefined input is
undefined, and a vector with an undefined lane is collapsed to
:data:`UNDEFINED`.  Rule synthesis compares values *including*
undefinedness, which is what keeps candidate rules like
``(/ (* a b) b) => a`` from being accepted (the sides disagree at
``b = 0``).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union


class _Undefined:
    """Singleton marker for undefined results."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "UNDEFINED"

    def __bool__(self) -> bool:
        return False


UNDEFINED = _Undefined()

Scalar = Union[int, float, Fraction]
Value = Union[Scalar, tuple, _Undefined]

# Tolerance for float comparison.  Exact (Fraction/int) values compare
# exactly; floats compare with a relative tolerance because rewriting
# may legitimately reassociate float arithmetic.
_REL_TOL = 1e-9
_ABS_TOL = 1e-9


def is_scalar(value: Value) -> bool:
    """True for numeric scalars (bool excluded)."""
    return isinstance(value, (int, float, Fraction)) and not isinstance(
        value, bool
    )


def is_vector(value: Value) -> bool:
    """True for vector values (tuples of lanes)."""
    return isinstance(value, tuple)


def exact_value(value: Fraction) -> int | Fraction:
    """``value`` as an exact scalar: its numerator ``int`` when it is
    integral, else the ``Fraction`` itself."""
    return value.numerator if value.denominator == 1 else value


def _scalars_equal(a: Scalar, b: Scalar) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        fa, fb = float(a), float(b)
        if math.isnan(fa) or math.isnan(fb):
            return math.isnan(fa) and math.isnan(fb)
        return math.isclose(fa, fb, rel_tol=_REL_TOL, abs_tol=_ABS_TOL)
    return a == b


def values_equal(a: Value, b: Value) -> bool:
    """Semantic equality of two values, undefinedness included.

    Recurses through tuples so it also compares ``List`` results
    (tuples of vectors), not just flat vectors.  Exactly equal values
    agree, so ``a == b`` (one comparison, made in C for a vector or
    ``List`` of floats) answers first; the lane walk, with its float
    tolerance and nan matching nan, runs only for values that are not
    exactly equal.  A nan is never ``==`` itself, so it reaches the walk.
    """
    if a == b:
        return True
    a_undef = a is UNDEFINED
    b_undef = b is UNDEFINED
    if a_undef or b_undef:
        return a_undef and b_undef
    if is_vector(a) != is_vector(b):
        return False
    if is_vector(a):
        if len(a) != len(b):
            return False
        return all(values_equal(x, y) for x, y in zip(a, b))
    return _scalars_equal(a, b)


def make_vector(lanes) -> Value:
    """Build a vector value, collapsing undefined lanes."""
    lanes = tuple(lanes)
    if any(lane is UNDEFINED for lane in lanes):
        return UNDEFINED
    return lanes
