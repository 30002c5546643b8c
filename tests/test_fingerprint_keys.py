"""Fingerprint keys against the ``Fraction`` keys they replaced.

:func:`repro.ruler.cvec.fingerprint_key` keys a value as an ``int``, a
tagged integer triple, a rounded float (nan, ±inf) or the value itself
(a vector), so a fingerprint hashes and compares in C.  Interning,
pools and pairs stay unchanged only if two keys are equal exactly when
the old keys (``cvec_oracle.oracle_fingerprint_value``) were.  The
exact-equality fast path of ``values_equal`` is checked on the same
values.
"""

import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from cvec_oracle import oracle_fingerprint_value
from repro.interp.value import UNDEFINED, values_equal
from repro.ruler.cvec import fingerprint_key

_FRACTIONS = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
_SPECIAL_FLOATS = st.sampled_from([
    0.0, -0.0, float("nan"), float("inf"), float("-inf"),
    0.5, -2.0, 1e-12, -1e-12, 1 / 3, 0.333333333, 2.0000000001,
])
_SCALARS = st.one_of(
    st.integers(-4, 4),
    st.integers(),
    _FRACTIONS,
    # A float equal to a Fraction: every dyadic rational is one.
    _FRACTIONS.map(float),
    _SPECIAL_FLOATS,
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
)
_VALUES = st.one_of(
    _SCALARS,
    st.just(UNDEFINED),
    st.lists(_SCALARS, min_size=1, max_size=3).map(tuple),
    # A 2-lane vector of the ints a rational's key holds.
    st.tuples(st.integers(-6, 6), st.integers(1, 4)),
)


def _spellings(value) -> list:
    """Values that key like ``value`` or nearly so: the same number as
    another type, a float off by less than the rounding, a rational's
    numerator and denominator as a 2-lane vector, and back."""
    if value is UNDEFINED:
        return [value]
    if isinstance(value, tuple):
        out = [value, tuple(
            Fraction(lane) if math.isfinite(lane) else lane for lane in value
        )]
        if len(value) == 2 and type(value[0]) is type(value[1]) is int:
            if value[1] != 0:
                out.append(Fraction(*value))
        return out
    if not math.isfinite(value):
        return [value, float(value)]
    exact = Fraction(value)
    out = [value, exact, float(exact), float(exact) + 1e-12]
    if exact.denominator == 1:
        out.append(int(exact))
    else:
        out.append((exact.numerator, exact.denominator))
    if exact == 0:
        out.append(-0.0)
    return out


def _pair():
    """Two values, the second often a respelling of the first."""
    return _VALUES.flatmap(
        lambda a: st.tuples(
            st.just(a), st.one_of(st.sampled_from(_spellings(a)), _VALUES)
        )
    )


def _hashes_in_c(key) -> bool:
    """True for the key kinds a scalar may take: no ``Fraction``."""
    if isinstance(key, tuple):
        return (
            len(key) == 3 and key[0] == "q"
            and all(type(part) is int for part in key[1:])
        )
    return type(key) in (int, float, str)


class TestFingerprintKeys:
    @settings(max_examples=600, deadline=None)
    @given(_pair())
    def test_keys_equal_iff_oracle_keys_equal(self, pair):
        a, b = pair
        new_a, new_b = fingerprint_key(a), fingerprint_key(b)
        old_a, old_b = oracle_fingerprint_value(a), oracle_fingerprint_value(b)
        assert (new_a == new_b) == (old_a == old_b)
        # As fingerprint elements: tuple comparison, identity first.
        assert ((new_a,) == (new_b,)) == ((old_a,) == (old_b,))

    @settings(max_examples=400, deadline=None)
    @given(_pair())
    def test_equal_keys_hash_equal(self, pair):
        a, b = pair
        new_a, new_b = fingerprint_key(a), fingerprint_key(b)
        if new_a == new_b:
            assert hash(new_a) == hash(new_b)

    @settings(max_examples=200, deadline=None)
    @given(_SCALARS)
    def test_scalar_keys_hold_no_fraction(self, value):
        assert _hashes_in_c(fingerprint_key(value))

    @settings(max_examples=400, deadline=None)
    @given(_pair())
    def test_exactly_equal_values_agree(self, pair):
        a, b = pair
        if a == b:
            assert values_equal(a, b)

    def test_tag_keeps_rationals_apart_from_pairs(self):
        assert fingerprint_key(Fraction(1, 2)) == ("q", 1, 2)
        assert fingerprint_key((1, 2)) == (1, 2)
        assert fingerprint_key(Fraction(1, 2)) != fingerprint_key((1, 2))

    def test_spellings_of_one_value_share_a_key(self):
        assert fingerprint_key(0.5) == fingerprint_key(Fraction(1, 2))
        assert fingerprint_key(Fraction(6, 3)) == fingerprint_key(2.0) == 2
        assert fingerprint_key(-0.0) == fingerprint_key(0.0) == 0
        assert fingerprint_key(True) == 1
        assert fingerprint_key(UNDEFINED) == "undef"
