"""A Tensilica-Fusion-G3-like base ISA specification.

This mirrors the 73-line Rosette ISA spec the paper reuses from
Diospyros (Table 1): scalar float arithmetic plus 4-wide lane-wise
vector instructions.  Semantics are total up to explicit undefinedness:
division by zero and square roots of negatives return ``None``, which
the interpreter propagates as UNDEFINED; rule synthesis compares
undefinedness exactly, so e.g. ``(/ (* a b) b) => a`` is rejected.

Cost calibration (abstract cycles; see DESIGN.md):

- scalar ops are ~10, making any still-scalar subterm expensive;
- vector ops are 1-3 — a vector instruction amortizes its lanes;
- building a ``Vec`` out of *computed* lanes costs ~1000/lane (there is
  no hardware instruction for it — each lane must be moved through a
  scalar register), while a ``Vec`` of plain values is cheap, and a
  contiguous run of ``Get``s is a single aligned vector load.

This calibration reproduces the cluster geometry of paper Fig. 8:
scalar<->scalar rules have aggregate cost in the tens with small
differential, vector<->vector rules have small aggregate, and
scalar->vector (compilation) rules have differential in the thousands.
"""

from __future__ import annotations

import math
from fractions import Fraction

from repro.isa.spec import Instruction, IsaSpec
from repro.lang.ops import OpKind


def _add(a, b):
    return a + b


def _sub(a, b):
    return a - b


def _mul(a, b):
    return a * b


def _div(a, b):
    if b == 0:
        return None
    # Exact samples are ints unless they are not integral, so two ints
    # are the common case: test them before the slow ABC isinstance
    # checks, and keep an exact quotient an int too.
    if type(a) is int and type(b) is int:
        return a // b if a % b == 0 else Fraction(a, b)
    if isinstance(a, Fraction) or isinstance(b, Fraction):
        return Fraction(a) / Fraction(b)
    if isinstance(a, int) and isinstance(b, int):
        return Fraction(a, b)
    return a / b


def _neg(a):
    return -a


def _sgn(a):
    if a > 0:
        return 1
    if a < 0:
        return -1
    return 0


def _sqrt(a):
    if a < 0:
        return None
    if isinstance(a, Fraction):
        # Stay exact for perfect squares of rationals; otherwise float.
        num, den = a.numerator, a.denominator
        rnum, rden = math.isqrt(num), math.isqrt(den)
        if rnum * rnum == num and rden * rden == den:
            return Fraction(rnum, rden)
        return math.sqrt(float(a))
    if isinstance(a, int):
        root = math.isqrt(a)
        return root if root * root == a else math.sqrt(a)
    return math.sqrt(a)


def _mac(c, a, b):
    return c + a * b


def fusion_g3_spec(vector_width: int = 4) -> IsaSpec:
    """The base DSP ISA used throughout the evaluation.

    ``vector_width`` defaults to the Fusion G3's 4 float lanes; other
    widths exercise the framework's width-generality (rule synthesis,
    lane generalization, lowering, and the machine model are all
    width-parametric — the direction the paper's future work points at
    with scalable vectors).
    """
    scalar = OpKind.SCALAR
    vector = OpKind.VECTOR
    instructions = (
        # Scalar unit.
        Instruction("+", 2, scalar, _add, 10.0, commutative=True),
        Instruction("-", 2, scalar, _sub, 10.0),
        Instruction("*", 2, scalar, _mul, 10.0, commutative=True, latency=2),
        Instruction("/", 2, scalar, _div, 12.0, latency=8),
        Instruction("neg", 1, scalar, _neg, 10.0),
        Instruction("sgn", 1, scalar, _sgn, 10.0),
        Instruction("sqrt", 1, scalar, _sqrt, 12.0, latency=10),
        Instruction("mac", 3, scalar, _mac, 12.0, latency=2),
        # 4-wide vector unit.
        Instruction(
            "VecAdd", 2, vector, _add, 1.0, vector_of="+", commutative=True
        ),
        Instruction("VecMinus", 2, vector, _sub, 1.0, vector_of="-"),
        Instruction(
            "VecMul",
            2,
            vector,
            _mul,
            1.0,
            vector_of="*",
            commutative=True,
            latency=2,
        ),
        Instruction("VecDiv", 2, vector, _div, 3.0, vector_of="/", latency=8),
        Instruction("VecNeg", 1, vector, _neg, 1.0, vector_of="neg"),
        Instruction("VecSgn", 1, vector, _sgn, 1.0, vector_of="sgn"),
        Instruction(
            "VecSqrt", 1, vector, _sqrt, 3.0, vector_of="sqrt", latency=10
        ),
        Instruction(
            "VecMAC", 3, vector, _mac, 1.0, vector_of="mac", latency=2
        ),
    )
    name = "fusion-g3"
    if vector_width != 4:
        name = f"fusion-g3-w{vector_width}"
    return IsaSpec(
        name=name,
        vector_width=vector_width,
        instructions=instructions,
    )
