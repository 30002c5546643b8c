"""ISA specifications: Isaria's primary input.

An :class:`IsaSpec` is the executable specification of a target DSP
instruction set (paper §3, Fig. 2): each instruction carries a *lane
semantics* function and an abstract per-instruction cost.  The paper
writes these as a Rosette interpreter; here they are plain Python
callables, which serve the same two roles — evaluating terms during
rule synthesis, and verifying candidate rules.

The base target is a Tensilica-Fusion-G3-like DSP
(:func:`fusion_g3_spec`), and §5.4's customization workflow is
reproduced by :mod:`repro.isa.custom`.  Width-parametric *families*
(the AVX-like wide ISA, the masked/predicated ISA) live in
:mod:`repro.isa.families`.
"""

from repro.isa.spec import Instruction, IsaSpec
from repro.isa.fusion_g3 import fusion_g3_spec
from repro.isa.avx_like import avx_like_spec
from repro.isa.masked import masked_spec
from repro.isa.families import (
    BUNDLED_FAMILIES,
    IsaFamily,
    bundled_spec_factories,
    isa_family,
    spec_by_name,
)
from repro.isa.custom import (
    make_mulsub_instructions,
    make_sqrtsgn_instructions,
    customized_spec,
)

__all__ = [
    "Instruction",
    "IsaSpec",
    "IsaFamily",
    "BUNDLED_FAMILIES",
    "fusion_g3_spec",
    "avx_like_spec",
    "masked_spec",
    "bundled_spec_factories",
    "isa_family",
    "spec_by_name",
    "make_mulsub_instructions",
    "make_sqrtsgn_instructions",
    "customized_spec",
]
