"""ISA families: width-parametric descriptors over the spec factories.

A *family* is an ISA whose lane semantics are fixed but whose vector
width is a parameter — the axis the paper's §5.4 customization claim
is exercised along.  The descriptor records the supported widths and
capability flags so tooling (the service registry, the bench sweep,
the trace rollup) can enumerate concrete specs without hardcoding
names::

    >>> from repro.isa.families import isa_family
    >>> isa_family("masked").spec(8).name
    'masked-w8'

Spec names follow ``<family>-w<width>`` except fusion-g3 at its
historical default width 4, which keeps the bare name ``fusion-g3``
(artifact fingerprints depend on it).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.isa.avx_like import avx_like_spec
from repro.isa.fusion_g3 import fusion_g3_spec
from repro.isa.masked import masked_spec
from repro.isa.spec import IsaSpec


@dataclass(frozen=True)
class IsaFamily:
    """A width-parametric ISA: factory plus supported widths.

    ``factory`` maps a lane width to a concrete :class:`IsaSpec`;
    ``widths`` are the widths the family supports (``default_width``
    is what ``spec()`` uses when none is given); ``masked`` marks
    families with mask registers and predicated memory/arith ops.
    """

    name: str
    widths: tuple[int, ...]
    default_width: int
    factory: Callable[[int], IsaSpec]
    masked: bool = False
    description: str = ""

    def __post_init__(self):
        if self.default_width not in self.widths:
            raise ValueError(
                f"family {self.name!r}: default width "
                f"{self.default_width} not in {self.widths}"
            )

    def spec(self, width: int | None = None) -> IsaSpec:
        """The concrete spec at ``width`` (default ``default_width``)."""
        width = self.default_width if width is None else width
        if width not in self.widths:
            raise ValueError(
                f"family {self.name!r} supports widths {self.widths}, "
                f"not {width}"
            )
        return self.factory(width)

    def spec_names(self) -> list[str]:
        """Concrete spec names, one per supported width."""
        return [self.factory(w).name for w in self.widths]


BUNDLED_FAMILIES: tuple[IsaFamily, ...] = (
    IsaFamily(
        name="fusion-g3",
        widths=(2, 4, 8, 16),
        default_width=4,
        factory=fusion_g3_spec,
        description="Tensilica-Fusion-G3-like base DSP ISA (paper Table 1)",
    ),
    IsaFamily(
        name="avx-like",
        widths=(4, 8, 16),
        default_width=8,
        factory=avx_like_spec,
        description="wide ISA with distinct aligned/unaligned load costs",
    ),
    IsaFamily(
        name="masked",
        widths=(4, 8, 16),
        default_width=8,
        factory=masked_spec,
        masked=True,
        description="predicated ISA: mask registers, masked load/store/arith",
    ),
)

_BY_NAME = {family.name: family for family in BUNDLED_FAMILIES}


def isa_family(name: str) -> IsaFamily:
    """The bundled family called ``name`` (KeyError if absent)."""
    try:
        return _BY_NAME[name]
    except KeyError:
        known = ", ".join(sorted(_BY_NAME))
        raise KeyError(
            f"unknown ISA family {name!r} (bundled: {known})"
        ) from None


def spec_by_name(name: str) -> IsaSpec:
    """Resolve a concrete spec name like ``avx-like-w16``.

    Accepts every name in :func:`bundled_spec_factories`; raises
    KeyError for anything else.
    """
    try:
        return bundled_spec_factories()[name]()
    except KeyError:
        known = ", ".join(sorted(bundled_spec_factories()))
        raise KeyError(
            f"unknown ISA spec {name!r} (bundled: {known})"
        ) from None


def bundled_spec_factories() -> dict[str, Callable[[], IsaSpec]]:
    """Name → zero-arg factory for every bundled family × width.

    This is what the service registry bootstraps from: each key is a
    concrete spec name a client may pass as ``--isa``.
    """
    factories: dict[str, Callable[[], IsaSpec]] = {}
    for family in BUNDLED_FAMILIES:
        for width in family.widths:
            spec_name = family.factory(width).name

            def make(f=family, w=width) -> IsaSpec:
                return f.factory(w)

            factories[spec_name] = make
    return factories
