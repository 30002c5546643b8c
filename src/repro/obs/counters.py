"""The one rule for adding up counter blocks.

Every layer's counter block (``SaturationPerf``, ``SynthesisPerf``,
...) is a dataclass of numbers and dicts of numbers: its JSON form is
``dataclasses.asdict``, and :func:`merge_counters` adds two of a kind.
"""

from __future__ import annotations

from dataclasses import fields


def merge_counters(total, other):
    """Add ``other``'s fields into ``total`` (same dataclass); returns
    ``total``.

    Numbers add; dicts add key by key, keeping ``total``'s key order
    and appending keys only ``other`` has.
    """
    for f in fields(total):
        ours = getattr(total, f.name)
        theirs = getattr(other, f.name)
        if isinstance(ours, dict):
            for key, value in theirs.items():
                ours[key] = ours.get(key, 0) + value
        else:
            setattr(total, f.name, ours + theirs)
    return total
