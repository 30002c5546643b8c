"""Kernel instances: traced program + reference + input generation."""

from __future__ import annotations

import hashlib
import os
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.compiler.frontend import KernelProgram


def default_vector_width() -> int:
    """The vector width kernels trace at when none is given.

    Reads ``REPRO_VECTOR_WIDTH`` (default 4, the base fusion-g3
    width), so a whole suite can be re-traced for a wider ISA family
    without threading a width argument through every call site.
    """
    raw = os.environ.get("REPRO_VECTOR_WIDTH", "")
    if not raw:
        return 4
    try:
        width = int(raw)
    except ValueError as exc:
        raise ValueError(
            f"REPRO_VECTOR_WIDTH={raw!r} is not an integer"
        ) from exc
    if width < 2:
        raise ValueError(
            f"REPRO_VECTOR_WIDTH={width} must be at least 2"
        )
    return width


@dataclass(frozen=True)
class KernelInstance:
    """One benchmarkable kernel at one size.

    ``reference`` maps a dict of (unpadded) numpy input arrays to the
    expected (unpadded) output array — an independent implementation,
    not derived from the traced program.
    """

    key: str
    family: str
    params: dict
    program: KernelProgram
    reference: Callable

    @property
    def arrays(self) -> dict:
        """Input/output array name → unpadded length."""
        return self.program.arrays

    @property
    def output_len(self) -> int:
        """Unpadded length of the kernel's output array."""
        return self.program.output_len

    def make_inputs(self, seed: int = 0) -> dict:
        """Seeded random inputs, one list per input array."""
        rng = random.Random((hash(self.key) & 0xFFFF) * 1_000 + seed)
        return {
            name: [round(rng.uniform(-4.0, 4.0), 3) for _ in range(length)]
            for name, length in self.arrays.items()
        }


def kernel_spec_hash(program: KernelProgram) -> str:
    """Stable short hash of a kernel's compilable surface.

    Covers everything the compiler consumes — the canonicalized term,
    output array/length, input array layout, and vector width — so two
    programs with the same hash compile identically.  Used to identify
    kernels in error reports and as the ``spec_hash`` of a compile
    service answer.  It is :func:`wire_spec_hash` of the term as
    ``to_sexpr`` prints it.
    """
    from repro.lang.parser import to_sexpr

    return wire_spec_hash(
        program.name,
        to_sexpr(program.term),
        program.output,
        program.output_len,
        program.arrays,
        program.width,
    )


def wire_spec_hash(
    name: str, term: str, output: str, output_len: int, arrays: dict,
    width: int,
) -> str:
    """:func:`kernel_spec_hash` over a kernel's text form.

    ``term`` is the s-expression as written, which is what the compile
    service's wire kernel carries, so the server keys a request without
    parsing it.  A term spelled the way ``to_sexpr`` prints it hashes
    to :func:`kernel_spec_hash` of the parsed program; any other
    spelling of the same term hashes differently.
    """
    parts = [
        name,
        term,
        output,
        str(output_len),
        ",".join(f"{k}={v}" for k, v in sorted(arrays.items())),
        str(width),
    ]
    blob = "\n".join(parts).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


def padded_memory(instance: KernelInstance, inputs: dict) -> dict:
    """Machine memory for a run: inputs and output padded to width."""
    width = instance.program.width
    memory: dict = {}
    for name, length in instance.arrays.items():
        data = list(inputs[name])
        if len(data) != length:
            raise ValueError(
                f"{instance.key}: input {name!r} has {len(data)} values, "
                f"expected {length}"
            )
        while len(data) % width:
            data.append(0.0)
        memory[name] = data
    memory[instance.program.output] = [0.0] * instance.program.padded_len
    return memory


def run_reference(instance: KernelInstance, inputs: dict) -> np.ndarray:
    """Evaluate the numpy reference on the given inputs."""
    np_inputs = {
        name: np.asarray(inputs[name], dtype=float)
        for name in instance.arrays
    }
    return np.asarray(instance.reference(np_inputs), dtype=float).ravel()
