"""The compile-service wire protocol: newline-delimited JSON.

One request or response per line, each a single JSON object — the
simplest framing that composes with ``asyncio`` streams, ``nc``, and
any language's socket library.  The full message vocabulary (ops,
fields, error kinds) is specified with examples in
``docs/service.md``; this module owns the (de)serialization helpers
both ends share:

- **framing**: :func:`encode_message` / :func:`decode_message`;
- **kernels**: a traced :class:`~repro.compiler.frontend.KernelProgram`
  crosses the wire as ``{name, term (s-expression), output,
  output_len, arrays, width}`` (:func:`kernel_to_wire` /
  :func:`kernel_from_wire`) — functions cannot be serialized, but a
  traced program is pure data.  :func:`kernel_fields` normalizes
  that dict without parsing the term;
- **options**: :class:`~repro.compiler.compile.CompileOptions`
  round-trip through the same tolerant dict form the artifact format
  uses, plus :func:`options_digest` / :func:`wire_options_digest` for
  content-addressing;
- **results**: a :class:`~repro.core.framework.CompiledKernel`
  flattens to the response payload (:func:`compiled_to_wire`) —
  compiled term, machine instructions, C source, costs — everything a
  client needs without the server shipping Python objects;
- **keys**: :func:`result_key` is the content address of one compile
  answer (artifact fingerprint × kernel spec hash × options digest,
  both hashes taken from the request's fields without parsing the
  term), used for both the in-flight dedupe map and the persistent
  result cache.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

from repro.compiler.compile import CompileOptions
from repro.compiler.frontend import KernelProgram
from repro.core.artifact import _options_from_dict, _options_to_dict
from repro.egraph.runner import RunnerLimits

PROTOCOL_VERSION = 1

#: Maximum accepted line length (16 MiB) — a framing guard, not a
#: resource limit; a kernel spec or C-source payload is far smaller.
MAX_MESSAGE_BYTES = 16 * 1024 * 1024


class ProtocolError(ValueError):
    """A message violates the wire protocol (bad JSON, missing field)."""


def encode_message(message: dict) -> bytes:
    """Serialize one message as a newline-terminated JSON line."""
    if not isinstance(message, dict):
        raise ProtocolError(f"message must be a dict, got {message!r}")
    return (json.dumps(message, sort_keys=True) + "\n").encode("utf-8")


def decode_message(line: "bytes | str") -> dict:
    """Parse one wire line into a message dict.

    Raises :class:`ProtocolError` on malformed JSON, a non-object
    payload, or an oversized line — the server answers these with an
    error response rather than dropping the connection.
    """
    if isinstance(line, bytes):
        if len(line) > MAX_MESSAGE_BYTES:
            raise ProtocolError(
                f"message exceeds {MAX_MESSAGE_BYTES} bytes"
            )
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"message is not UTF-8: {exc}")
    try:
        message = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"message is not valid JSON: {exc}")
    if not isinstance(message, dict):
        raise ProtocolError(
            f"message must be a JSON object, got {type(message).__name__}"
        )
    return message


# ---------------------------------------------------------------------------
# kernels on the wire
# ---------------------------------------------------------------------------


def kernel_to_wire(program: KernelProgram) -> dict:
    """Flatten a traced kernel into its wire form.

    The normalized term travels as an s-expression; ``raw_term`` is
    deliberately dropped — the service compiles with the equality-
    saturation pipeline, which only consumes the canonical term.
    """
    from repro.lang.parser import to_sexpr

    return {
        "name": program.name,
        "term": to_sexpr(program.term),
        "output": program.output,
        "output_len": program.output_len,
        "arrays": {k: int(v) for k, v in program.arrays.items()},
        "width": program.width,
    }


def kernel_fields(data) -> dict:
    """Normalize a request's ``kernel`` field without parsing its term.

    Returns the six wire fields with the wire's coercions applied
    (``name`` and ``output`` to ``str``, lengths and width to ``int``,
    ``arrays`` to ``{str: int}``) and ``term`` left as the text sent.
    The server keys a request on these fields
    (:func:`~repro.kernels.specs.wire_spec_hash`) and
    :func:`kernel_from_wire` builds the program from them.

    The key joins the fields with newlines and the arrays as
    ``name=length`` pairs, so only the term may span lines and array
    names may hold neither ``,`` nor ``=``: that way one key text
    splits into fields one way only.  Raises :class:`ProtocolError` on
    a missing, mistyped or ambiguous field.
    """
    if not isinstance(data, dict):
        raise ProtocolError(f"kernel must be an object, got {data!r}")
    try:
        fields = {
            "name": str(data["name"]),
            "term": data["term"],
            "output": str(data["output"]),
            "output_len": int(data["output_len"]),
            "arrays": {
                str(k): int(v) for k, v in dict(data["arrays"]).items()
            },
            "width": int(data["width"]),
        }
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"malformed kernel spec: {exc}")
    if not isinstance(fields["term"], str):
        raise ProtocolError("malformed kernel spec: term must be a string")
    names = [fields["name"], fields["output"], *fields["arrays"]]
    if any("\n" in name for name in names):
        raise ProtocolError(
            "malformed kernel spec: a name may not contain a newline"
        )
    if any("," in name or "=" in name for name in fields["arrays"]):
        raise ProtocolError(
            "malformed kernel spec: an array name may not contain ',' or '='"
        )
    return fields


def kernel_from_wire(data: dict) -> KernelProgram:
    """Rebuild a :class:`KernelProgram` from its wire form.

    Normalizes through :func:`kernel_fields`, then parses the term.
    Raises :class:`ProtocolError` on missing fields or an unparsable
    term, so a malformed compile request fails the *request*, not the
    server.
    """
    from repro.lang.parser import parse

    fields = kernel_fields(data)
    try:
        term = parse(fields["term"])
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"malformed kernel spec: {exc}")
    return KernelProgram(**{**fields, "term": term})


# ---------------------------------------------------------------------------
# options on the wire
# ---------------------------------------------------------------------------


def options_to_wire(options: CompileOptions) -> dict:
    """Compile options as the tolerant dict form artifacts use."""
    return _options_to_dict(options)


def options_from_wire(data: "dict | None") -> CompileOptions:
    """Rebuild :class:`CompileOptions` from a request's options field.

    ``None`` (field absent) means the server-side defaults; unknown
    keys from a newer client are dropped and missing keys fall back to
    the dataclass defaults, matching the artifact reader's tolerance.
    """
    if data is None:
        return CompileOptions()
    if not isinstance(data, dict):
        raise ProtocolError(f"options must be an object, got {data!r}")
    try:
        return _options_from_dict(data)
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"malformed options: {exc}")


def options_digest(options: CompileOptions) -> str:
    """Stable short hash of fully-resolved compile options."""
    return _json_digest(options_to_wire(options))


_OPTION_FIELDS = frozenset(f.name for f in dataclasses.fields(CompileOptions))
_LIMIT_FIELDS = frozenset(f.name for f in dataclasses.fields(RunnerLimits))


def wire_options_digest(data: dict) -> str:
    """:func:`options_digest` of a request's ``options`` field.

    A dict that names every option field, each ``*_limits`` entry
    naming every limit, is what :func:`options_to_wire` emits; it
    resolves to options with exactly its values, so it is hashed as
    sent.  Any other dict (a field missing, unknown or of another
    shape) is hashed as the options it resolves to, so the digest
    follows the defaults and fields the server actually applies.
    Raises :class:`ProtocolError` on a non-object.
    """
    if not isinstance(data, dict):
        raise ProtocolError(f"options must be an object, got {data!r}")
    full = data.keys() == _OPTION_FIELDS and all(
        isinstance(value, dict) and value.keys() == _LIMIT_FIELDS
        for name, value in data.items()
        if name.endswith("_limits")
    )
    if not full:
        return options_digest(options_from_wire(data))
    return _json_digest(data)


def _json_digest(data: dict) -> str:
    blob = json.dumps(data, sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


# ---------------------------------------------------------------------------
# results on the wire
# ---------------------------------------------------------------------------


def result_key(
    fingerprint: str, kernel_hash: str, opts_digest: str
) -> str:
    """The content address of one compile answer.

    Hashes the protocol version (so a format change never serves a
    stale payload shape), the artifact fingerprint (ISA semantics,
    synthesis config and phase params; see
    :func:`~repro.core.artifact.artifact_fingerprint`), the kernel's
    spec hash and the options digest.  The server takes both hashes
    from the request as sent (:func:`~repro.kernels.specs.wire_spec_hash`
    of :func:`kernel_fields`, :func:`wire_options_digest`), so keying
    what the bundled clients send parses nothing; the hashes equal
    :func:`~repro.kernels.specs.kernel_spec_hash` and
    :func:`options_digest`.  No server code is hashed in: a change to
    what a request compiles to needs an emptied ``results/`` or a new
    :data:`PROTOCOL_VERSION`.
    """
    blob = f"v{PROTOCOL_VERSION}|{fingerprint}|{kernel_hash}|{opts_digest}"
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:24]


def compiled_to_wire(compiled, spec_hash: str) -> dict:
    """Flatten a :class:`~repro.core.framework.CompiledKernel`.

    The response payload: identity (name, the request's kernel spec
    hash), the compiled vector term, the lowered machine instructions
    (one string each, in program order), the C rendering, and the
    report's headline numbers.  Two compiles produce byte-identical
    programs exactly when these dicts are equal.
    """
    from repro.lang.parser import to_sexpr

    report = compiled.report
    return {
        "kernel": compiled.name,
        "spec_hash": spec_hash,
        "initial_cost": report.initial_cost,
        "final_cost": report.final_cost,
        "n_rounds": len(report.rounds),
        "compiled_term": to_sexpr(compiled.compiled_term),
        "instructions": [
            str(instr) for instr in compiled.machine_program.instrs
        ],
        "c_source": compiled.c_source(),
        "output": compiled.output,
        "arrays": {k: int(v) for k, v in compiled.arrays.items()},
    }
