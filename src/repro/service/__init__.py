"""Compile-as-a-service: the online half of the two-stage design.

The paper splits compiler generation into an expensive offline stage
and a cheap online compile; this package serves the online stage over
a socket so one registry of offline products answers all traffic:

- :mod:`repro.service.protocol` — the newline-delimited JSON wire
  format (kernels, options, results, content-address keys);
- :mod:`repro.service.registry` — the on-disk artifact registry and
  result cache;
- :mod:`repro.service.server` — the asyncio serve loop
  (``repro-serve``): result cache → in-flight dedupe → batched
  ``compile_many``;
- :mod:`repro.service.client` — sync and async clients plus the
  quickstart CLI (``python -m repro.service.client``).

Operator documentation lives in ``docs/service.md``.
"""

# Exports resolve lazily (PEP 562) so ``python -m repro.service.client``
# and ``python -m repro.service.server`` don't import their own module a
# second time through this package (runpy's double-import warning).
_EXPORTS = {
    "AsyncCompileClient": "repro.service.client",
    "CompileClient": "repro.service.client",
    "ServiceError": "repro.service.client",
    "ProtocolError": "repro.service.protocol",
    "ArtifactRegistry": "repro.service.registry",
    "RegistryError": "repro.service.registry",
    "BackgroundServer": "repro.service.server",
    "CompileService": "repro.service.server",
    "ServiceConfig": "repro.service.server",
    "serve": "repro.service.server",
}


def __getattr__(name: str):
    """Import the defining submodule on first access to an export."""
    if name in _EXPORTS:
        import importlib

        return getattr(importlib.import_module(_EXPORTS[name]), name)
    raise AttributeError(
        f"module {__name__!r} has no attribute {name!r}"
    )


def __dir__() -> list:
    """Advertise lazy exports to ``dir()`` and tab completion."""
    return sorted(list(globals()) + list(_EXPORTS))


__all__ = [
    "ArtifactRegistry",
    "AsyncCompileClient",
    "BackgroundServer",
    "CompileClient",
    "CompileService",
    "ProtocolError",
    "RegistryError",
    "ServiceConfig",
    "ServiceError",
    "serve",
]
