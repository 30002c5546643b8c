"""The service's on-disk artifact registry and result cache.

The registry is the durable half of the compile service: one
directory holding

- ``artifacts/<fingerprint>.json`` — published
  :class:`~repro.core.artifact.CompilerArtifact` files, the whole
  offline product per ISA.  Lookup is by the *semantics-probe* spec
  hash (:func:`~repro.core.artifact.spec_semantics_hash`), so a
  client that names an ISA gets a warm
  :class:`~repro.core.framework.GeneratedCompiler` with zero offline
  work, and a stale artifact can never compile against changed
  instruction behaviour;
- ``results/<key>.json`` — the content-addressed result cache, one
  finished compile answer per :func:`~repro.service.protocol.result_key`.

Both layers share the repo-wide corrupt-entry policy
(:func:`~repro.core.artifact.corrupt_entry_miss`): a truncated or
garbled file is a tracer-logged miss with a clean rebuild, never an
exception — a damaged registry must not take down a serve loop.

The registry resolves ISA *names* to executable specs through a
table of spec factories (:data:`KNOWN_SPECS` plus any passed to the
constructor) because lane-semantics functions cannot travel over the
wire; publishing an artifact for a custom ISA means registering its
factory with the server process (see ``docs/service.md``).
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path

from repro.core.artifact import (
    ArtifactError,
    CompilerArtifact,
    corrupt_entry_miss,
    default_cache_dir,
    spec_semantics_hash,
    write_atomic,
)
from repro.isa import customized_spec, fusion_g3_spec
from repro.isa.families import bundled_spec_factories
from repro.isa.spec import IsaSpec
from repro.obs import current_tracer

__all__ = [
    "ArtifactRegistry",
    "KNOWN_SPECS",
    "RegistryEntry",
    "RegistryError",
    "service_cache_dir",
]


class RegistryError(ValueError):
    """A registry lookup cannot be satisfied (unknown ISA, no artifact)."""


def _fusion_g3_full():
    return customized_spec(fusion_g3_spec(), mulsub=True, sqrtsgn=True)


#: ISA names the service resolves out of the box, each mapping to a
#: zero-argument spec factory: the two historical fusion-g3 variants
#: plus every bundled ISA-family/width combination
#: (:func:`repro.isa.families.bundled_spec_factories` — ``avx-like-w8``,
#: ``masked-w16``, ...).  Extend per-process via
#: ``ArtifactRegistry(..., specs={...})`` for custom ISAs.
KNOWN_SPECS = {
    "fusion-g3": fusion_g3_spec,
    "fusion-g3+mulsub+sqrtsgn": _fusion_g3_full,
    **bundled_spec_factories(),
}


def service_cache_dir() -> Path:
    """The registry root (``REPRO_SERVICE_CACHE`` overrides).

    Defaults to the ``service/`` subdirectory of the artifact cache
    (:func:`~repro.core.artifact.default_cache_dir`), so the service's
    state lives next to the offline products it serves.
    """
    env = os.environ.get("REPRO_SERVICE_CACHE", "").strip()
    if env:
        return Path(env)
    return default_cache_dir() / "service"


class RegistryEntry:
    """One resolved ISA: its spec, warm compiler, and fingerprint.

    What :meth:`ArtifactRegistry.entry_for` memoizes per semantics
    hash — the fingerprint is the artifact identity the service's
    result-cache keys hash in.
    """

    def __init__(self, isa: str, spec: IsaSpec, compiler, fingerprint: str):
        self.isa = isa
        self.spec = spec
        self.compiler = compiler
        self.fingerprint = fingerprint


class ArtifactRegistry:
    """Artifacts and the compiled-result cache for one root.

    Stateless on disk, memoizing in memory: resolved entries are kept
    per semantics hash and each ISA name's hash is kept too, so
    repeated requests for the same ISA skip both the JSON parse and
    the lane-function probe.
    """

    def __init__(
        self,
        root: "Path | str | None" = None,
        specs: "dict | None" = None,
    ):
        """``root`` defaults to :func:`service_cache_dir`; ``specs``
        adds per-process ISA-name → spec-factory entries on top of
        :data:`KNOWN_SPECS`."""
        self.root = Path(root) if root is not None else service_cache_dir()
        self.specs = dict(KNOWN_SPECS)
        if specs:
            self.specs.update(specs)
        self._compilers: dict = {}
        self._spec_cache: dict = {}
        # ISA name -> semantics hash, taken when the name first
        # resolves.  spec_for hands out one spec object per name, so
        # the hash cannot change; re-probing every lane function on
        # each request would only repeat it.
        self._memo_keys: dict = {}
        # One lock per semantics hash serializes that ISA's slow
        # resolution path (artifact scan or bootstrap); _locks_guard
        # protects the lock table itself.
        self._locks: dict = {}
        self._locks_guard = threading.Lock()

    # -- layout ----------------------------------------------------------

    @property
    def artifacts_dir(self) -> Path:
        """Where published artifacts live."""
        return self.root / "artifacts"

    @property
    def results_dir(self) -> Path:
        """Where cached compile results live."""
        return self.root / "results"

    def artifact_path(self, fingerprint: str) -> Path:
        """The file a given artifact fingerprint is published at."""
        return self.artifacts_dir / f"{fingerprint}.json"

    def result_path(self, key: str) -> Path:
        """The file a given result key is cached at."""
        return self.results_dir / f"{key}.json"

    # -- ISA resolution --------------------------------------------------

    def spec_for(self, isa: str) -> IsaSpec:
        """The executable spec for an ISA name.

        Raises :class:`RegistryError` for names with no registered
        factory — the server cannot invent lane semantics.
        """
        if isa not in self.specs:
            known = ", ".join(sorted(self.specs))
            raise RegistryError(
                f"unknown ISA {isa!r} (known: {known})"
            )
        if isa not in self._spec_cache:
            self._spec_cache[isa] = self.specs[isa]()
        return self._spec_cache[isa]

    def publish(self, artifact: CompilerArtifact) -> Path:
        """Write an artifact into the registry; returns its path.

        The write is atomic (:func:`~repro.core.artifact.write_atomic`)
        so a concurrently serving process never reads a torn artifact.
        """
        path = artifact.save(self.artifact_path(artifact.fingerprint))
        current_tracer().record(
            "registry.publish", 0.0,
            fingerprint=artifact.fingerprint, isa=artifact.isa_name,
        )
        return path

    def find_artifact(self, spec: IsaSpec) -> "CompilerArtifact | None":
        """The newest published artifact matching ``spec``'s semantics.

        Scans ``artifacts/`` and filters on the semantics-probe hash;
        corrupt files are tracer-logged misses and skipped.  Among
        multiple matches (several synthesis configs for one ISA) the
        most recently *created* wins.
        """
        want = spec_semantics_hash(spec)
        best: CompilerArtifact | None = None
        if not self.artifacts_dir.is_dir():
            return None
        for path in sorted(self.artifacts_dir.glob("*.json")):
            try:
                artifact = CompilerArtifact.load(path)
            except ArtifactError as exc:
                corrupt_entry_miss("registry", path, exc)
                continue
            if artifact.spec_hash != want:
                continue
            if best is None or artifact.created > best.created:
                best = artifact
        return best

    def resolved(self, isa: str) -> "RegistryEntry | None":
        """The memoized entry for an ISA name, or ``None`` before the
        name has resolved.

        Two dict lookups: no lock, no disk, no lane-function probe, so
        the serve loop calls it on its own thread and leaves only first
        resolutions to :meth:`entry_for`.
        """
        memo_key = self._memo_keys.get(isa)
        return None if memo_key is None else self._compilers.get(memo_key)

    def entry_for(self, isa: str) -> RegistryEntry:
        """The warm :class:`RegistryEntry` for an ISA name.

        Resolution order: in-memory memo → published artifact whose
        semantics hash matches the named spec → (for bundled
        family/width names only) a compiler bootstrapped from the
        shipped pregenerated rules — loaded directly for the base ISA,
        re-generalized at the target width for every other family
        (:func:`~repro.core.pregen.family_compiler`) — which is
        immediately published so the next process finds it as an
        artifact.  No path runs rule synthesis.  Concurrent callers
        for one ISA wait for a single resolution and share its entry;
        the memo hit takes no lock.  A name's semantics hash is taken
        once, on its first call.
        """
        spec = self.spec_for(isa)
        memo_key = self._memo_keys.get(isa)
        if memo_key is None:
            memo_key = self._memo_keys[isa] = spec_semantics_hash(spec)
        entry = self._compilers.get(memo_key)
        if entry is not None:
            return entry
        # The server resolves ISAs from executor threads: without the
        # lock, concurrent first requests would each bootstrap the ISA
        # and the last would overwrite the others' entries.
        with self._locks_guard:
            lock = self._locks.setdefault(memo_key, threading.Lock())
        with lock:
            entry = self._compilers.get(memo_key)
            if entry is None:
                entry = self._resolve(isa, spec, memo_key)
                self._compilers[memo_key] = entry
        return entry

    def _resolve(
        self, isa: str, spec: IsaSpec, memo_key: str
    ) -> RegistryEntry:
        """:meth:`entry_for`'s slow path: load or bootstrap the entry."""
        from repro.isa.families import bundled_spec_factories

        artifact = self.find_artifact(spec)
        if artifact is not None:
            compiler = artifact.to_compiler(spec)
            current_tracer().record(
                "registry.artifact_hit", 0.0,
                isa=isa, fingerprint=artifact.fingerprint,
            )
        elif isa in bundled_spec_factories():
            from repro.core.pregen import family_compiler

            compiler = family_compiler(spec)
            artifact = compiler.to_artifact()
            self.publish(artifact)
            current_tracer().record(
                "registry.bootstrap", 0.0, isa=isa
            )
        else:
            raise RegistryError(
                f"no artifact published for ISA {isa!r} "
                f"(semantics {memo_key}); build one with `repro-artifact "
                f"build` and copy it into {self.artifacts_dir}/, or call "
                "ArtifactRegistry.publish"
            )
        return RegistryEntry(isa, spec, compiler, artifact.fingerprint)

    def compiler_for(self, isa: str):
        """A warm ``GeneratedCompiler`` for an ISA name (see
        :meth:`entry_for`)."""
        return self.entry_for(isa).compiler

    # -- result cache ----------------------------------------------------

    def load_result(self, key: str) -> "dict | None":
        """The cached result payload for ``key``, or ``None``.

        A corrupt or truncated entry is a tracer-logged miss
        (``registry.corrupt``) — the caller recompiles and overwrites.
        """
        path = self.result_path(key)
        try:
            text = path.read_text()
        except OSError:
            return None
        try:
            doc = json.loads(text)
            if not isinstance(doc, dict) or "payload" not in doc:
                raise ValueError("missing result payload")
            payload = doc["payload"]
            if not isinstance(payload, dict):
                raise ValueError("result payload is not an object")
        except ValueError as exc:
            corrupt_entry_miss("registry", path, exc)
            return None
        return payload

    def store_result(self, key: str, payload: dict) -> Path:
        """Cache a finished compile answer under ``key`` (atomic)."""
        doc = {"key": key, "payload": payload}
        return write_atomic(
            self.result_path(key), json.dumps(doc, sort_keys=True) + "\n"
        )

    # -- introspection ---------------------------------------------------

    def stats(self) -> dict:
        """Registry contents for CLIs and the server's ``stats`` op.

        Per-artifact summaries (fingerprint, ISA, rule count, bytes) and
        the result entry count; corrupt artifacts are counted, not
        raised.
        """
        artifacts = []
        corrupt = 0
        if self.artifacts_dir.is_dir():
            for path in sorted(self.artifacts_dir.glob("*.json")):
                try:
                    artifact = CompilerArtifact.load(path)
                except ArtifactError:
                    corrupt += 1
                    continue
                artifacts.append(
                    {
                        "fingerprint": artifact.fingerprint,
                        "isa": artifact.isa_name,
                        "vector_width": artifact.vector_width,
                        "spec_hash": artifact.spec_hash,
                        "n_rules": len(artifact.ruleset),
                        "bytes": path.stat().st_size,
                    }
                )
        results = (
            sorted(p.name for p in self.results_dir.glob("*.json"))
            if self.results_dir.is_dir()
            else []
        )
        return {
            "root": str(self.root),
            "artifacts": artifacts,
            "corrupt_artifacts": corrupt,
            "n_results": len(results),
        }
