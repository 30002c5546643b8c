"""The compile service: protocol, registry, serve loop, and clients.

Serve-loop tests drive a real :class:`CompileService` on a private
event loop with the real registry, compiler, and pipeline — no mocks
— using tiny traced kernels and tight saturation limits so each live
compile stays well under a second.  A test that needs a compile in
flight holds it on a gate (:class:`_Gate`), not on a timing window.
"""

import asyncio
import dataclasses
import errno
import hashlib
import json
import re
import shutil
import socket
import threading
import time

import pytest

from repro.compiler.compile import CompileOptions
from repro.compiler.frontend import trace_kernel
from repro.compiler.pipeline import compile_many
from repro.egraph.runner import RunnerLimits
from repro.kernels.specs import kernel_spec_hash, wire_spec_hash
from repro.kernels.suite import suite_by_key
from repro.lang.parser import to_sexpr
from repro.obs import ListSink, Tracer, use_tracer
from repro.service import (
    ArtifactRegistry,
    AsyncCompileClient,
    BackgroundServer,
    CompileClient,
    ProtocolError,
    RegistryError,
    ServiceError,
    protocol,
)
from repro.service import registry as registry_module
from repro.service import server as server_module
from repro.service.registry import RegistryEntry
from repro.service.server import CompileService, ServiceConfig


def _quick_options() -> CompileOptions:
    """Tight budgets: tiny kernels vectorize in a couple hundred ms."""
    return CompileOptions(
        max_rounds=1,
        expansion_limits=RunnerLimits(
            max_iterations=2, max_nodes=2_000, time_limit=2.0
        ),
        compilation_limits=RunnerLimits(
            max_iterations=4, max_nodes=4_000, time_limit=2.0
        ),
        optimization_limits=RunnerLimits(
            max_iterations=2, max_nodes=2_000, time_limit=2.0
        ),
    )


def _vadd(name: str = "vadd4"):
    return trace_kernel(
        name, lambda a, b: [a[i] + b[i] for i in range(4)],
        {"a": 4, "b": 4}, width=4,
    )


def _vmul(name: str = "vmul4"):
    return trace_kernel(
        name, lambda a, b: [a[i] * b[i] for i in range(4)],
        {"a": 4, "b": 4}, width=4,
    )


def _vsub(name: str = "vsub4"):
    return trace_kernel(
        name, lambda a, b: [a[i] - b[i] for i in range(4)],
        {"a": 4, "b": 4}, width=4,
    )


#: A wire kernel that fails inside the pipeline (unknown symbols), so
#: batch-isolation paths get a deterministic KernelCompileError.
_BAD_WIRE = {
    "name": "bad",
    "term": "(Prog (Vec (+ a0 zz0) (+ a1 zz1) (+ a2 zz2) (+ a3 zz3)))",
    "output": "out",
    "output_len": 4,
    "arrays": {"a": 4},
    "width": 4,
}


class _LoggedCompile:
    """A compiler's ``compile_kernel`` that first appends the kernel's
    name to a file (worker processes share no memory; an instance
    pickles with its compiler and path)."""

    def __init__(self, compiler, path):
        self.compiler = compiler
        self.path = str(path)

    def __call__(self, kernel, *args, **kwargs):
        with open(self.path, "a") as fh:
            fh.write(kernel.name + "\n")
        return type(self.compiler).compile_kernel(
            self.compiler, kernel, *args, **kwargs
        )


class _Gate:
    """Holds the server's first compile until :meth:`release`.

    Wraps ``repro.service.server._compile_each``, the batcher's
    worker-thread call, so that its first call blocks on an event.
    The wrapper runs in the server process and is never pickled, so a
    ``workers=2`` batch still fans out.
    """

    def __init__(self, monkeypatch):
        self._entered = threading.Event()
        self._released = threading.Event()
        self._calls = 0
        real = server_module._compile_each

        def gated(*args, **kwargs):
            self._calls += 1
            if self._calls == 1:
                self._entered.set()
                if not self._released.wait(timeout=30):
                    raise TimeoutError("gate never released")
            return real(*args, **kwargs)

        monkeypatch.setattr(server_module, "_compile_each", gated)

    async def held(self) -> None:
        """Return once the first compile has started and is held."""
        assert await asyncio.to_thread(self._entered.wait, 30)

    def release(self) -> None:
        """Let the held compile run."""
        self._released.set()


async def _until(predicate, timeout: float = 30.0) -> None:
    """Poll serve-loop state (same event loop) until ``predicate()``."""
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "serve loop never got there"
        await asyncio.sleep(0.001)


def _ok_bad_ok_batch(registry, workers: int, monkeypatch):
    """Serve [ok-a, bad, ok-b] as one batch, queued behind a held
    compile of ``hold``; returns the three outcomes (a response or the
    raised error) and the service."""
    options = _quick_options()
    gate = _Gate(monkeypatch)

    async def body(service, client):
        async with AsyncCompileClient(port=service.port) as second, \
                AsyncCompileClient(port=service.port) as third, \
                AsyncCompileClient(port=service.port) as fourth:
            held = asyncio.create_task(
                client.compile(_vsub("hold"), options=options)
            )
            await gate.held()
            first_ok = asyncio.create_task(
                second.compile(_vadd("ok-a"), options=options)
            )
            bad = asyncio.create_task(
                third.request(_compile_msg(_BAD_WIRE, options))
            )
            second_ok = asyncio.create_task(
                fourth.compile(_vmul("ok-b"), options=options)
            )
            await _until(lambda: service._queue.qsize() == 3)
            gate.release()
            assert (await held)["ok"]
            results = await asyncio.gather(
                first_ok, bad, second_ok, return_exceptions=True
            )
        return results, service

    return _run_with_service(registry, body, workers=workers)


@pytest.fixture
def registry(tmp_path):
    return ArtifactRegistry(tmp_path / "registry")


def _run_with_service(registry, body, **config):
    """Run ``await body(service, client)`` against a live server."""
    config.setdefault("port", 0)

    async def main():
        service = CompileService(
            config=ServiceConfig(**config), registry=registry
        )
        task = asyncio.create_task(service.run())
        await service._ready.wait()
        try:
            async with AsyncCompileClient(port=service.port) as client:
                result = await body(service, client)
        finally:
            service.request_stop()
            await asyncio.wait_for(task, timeout=30)
        return result

    return asyncio.run(main())


def _compile_msg(kernel, options=None, **extra):
    message = {
        "op": "compile",
        "isa": "fusion-g3",
        "kernel": kernel if isinstance(kernel, dict)
        else protocol.kernel_to_wire(kernel),
    }
    if options is not None:
        message["options"] = protocol.options_to_wire(options)
    message.update(extra)
    return message


class TestProtocol:
    def test_message_framing_round_trips(self):
        line = protocol.encode_message({"op": "ping", "id": 7})
        assert line.endswith(b"\n")
        assert protocol.decode_message(line) == {"op": "ping", "id": 7}

    def test_decode_rejects_garbage(self):
        with pytest.raises(ProtocolError, match="not valid JSON"):
            protocol.decode_message(b"nope\n")

    def test_decode_rejects_non_objects(self):
        with pytest.raises(ProtocolError, match="JSON object"):
            protocol.decode_message(b"[1, 2]\n")

    def test_decode_rejects_non_utf8(self):
        with pytest.raises(ProtocolError, match="UTF-8"):
            protocol.decode_message(b"\xff\xfe\n")

    def test_kernel_round_trips_with_same_spec_hash(self):
        kernel = _vadd()
        back = protocol.kernel_from_wire(protocol.kernel_to_wire(kernel))
        assert kernel_spec_hash(back) == kernel_spec_hash(kernel)
        assert back.arrays == kernel.arrays

    def test_kernel_from_wire_rejects_missing_fields(self):
        wire = protocol.kernel_to_wire(_vadd())
        del wire["arrays"]
        with pytest.raises(ProtocolError, match="malformed kernel"):
            protocol.kernel_from_wire(wire)

    def test_options_round_trip_preserves_digest(self):
        options = _quick_options()
        wire = protocol.options_to_wire(options)
        back = protocol.options_from_wire(wire)
        assert protocol.options_digest(back) == protocol.options_digest(
            options
        )

    def test_options_from_wire_none_is_defaults(self):
        assert protocol.options_from_wire(None) == CompileOptions()

    def test_options_from_wire_rejects_non_dict(self):
        with pytest.raises(ProtocolError, match="options"):
            protocol.options_from_wire([1])

    def test_result_key_separates_every_component(self):
        base = protocol.result_key("fp", "kh", "od")
        assert protocol.result_key("fp2", "kh", "od") != base
        assert protocol.result_key("fp", "kh2", "od") != base
        assert protocol.result_key("fp", "kh", "od2") != base

    def test_kernel_fields_normalize_without_parsing(self):
        wire = dict(
            protocol.kernel_to_wire(_vadd()),
            term="not an s-expression (",
            output_len="4",
            arrays={"a": 4.0, "b": "4"},
        )
        fields = protocol.kernel_fields(wire)
        assert fields["term"] == "not an s-expression ("
        assert fields["output_len"] == 4
        assert fields["arrays"] == {"a": 4, "b": 4}
        with pytest.raises(ProtocolError, match="term must be a string"):
            protocol.kernel_fields(dict(wire, term=7))

    def test_kernel_fields_keep_one_key_text_to_one_kernel(self):
        # The kernel hash joins fields with newlines and arrays as
        # name=length pairs.  A term may span lines, so a newline in
        # another field, or ',' / '=' in an array name, could make two
        # different kernels one key; such kernels are refused.
        wire = protocol.kernel_to_wire(_vadd())
        trailing = dict(wire, term=wire["term"] + "\n")
        shifted = dict(wire, output="\n" + wire["output"])
        assert wire_spec_hash(**protocol.kernel_fields(trailing)) == (
            wire_spec_hash(**{**protocol.kernel_fields(wire),
                              "output": shifted["output"]})
        )
        for bad in (
            shifted,
            dict(wire, name="two\nlines"),
            dict(wire, arrays={"a\nb": 4}),
            dict(wire, arrays={"a=4,b": 4}),
        ):
            with pytest.raises(ProtocolError, match="malformed kernel"):
                protocol.kernel_fields(bad)

    def test_wire_options_digest_rejects_non_dict(self):
        with pytest.raises(ProtocolError, match="options"):
            protocol.wire_options_digest([1])

    def test_wire_options_digest_keys_a_partial_dict_as_resolved(self):
        # Only a dict naming every field resolves to exactly its own
        # values; any other is keyed on what the server applies, so a
        # changed default or a newly honoured field moves its key.
        options = _quick_options()
        full = protocol.options_to_wire(options)
        no_phased = {k: v for k, v in full.items() if k != "phased"}
        short_limits = dict(
            full,
            compilation_limits={
                k: v for k, v in full["compilation_limits"].items()
                if k != "match_work"
            },
        )
        for partial in (
            {},
            no_phased,
            dict(full, from_a_newer_client=True),
            short_limits,
            dict(full, unphased_limits=None),
        ):
            assert protocol.wire_options_digest(partial) == (
                protocol.options_digest(protocol.options_from_wire(partial))
            ), partial
        assert protocol.wire_options_digest({}) == protocol.options_digest(
            CompileOptions()
        )
        assert protocol.wire_options_digest(
            dict(full, from_a_newer_client=True)
        ) == protocol.options_digest(options)


def _over_the_wire(value):
    """``value`` as the server decodes it from a client's line."""
    line = protocol.encode_message({"value": value})
    return protocol.decode_message(line)["value"]


def _key_identity_options() -> list:
    """Option values the bundled clients send: the defaults, the
    artifact CLI's quick options, and perfbench's tight (service) and
    Fig. 4 options, whose wall-clock limits are a 60 s no-op."""
    from repro.tools.artifact_cli import _quick_options as cli_quick

    no_clock = 60.0
    tight = CompileOptions(
        max_rounds=1,
        expansion_limits=RunnerLimits(
            max_iterations=2, max_nodes=2_000, time_limit=no_clock
        ),
        compilation_limits=RunnerLimits(
            max_iterations=4, max_nodes=4_000, time_limit=no_clock
        ),
        optimization_limits=RunnerLimits(
            max_iterations=2, max_nodes=2_000, time_limit=no_clock
        ),
    )
    fig4 = CompileOptions(
        max_rounds=2,
        expansion_limits=RunnerLimits(
            max_iterations=2, max_nodes=2_000, time_limit=no_clock,
            match_limit=100, ban_length=1, match_work=40_000,
        ),
        compilation_limits=RunnerLimits(
            max_iterations=8, max_nodes=2_000, time_limit=no_clock,
            match_limit=80, ban_length=3, match_work=25_000,
        ),
        optimization_limits=RunnerLimits(
            max_iterations=2, max_nodes=2_000, time_limit=no_clock
        ),
    )
    return [CompileOptions(), tight, fig4, cli_quick()]


def _parent_kernel_hash(program) -> str:
    """The kernel hash of a key computed from the parsed program,
    before keys were hashed from the wire form.  This and the two
    helpers below are written out in full so that a change to the
    shared hash functions cannot move these oracles along with them."""
    parts = [
        program.name,
        to_sexpr(program.term),
        program.output,
        str(program.output_len),
        ",".join(f"{k}={v}" for k, v in sorted(program.arrays.items())),
        str(program.width),
    ]
    blob = "\n".join(parts).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


def _parent_options_digest(options) -> str:
    """The options digest of a key computed from resolved options."""
    blob = json.dumps(dataclasses.asdict(options), sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def _parent_result_key(fingerprint, program, options) -> str:
    """The whole result key as computed before, for protocol v1."""
    blob = (
        f"v1|{fingerprint}|{_parent_kernel_hash(program)}|"
        f"{_parent_options_digest(options)}"
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:24]


class TestKeysFromTheWire:
    """A request is keyed from its JSON as sent; for everything the
    bundled clients send, that key is the one the parsed program and
    resolved options give, so existing ``results/`` entries still hit."""

    @pytest.mark.parametrize("width", [2, 4, 8, 16])
    def test_wire_kernel_hash_is_the_spec_hash(self, width):
        for key, instance in suite_by_key(width=width).items():
            program = instance.program
            sent = _over_the_wire(protocol.kernel_to_wire(program))
            wire_hash = wire_spec_hash(**protocol.kernel_fields(sent))
            assert wire_hash == kernel_spec_hash(program), key
            assert wire_hash == _parent_kernel_hash(program), key

    def test_wire_options_digest_is_the_options_digest(self):
        for options in _key_identity_options():
            sent = _over_the_wire(protocol.options_to_wire(options))
            digest = protocol.wire_options_digest(sent)
            assert digest == protocol.options_digest(options)
            assert digest == _parent_options_digest(options)

    def test_keys_match_the_parent_computation(self, registry):
        fingerprint = registry.entry_for("fusion-g3").fingerprint
        program = _vadd()
        for options in _key_identity_options():
            assert protocol.result_key(
                fingerprint,
                wire_spec_hash(**protocol.kernel_fields(
                    _over_the_wire(protocol.kernel_to_wire(program))
                )),
                protocol.wire_options_digest(
                    _over_the_wire(protocol.options_to_wire(options))
                ),
            ) == _parent_result_key(fingerprint, program, options)

    def test_entry_written_under_the_parent_key_is_served(self, registry):
        entry = registry.entry_for("fusion-g3")
        options = _quick_options()
        with_options = {"kernel": "vadd4", "stored": "with options"}
        default = {"kernel": "vmul4", "stored": "artifact options"}
        registry.store_result(
            _parent_result_key(entry.fingerprint, _vadd(), options),
            with_options,
        )
        registry.store_result(
            _parent_result_key(
                entry.fingerprint, _vmul(), entry.compiler.options
            ),
            default,
        )

        async def body(service, client):
            first = await client.compile(_vadd(), options=options)
            second = await client.compile(_vmul())  # no options field
            return first, second, service

        first, second, service = _run_with_service(registry, body)
        assert first["cached"] is True and first["result"] == with_options
        assert second["cached"] is True and second["result"] == default
        assert service.compiled == 0


class TestRegistry:
    def test_bootstrap_publishes_base_isa_artifact(self, registry):
        entry = registry.entry_for("fusion-g3")
        assert isinstance(entry, RegistryEntry)
        path = registry.artifact_path(entry.fingerprint)
        assert path.exists()
        # Second resolution is the in-memory memo (same object).
        assert registry.entry_for("fusion-g3") is entry

    def test_fresh_registry_finds_published_artifact(self, registry):
        entry = registry.entry_for("fusion-g3")
        again = ArtifactRegistry(registry.root)
        sink = ListSink()
        with use_tracer(Tracer(sink)):
            entry2 = again.entry_for("fusion-g3")
        assert entry2.fingerprint == entry.fingerprint
        assert any(
            e["name"] == "registry.artifact_hit" for e in sink.events
        )

    def test_unknown_isa_raises_with_known_names(self, registry):
        with pytest.raises(RegistryError, match="fusion-g3"):
            registry.entry_for("not-an-isa")

    def test_known_isa_without_artifact_raises(self, registry):
        with pytest.raises(RegistryError, match="no artifact published") as e:
            registry.entry_for("fusion-g3+mulsub+sqrtsgn")
        # The message names the two real ways to publish one.
        assert f"copy it into {registry.artifacts_dir}/" in str(e.value)
        assert "ArtifactRegistry.publish" in str(e.value)

    def test_corrupt_artifact_is_logged_miss_not_error(self, registry):
        registry.entry_for("fusion-g3")
        (registry.artifacts_dir / "junk.json").write_text("{truncated")
        sink = ListSink()
        with use_tracer(Tracer(sink)):
            entry = ArtifactRegistry(registry.root).entry_for("fusion-g3")
        assert entry.compiler is not None
        corrupt = [e for e in sink.events if e["name"] == "registry.corrupt"]
        assert len(corrupt) == 1
        assert "junk.json" in corrupt[0]["attrs"]["path"]

    def test_result_cache_round_trips(self, registry):
        payload = {"kernel": "k", "final_cost": 1.0}
        registry.store_result("abc", payload)
        assert registry.load_result("abc") == payload
        assert registry.load_result("missing") is None

    def test_truncated_result_is_logged_miss(self, registry):
        registry.store_result("abc", {"kernel": "k"})
        path = registry.result_path("abc")
        path.write_text(path.read_text()[:10])
        sink = ListSink()
        with use_tracer(Tracer(sink)):
            assert registry.load_result("abc") is None
        assert any(e["name"] == "registry.corrupt" for e in sink.events)

    def test_stats_counts_layers(self, registry):
        registry.entry_for("fusion-g3")
        registry.store_result("abc", {"kernel": "k"})
        stats = registry.stats()
        assert len(stats["artifacts"]) == 1
        assert stats["artifacts"][0]["isa"] == "fusion-g3"
        assert stats["n_results"] == 1
        assert stats["corrupt_artifacts"] == 0


class TestServeLoop:
    def test_compile_round_trip_matches_direct_compile_many(self, registry):
        kernel = _vadd()
        options = _quick_options()

        async def body(service, client):
            return await client.compile(kernel, options=options)

        response = _run_with_service(registry, body)
        assert response["cached"] is False and response["deduped"] is False
        direct = compile_many(
            registry.compiler_for("fusion-g3"), [kernel], options
        )[0]
        expected = protocol.compiled_to_wire(
            direct, kernel_spec_hash(kernel)
        )
        assert response["result"] == expected

    def test_concurrent_identical_requests_compile_once(
        self, registry, monkeypatch
    ):
        kernel = _vadd()
        options = _quick_options()
        gate = _Gate(monkeypatch)

        async def body(service, client):
            async with AsyncCompileClient(port=service.port) as second:
                task_a = asyncio.create_task(
                    client.compile(kernel, options=options)
                )
                await gate.held()  # a is compiling
                task_b = asyncio.create_task(
                    second.compile(kernel, options=options)
                )
                await _until(lambda: service.dedup_hits == 1)
                gate.release()
                return await asyncio.gather(task_a, task_b), service

        (first, second_), service = _run_with_service(registry, body)
        assert service.compiled == 1
        assert service.dedup_hits == 1
        assert first["result"] == second_["result"]
        assert second_["deduped"] is True

    def test_cache_hit_answers_without_pool_dispatch(self, registry):
        kernel = _vadd()
        options = _quick_options()

        async def compile_once(service, client):
            return await client.compile(kernel, options=options)

        _run_with_service(registry, compile_once)

        async def repeat(service, client):
            response = await client.compile(kernel, options=options)
            return response, service

        response, service = _run_with_service(registry, repeat)
        assert response["cached"] is True
        assert service.cache_hits == 1
        assert service.compiled == 0  # nothing reached the batcher
        assert service.batches == 0

    def test_waiting_requests_batch_together(self, registry, monkeypatch):
        options = _quick_options()
        gate = _Gate(monkeypatch)

        async def body(service, client):
            async with AsyncCompileClient(port=service.port) as second, \
                    AsyncCompileClient(port=service.port) as third:
                held = asyncio.create_task(
                    client.compile(_vsub(), options=options)
                )
                await gate.held()
                waiting = [
                    asyncio.create_task(
                        second.compile(_vadd(), options=options)
                    ),
                    asyncio.create_task(
                        third.compile(_vmul(), options=options)
                    ),
                ]
                await _until(lambda: service._queue.qsize() == 2)
                gate.release()
                responses = await asyncio.gather(held, *waiting)
            return responses, service

        sink = ListSink()
        with use_tracer(Tracer(sink)):
            responses, service = _run_with_service(registry, body)
        assert all(r["ok"] for r in responses)
        assert service.compiled == 3
        # The held job, then both jobs that waited behind it.
        assert service.batches == 2
        assert [
            e["attrs"]["n_kernels"] for e in sink.by_name("service.batch")
        ] == [1, 2]

    def test_request_to_an_idle_batcher_compiles_at_once(
        self, registry, monkeypatch
    ):
        options = _quick_options()
        gate = _Gate(monkeypatch)

        async def body(service, client):
            first = asyncio.create_task(
                client.compile(_vadd(), options=options)
            )
            await gate.held()  # compiling; no second request was sent
            assert service.compile_requests == 1
            async with AsyncCompileClient(port=service.port) as second:
                later = asyncio.create_task(
                    second.compile(_vmul(), options=options)
                )
                await _until(lambda: service._queue.qsize() == 1)
                gate.release()
                return await first, await later, service

        first, later, service = _run_with_service(registry, body)
        assert first["ok"] and later["ok"]
        assert service.batches == 2

    def test_failing_kernel_is_isolated_from_its_batchmates(
        self, registry, monkeypatch
    ):
        options = _quick_options()
        gate = _Gate(monkeypatch)

        async def body(service, client):
            async with AsyncCompileClient(port=service.port) as second, \
                    AsyncCompileClient(port=service.port) as third:
                held = asyncio.create_task(
                    client.compile(_vsub(), options=options)
                )
                await gate.held()
                good_task = asyncio.create_task(
                    second.compile(_vadd(), options=options)
                )
                bad = asyncio.create_task(
                    third.request(_compile_msg(_BAD_WIRE, options))
                )
                await _until(lambda: service._queue.qsize() == 2)
                gate.release()
                await held
                bad_exc = None
                try:
                    await bad
                except ServiceError as exc:
                    bad_exc = exc
                return await good_task, bad_exc, service

        good, bad_exc, service = _run_with_service(registry, body)
        assert service.batches == 2  # good and bad shared the second
        assert good["ok"] and good["result"]["kernel"] == "vadd4"
        assert bad_exc is not None and bad_exc.kind == "compile"
        assert "bad" in bad_exc.message

    def test_serial_batch_compiles_each_kernel_once(
        self, registry, monkeypatch
    ):
        # [ok, bad, ok] in one batch at workers=1: each kernel compiles
        # once and each request settles with its own result or error
        # (no whole-batch attempt followed by per-kernel retries).
        compiler = registry.compiler_for("fusion-g3")
        compile_kernel = compiler.compile_kernel
        calls = []

        def counting(kernel, *args, **kwargs):
            calls.append(kernel.name)
            return compile_kernel(kernel, *args, **kwargs)

        monkeypatch.setattr(compiler, "compile_kernel", counting)
        (ok_a, bad, ok_b), service = _ok_bad_ok_batch(
            registry, 1, monkeypatch
        )
        assert service.batches == 2  # hold, then [ok-a, bad, ok-b]
        assert sorted(calls) == ["bad", "hold", "ok-a", "ok-b"]
        assert ok_a["ok"] and ok_a["result"]["kernel"] == "ok-a"
        assert ok_b["ok"] and ok_b["result"]["kernel"] == "ok-b"
        assert isinstance(bad, ServiceError) and bad.kind == "compile"
        assert service.compiled == 3

    def test_fan_out_batch_compiles_each_kernel_once(
        self, registry, monkeypatch, tmp_path
    ):
        # The workers=2 twin: the kernels compile in worker processes,
        # so the compiles are counted through a file.  The bad kernel's
        # error is its own outcome; nothing is recompiled after it.
        compiler = registry.compiler_for("fusion-g3")
        log = tmp_path / "compiles.log"
        monkeypatch.setattr(
            compiler, "compile_kernel", _LoggedCompile(compiler, log)
        )
        monkeypatch.setenv("REPRO_PARALLEL", "2")
        (ok_a, bad, ok_b), service = _ok_bad_ok_batch(
            registry, 2, monkeypatch
        )
        assert service.batches == 2  # hold, then [ok-a, bad, ok-b]
        assert sorted(log.read_text().split()) == [
            "bad", "hold", "ok-a", "ok-b"
        ]
        assert ok_a["ok"] and ok_a["result"]["kernel"] == "ok-a"
        assert ok_b["ok"] and ok_b["result"]["kernel"] == "ok-b"
        assert isinstance(bad, ServiceError) and bad.kind == "compile"
        assert service.compiled == 3

    def test_graceful_shutdown_drains_pending_compiles(
        self, registry, monkeypatch
    ):
        options = _quick_options()
        gate = _Gate(monkeypatch)

        async def body(service, client):
            async with AsyncCompileClient(port=service.port) as second, \
                    AsyncCompileClient(port=service.port) as third:
                compiling = asyncio.create_task(
                    client.compile(_vadd(), options=options)
                )
                await gate.held()
                queued = asyncio.create_task(
                    second.compile(_vmul(), options=options)
                )
                await _until(lambda: service._queue.qsize() == 1)
                shutdown = await third.request({"op": "shutdown"})
                gate.release()
                return shutdown, await compiling, await queued

        shutdown, compiled, queued = _run_with_service(registry, body)
        assert shutdown["ok"] and shutdown["pending"] == 2
        assert compiled["ok"] and compiled["result"]["kernel"] == "vadd4"
        assert queued["ok"] and queued["result"]["kernel"] == "vmul4"

    def test_malformed_line_answers_error_and_connection_survives(
        self, registry
    ):
        async def body(service, client):
            client._writer.write(b"this is not json\n")
            await client._writer.drain()
            line = await client._reader.readline()
            error = protocol.decode_message(line)
            ping = await client.ping()
            return error, ping, service

        error, ping, service = _run_with_service(registry, body)
        assert error["ok"] is False
        assert error["error"]["kind"] == "protocol"
        assert service.errors == 1  # counted like any error answer
        assert ping["ok"]

    def test_unknown_isa_is_a_registry_error_response(self, registry):
        async def body(service, client):
            message = _compile_msg(_vadd(), _quick_options())
            message["isa"] = "not-an-isa"
            try:
                await client.request(message)
            except ServiceError as exc:
                return exc
            return None

        exc = _run_with_service(registry, body)
        assert exc is not None and exc.kind == "registry"

    def test_request_id_is_echoed(self, registry):
        async def body(service, client):
            return await client.request({"op": "ping", "id": "req-42"})

        assert _run_with_service(registry, body)["id"] == "req-42"

    def test_stats_op_reports_counters_and_registry(self, registry):
        kernel = _vadd()
        options = _quick_options()

        async def body(service, client):
            await client.compile(kernel, options=options)
            await client.compile(kernel, options=options)
            return (await client.request({"op": "stats"}))["stats"]

        stats = _run_with_service(registry, body)
        assert stats["compile_requests"] == 2
        assert stats["cache_hits"] == 1
        assert stats["registry"]["n_results"] == 1

    def test_truncated_registry_entries_never_take_down_the_serve_loop(
        self, registry
    ):
        """The satellite-bugfix regression: corrupt on-disk state in
        every registry layer is a logged miss; the loop recompiles."""
        kernel = _vadd()
        options = _quick_options()

        async def compile_once(service, client):
            return await client.compile(kernel, options=options)

        first = _run_with_service(registry, compile_once)

        # Truncate the cached result and drop garbage artifacts next
        # to the good one — every corrupt layer at once.
        result_files = list(registry.results_dir.glob("*.json"))
        assert result_files
        for path in result_files:
            path.write_text(path.read_text()[: 20])
        (registry.artifacts_dir / "zz-junk.json").write_text("{nope")

        sink = ListSink()
        fresh = ArtifactRegistry(registry.root)
        with use_tracer(Tracer(sink)):
            second = _run_with_service(fresh, compile_once)
        assert second["ok"] and second["cached"] is False
        assert second["result"] == first["result"]
        corrupt = [e for e in sink.events if e["name"] == "registry.corrupt"]
        assert len(corrupt) >= 2  # the result entry and the junk artifact


class TestRequestPath:
    """What a request waits for: a warm ISA is a memo lookup, a hit
    stays on the loop thread, and results live on disk only."""

    def test_resolved_isa_is_never_hashed_again(self, registry, monkeypatch):
        real = registry_module.spec_semantics_hash
        calls = []

        def counting(spec):
            calls.append(spec.name)
            return real(spec)

        monkeypatch.setattr(registry_module, "spec_semantics_hash", counting)
        options = _quick_options()

        async def body(service, client):
            await client.compile(_vadd(), options=options)
            after_first = len(calls)
            await client.compile(_vadd(), options=options)  # a hit
            await client.compile(_vmul(), options=options)  # a compile
            return after_first

        after_first = _run_with_service(registry, body)
        assert after_first >= 1
        assert len(calls) == after_first

    def test_cache_hit_makes_no_thread_hop(self, registry, monkeypatch):
        kernel = _vadd()
        options = _quick_options()
        real = asyncio.to_thread
        hops = []

        async def counting(func, *args, **kwargs):
            hops.append(func)
            return await real(func, *args, **kwargs)

        async def body(service, client):
            await client.compile(kernel, options=options)  # resolves
            monkeypatch.setattr(asyncio, "to_thread", counting)
            return await client.compile(kernel, options=options)

        response = _run_with_service(registry, body)
        assert response["cached"] is True
        assert hops == []

    def test_only_a_queued_compile_parses(self, registry, monkeypatch):
        parses, resolutions = [], []
        real_kernel = protocol.kernel_from_wire
        real_options = protocol.options_from_wire

        def counting_kernel(data):
            parses.append(data["name"])
            return real_kernel(data)

        def counting_options(data):
            resolutions.append(data)
            return real_options(data)

        monkeypatch.setattr(protocol, "kernel_from_wire", counting_kernel)
        monkeypatch.setattr(protocol, "options_from_wire", counting_options)
        gate = _Gate(monkeypatch)
        options = _quick_options()

        def counts():
            return len(parses), len(resolutions)

        async def body(service, client):
            seen = {}
            async with AsyncCompileClient(port=service.port) as second:
                first = asyncio.create_task(
                    client.compile(_vadd(), options=options)
                )
                await gate.held()
                seen["compile"] = counts()
                twin = asyncio.create_task(
                    second.compile(_vadd(), options=options)
                )
                await _until(lambda: service.dedup_hits == 1)
                seen["dedupe"] = counts()
                gate.release()
                assert (await twin)["deduped"] is True
                await first
            assert (await client.compile(_vadd(), options=options))[
                "cached"
            ]
            seen["hit"] = counts()
            await client.compile(_vmul(), options=options)
            seen["second compile"] = counts()
            return seen

        seen = _run_with_service(registry, body)
        assert seen == {
            "compile": (1, 1),
            "dedupe": (1, 1),
            "hit": (1, 1),
            "second compile": (2, 2),
        }
        assert parses == ["vadd4", "vmul4"]

    def test_respelled_term_compiles_once_under_its_own_key(self, registry):
        kernel = _vadd()
        options = _quick_options()
        wire = protocol.kernel_to_wire(kernel)
        respelled = dict(wire, term=wire["term"].replace(" ", "  "))

        async def body(service, client):
            canonical = await client.compile(kernel, options=options)
            first = await client.request(_compile_msg(respelled, options))
            again = await client.request(_compile_msg(respelled, options))
            return canonical, first, again, service

        canonical, first, again, service = _run_with_service(registry, body)
        assert canonical["cached"] is False
        assert first["cached"] is False and again["cached"] is True
        # The answer, spec hash included, is the canonical one.
        assert first["result"] == canonical["result"]
        assert again["result"] == canonical["result"]
        assert service.compiled == 2

    def test_partial_options_share_the_resolved_key(self, registry):
        kernel = _vadd()
        options = _quick_options()
        full = protocol.options_to_wire(options)
        # ``phased`` left to its default, plus a field this server
        # does not know: both resolve to ``options``.
        partial = dict(
            {k: v for k, v in full.items() if k != "phased"},
            from_a_newer_client=1,
        )
        wire = protocol.kernel_to_wire(kernel)

        async def body(service, client):
            canonical = await client.compile(kernel, options=options)
            respelled = await client.request(
                dict(_compile_msg(wire), options=partial)
            )
            return canonical, respelled, service

        canonical, respelled, service = _run_with_service(registry, body)
        assert canonical["cached"] is False
        assert respelled["cached"] is True
        assert respelled["result"] == canonical["result"]
        assert service.compiled == 1

    def test_unparsable_term_is_a_protocol_error_every_time(self, registry):
        wire = dict(protocol.kernel_to_wire(_vadd()), term="(List (Vec")

        async def body(service, client):
            errors = []
            for _ in range(2):
                with pytest.raises(ServiceError) as failed:
                    await client.request(_compile_msg(wire, _quick_options()))
                errors.append(failed.value)
            return errors, service

        # A short timeout: a repeat waiting on a dangling future would
        # answer "timeout" instead of hanging the test.
        errors, service = _run_with_service(
            registry, body, request_timeout=5.0
        )
        assert [e.kind for e in errors] == ["protocol", "protocol"]
        assert all("malformed kernel" in e.message for e in errors)
        assert service._inflight == {} and service._queue.qsize() == 0
        assert service.compiled == 0
        assert not list(registry.results_dir.glob("*.json"))

    def test_fractional_get_index_is_a_protocol_error(self, registry):
        # Read as a[1], lane 3 would compile against the wrong element.
        wire = dict(
            protocol.kernel_to_wire(_vadd()),
            term="(List (Vec (+ (Get a 0) (Get a 1)) (Get a 2) (Get a 3) "
                 "(Get a 1.5)))",
            arrays={"a": 4},
        )

        async def body(service, client):
            with pytest.raises(ServiceError) as failed:
                await client.request(_compile_msg(wire, _quick_options()))
            return failed.value, service

        error, service = _run_with_service(
            registry, body, request_timeout=5.0
        )
        assert error.kind == "protocol"
        assert "Get index must be an integer, got 1.5" in error.message
        assert service.compiled == 0
        assert not list(registry.results_dir.glob("*.json"))

    def test_bad_fields_are_protocol_errors_before_the_isa(self, registry):
        wire = protocol.kernel_to_wire(_vadd())
        no_arrays = {k: v for k, v in wire.items() if k != "arrays"}

        async def body(service, client):
            kinds = []
            for message in (
                _compile_msg(no_arrays, isa="not-an-isa"),
                dict(_compile_msg(wire, isa="not-an-isa"), options=[1]),
            ):
                with pytest.raises(ServiceError) as failed:
                    await client.request(message)
                kinds.append(failed.value.kind)
            return kinds

        assert _run_with_service(registry, body) == ["protocol", "protocol"]

    def test_emptied_results_dir_compiles_again(self, registry):
        kernel = _vadd()
        options = _quick_options()

        async def body(service, client):
            first = await client.compile(kernel, options=options)
            shutil.rmtree(registry.results_dir)
            again = await client.compile(kernel, options=options)
            return first, again, service

        first, again, service = _run_with_service(registry, body)
        assert first["cached"] is False and again["cached"] is False
        assert service.compiled == 2
        assert again["result"] == first["result"]


class TestServeLoopFaults:
    def test_failed_result_write_still_answers(self, registry, monkeypatch):
        def disk_full(key, payload):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(registry, "store_result", disk_full)
        kernel = _vadd()
        options = _quick_options()

        async def body(service, client):
            first = await client.compile(kernel, options=options)
            second = await client.compile(_vmul(), options=options)
            stats = (await client.request({"op": "stats"}))["stats"]
            return first, second, stats

        sink = ListSink()
        with use_tracer(Tracer(sink)):
            first, second, stats = _run_with_service(registry, body)
        direct = compile_many(
            registry.compiler_for("fusion-g3"), [kernel], options
        )[0]
        assert first["cached"] is False
        assert first["result"] == protocol.compiled_to_wire(
            direct, kernel_spec_hash(kernel)
        )
        assert second["ok"] and second["result"]["kernel"] == "vmul4"
        assert stats["batches"] == 2 and stats["compiled"] == 2
        assert stats["queue_depth"] == 0 and stats["inflight"] == 0
        failed = sink.by_name("registry.store_failed")
        assert len(failed) == 2
        assert "No space left on device" in failed[0]["attrs"]["error"]

    def test_group_fault_is_an_internal_error_and_batcher_survives(
        self, registry, monkeypatch
    ):
        real = server_module._compile_each
        calls = []

        def broken_once(*args, **kwargs):
            calls.append(1)
            if len(calls) == 1:
                raise RuntimeError("compile pool broke")
            return real(*args, **kwargs)

        monkeypatch.setattr(server_module, "_compile_each", broken_once)
        options = _quick_options()

        async def body(service, client):
            with pytest.raises(ServiceError) as failed:
                await client.compile(_vadd(), options=options)
            again = await client.compile(_vadd(), options=options)
            return failed.value, again, service

        error, again, service = _run_with_service(registry, body)
        assert error.kind == "internal"
        assert "compile pool broke" in error.message
        assert again["ok"] and again["cached"] is False
        assert service.batches == 2 and service.compiled == 1
        assert service._inflight == {}

    def test_lines_past_64_kib_round_trip_on_both_clients(self, registry):
        # The echoed id makes the response as long as the request.
        pad = "x" * (100 * 1024)

        def sync_ping(port):
            with CompileClient(port=port, retries=0) as client:
                return client.request({"op": "ping", "id": pad})

        async def body(service, client):
            async_reply = await client.request({"op": "ping", "id": pad})
            sync_reply = await asyncio.to_thread(sync_ping, service.port)
            return async_reply, sync_reply

        for reply in _run_with_service(registry, body):
            assert reply["ok"] and reply["id"] == pad

    def test_line_past_the_message_limit_is_a_protocol_error(
        self, registry
    ):
        async def body(service, client):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", service.port
            )
            writer.write(b"x" * (protocol.MAX_MESSAGE_BYTES + 1) + b"\n")
            await writer.drain()
            line = await reader.readline()
            try:
                rest = await reader.read()
            except ConnectionResetError:  # closed with input unread
                rest = b""
            writer.close()
            ping = await client.ping()
            return protocol.decode_message(line), rest, ping, service

        error, rest, ping, service = _run_with_service(registry, body)
        assert error["ok"] is False
        assert error["error"]["kind"] == "protocol"
        assert "exceeds" in error["error"]["message"]
        assert service.errors == 1
        assert rest == b""  # then that connection closes
        assert ping["ok"]  # and the server serves the others

    def test_over_limit_line_ends_in_a_clean_close(self, registry):
        # 16 MiB + 1 byte, then about 1 MB more before the newline: the
        # server answers, reads the rest of the line and closes, so the
        # client reads the error and then EOF, never a reset.
        line = b"x" * (protocol.MAX_MESSAGE_BYTES + 1 + 1_000_000) + b"\n"

        def exchange(port):
            with socket.create_connection(("127.0.0.1", port)) as sock:
                sock.sendall(line)
                received = b""
                while chunk := sock.recv(1 << 16):
                    received += chunk
                return received

        async def body(service, client):
            return [
                await asyncio.to_thread(exchange, service.port)
                for _ in range(3)
            ]

        for received in _run_with_service(registry, body):
            assert received.count(b"\n") == 1
            error = protocol.decode_message(received)
            assert error["error"]["kind"] == "protocol"
            assert "exceeds" in error["error"]["message"]


class TestServiceTracing:
    def test_requests_and_batches_are_recorded(self, registry):
        kernel = _vadd()
        options = _quick_options()

        async def body(service, client):
            await client.compile(kernel, options=options)
            await client.compile(kernel, options=options)

        sink = ListSink()
        with use_tracer(Tracer(sink)):
            _run_with_service(registry, body)
        requests = [
            e for e in sink.events if e["name"] == "service.request"
        ]
        assert len(requests) == 2
        assert requests[0]["attrs"]["cache_hit"] is False
        assert requests[1]["attrs"]["cache_hit"] is True
        batches = [e for e in sink.events if e["name"] == "service.batch"]
        assert len(batches) == 1
        assert batches[0]["attrs"]["n_kernels"] == 1

    def test_trace_report_grows_a_service_section(self, registry):
        from repro.tools.trace_report import phase_rollup, render_report

        kernel = _vadd()
        options = _quick_options()

        async def body(service, client):
            await client.compile(kernel, options=options)
            await client.compile(kernel, options=options)

        sink = ListSink()
        with use_tracer(Tracer(sink)):
            _run_with_service(registry, body)
        events = list(sink.events)
        out = phase_rollup(events)
        # Two requests, one answered from the result cache; one batch.
        assert re.search(r" 2  service\.request$", out, re.M)
        assert "cache_hit: no x1, yes x1" in out
        assert "deduped: no x2" in out
        assert re.search(r" 1  service\.batch$", out, re.M)
        assert "service.request" in render_report(events)


class _StubServer:
    """A TCP stub misbehaving on purpose, for client retry tests."""

    def __init__(self, behaviors):
        # behaviors: per-connection, "close" | "serve" | "stall"
        self.behaviors = list(behaviors)
        self.connections = 0
        self._sock = socket.socket()
        self._sock.bind(("127.0.0.1", 0))
        self._sock.listen(8)
        self.port = self._sock.getsockname()[1]
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        try:
            self._sock.close()
        except OSError:
            pass
        self._thread.join(timeout=5)

    def _loop(self):
        while self.behaviors:
            behavior = self.behaviors.pop(0)
            try:
                conn, _ = self._sock.accept()
            except OSError:
                return
            self.connections += 1
            with conn:
                if behavior == "close":
                    continue
                if behavior == "stall":
                    time.sleep(0.8)
                    continue
                file = conn.makefile("rb")
                line = file.readline()
                if line:
                    conn.sendall(
                        json.dumps(
                            {"ok": True, "op": "ping", "protocol": 1}
                        ).encode() + b"\n"
                    )


class TestClientRetry:
    def test_reconnects_after_server_drops_the_connection(self):
        with _StubServer(["close", "serve"]) as stub:
            client = CompileClient(port=stub.port, retries=2, timeout=5)
            with client:
                response = client.ping()
            assert response["ok"]
            assert stub.connections == 2

    def test_gives_up_after_exhausting_retries(self):
        with _StubServer(["close", "close", "close", "close"]) as stub:
            client = CompileClient(port=stub.port, retries=2, timeout=5)
            with pytest.raises(ConnectionError, match="3 attempts"):
                client.ping()

    def test_times_out_on_a_stalled_server_and_recovers(self):
        # The stub stalls its first connection for 0.8s — longer than
        # one client timeout, shorter than two — so attempt 1 times
        # out and attempt 2 lands after the stall has cleared.
        with _StubServer(["stall", "serve"]) as stub:
            client = CompileClient(port=stub.port, retries=1, timeout=0.6)
            with client:
                assert client.ping()["ok"]
            assert stub.connections == 2


class TestBackgroundServerAndCli:
    def test_sync_client_against_background_server(self, registry):
        kernel = _vadd()
        options = _quick_options()
        with BackgroundServer(
            config=ServiceConfig(port=0), registry=registry
        ) as server:
            with CompileClient(port=server.port) as client:
                cold = client.compile(kernel, options=options)
                warm = client.compile(kernel, options=options)
        assert cold["cached"] is False
        assert warm["cached"] is True
        assert cold["result"] == warm["result"]

    def test_client_cli_quickstart_flow(self, registry, capsys):
        with BackgroundServer(
            config=ServiceConfig(port=0), registry=registry
        ) as server:
            from repro.service.client import main as client_main

            assert client_main(
                ["--port", str(server.port), "--ping"]
            ) == 0
        assert "server up (protocol v1)" in capsys.readouterr().out

    def test_shutdown_op_stops_background_server(self, registry):
        server = BackgroundServer(
            config=ServiceConfig(port=0), registry=registry
        )
        with server:
            with CompileClient(port=server.port) as client:
                response = client.shutdown()
            assert response["ok"]
            server._thread.join(timeout=10)
            assert not server._thread.is_alive()
