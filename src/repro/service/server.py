"""The async compile server: ``repro-serve``.

A long-running, stdlib-only asyncio TCP server speaking the
newline-delimited JSON protocol (:mod:`repro.service.protocol`).  One
process serves compile requests for every ISA the backing
:class:`~repro.service.registry.ArtifactRegistry` can resolve,
amortizing the expensive offline stage across all traffic — the
paper's two-stage split turned into a service.

Request handling is three-tiered, cheapest first:

1. **result cache** — a repeat request (same ISA artifact, the same
   kernel as sent, the same resolved options) is answered from the
   registry's content-addressed result store.  The key is hashed
   from the request's own ``kernel`` and ``options`` JSON, so a hit
   parses no term and touches no compile pool (and resolves no
   options when, as from the bundled clients, the options dict names
   every field);
2. **in-flight dedupe** — concurrent identical requests share one
   compile: the first creates a future keyed by the result key,
   later arrivals await the same future (and parse nothing either);
3. **batched compile** — only now is the kernel's term parsed and
   its options resolved; cache misses queue up; a batcher task
   takes the first job plus every job already waiting (it never
   waits for more), groups them by (compiler, options), and compiles
   each kernel of a group through
   :func:`~repro.compiler.pipeline.compile_many` (one kernel per
   worker process when ``workers`` > 1).  Each kernel's outcome is
   its result or its own error, so one bad request never poisons its
   batchmates and no kernel compiles twice.

A warm request stays on the loop thread: the resolved ISA is a
memo lookup and the result file is read and written in place.  Only
an ISA's first resolution (which may bootstrap it) and the compiles
themselves run on worker threads, because a thread hop waits for the
interpreter lock whenever a compile thread holds it.

Every request and batch is tracer-recorded (``service.request``,
``service.batch``), and ``trace_report``'s per-phase rollup shows
their counts, cache-hit and dedupe tallies, queue wait and batch
sizes.  Operational semantics (protocol, registry layout, failure
modes, capacity planning) are documented in ``docs/service.md``.
"""

from __future__ import annotations

import argparse
import asyncio
import os
import sys
import threading
import time

from repro.obs import current_tracer

from repro.service import protocol
from repro.service.registry import ArtifactRegistry, RegistryError

__all__ = [
    "BackgroundServer",
    "CompileService",
    "DEFAULT_PORT",
    "ServiceConfig",
    "main",
    "serve",
]

#: Default TCP port (overridden by ``REPRO_SERVICE_PORT``).
DEFAULT_PORT = 7341

# How much of an over-limit line's remainder the server reads and drops
# before closing, so the close is a clean EOF and not a reset over
# unread input.  A sender still going past either bound gets the reset.
_DISCARD_BYTES = 2 * protocol.MAX_MESSAGE_BYTES
_DISCARD_SECONDS = 10.0


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{name} must be an integer, got {raw!r}")


def _env_float(name: str, default: float) -> float:
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    try:
        return float(raw)
    except ValueError:
        raise ValueError(f"{name} must be a number, got {raw!r}")


async def _discard_line(reader) -> None:
    """Read and drop input up to the next newline or EOF, within
    ``_DISCARD_BYTES`` and ``_DISCARD_SECONDS``."""

    async def drain() -> None:
        left = _DISCARD_BYTES
        while left > 0:
            chunk = await reader.read(min(left, 1 << 16))
            if not chunk or b"\n" in chunk:
                return
            left -= len(chunk)

    try:
        await asyncio.wait_for(drain(), _DISCARD_SECONDS)
    except (asyncio.TimeoutError, ConnectionError):
        pass


class ServiceConfig:
    """Settings of one server process.

    Defaults come from the environment (``REPRO_SERVICE_PORT``,
    ``REPRO_SERVICE_WORKERS``, ``REPRO_SERVICE_TIMEOUT`` — see
    ``docs/env_flags.md``); constructor arguments override.  Batching
    has no setting: a batch is whatever waited while the previous one
    compiled, so a request never waits for work that has not arrived.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: "int | None" = None,
        workers: "int | None" = None,
        request_timeout: "float | None" = None,
    ):
        """``port`` 0 asks the OS for a free port (tests);
        ``workers`` ≤ 1 compiles batches serially in the server
        process; ``request_timeout`` is how long a compile request
        waits for its answer (seconds)."""
        self.host = host
        self.port = (
            port
            if port is not None
            else _env_int("REPRO_SERVICE_PORT", DEFAULT_PORT)
        )
        self.workers = (
            workers
            if workers is not None
            else _env_int("REPRO_SERVICE_WORKERS", 1)
        )
        self.request_timeout = (
            request_timeout
            if request_timeout is not None
            else _env_float("REPRO_SERVICE_TIMEOUT", 120.0)
        )


def _compile_each(compiler, programs: list, options, jobs: int = 1) -> list:
    """Compile ``programs``, one outcome per kernel, in order.

    Each slot holds the kernel's ``CompiledKernel`` or the exception
    its compile raised, so one bad kernel neither fails nor recompiles
    its batchmates.  ``jobs`` > 1 fans the kernels out across worker
    processes (:func:`~repro.bench.parallel.parallel_starmap`), whose
    tasks return the exception instead of raising it.
    """
    from repro.bench.parallel import parallel_starmap

    return parallel_starmap(
        _compile_outcome,
        [(compiler, program, options) for program in programs],
        max_workers=jobs,
    )


def _compile_outcome(compiler, program, options):
    """One kernel's ``CompiledKernel``, or the exception its compile
    raised (module-level: fan-out tasks must pickle)."""
    from repro.compiler.pipeline import compile_many

    try:
        return compile_many(compiler, [program], options, True, 1)[0]
    except Exception as exc:
        return exc


class _Job:
    """One queued compile: request context plus its shared future."""

    __slots__ = (
        "key",
        "program",
        "entry",
        "options",
        "opts_digest",
        "future",
        "enqueued",
        "dequeued",
    )

    def __init__(self, key, program, entry, options, opts_digest, future):
        self.key = key
        self.program = program
        self.entry = entry
        self.options = options
        self.opts_digest = opts_digest
        self.future = future
        self.enqueued = time.perf_counter()
        self.dequeued = self.enqueued


class CompileService:
    """The serve loop: connections, dedupe, batcher, and counters.

    Create one, then either ``asyncio.run(service.run())`` (what
    :func:`serve` and the CLI do) or drive it from a background
    thread via :class:`BackgroundServer` (what the tests and the
    load-generator benchmark do).
    """

    def __init__(
        self,
        config: "ServiceConfig | None" = None,
        registry: "ArtifactRegistry | None" = None,
    ):
        """``registry`` defaults to the environment-resolved root
        (``REPRO_SERVICE_CACHE``)."""
        self.config = config or ServiceConfig()
        self.registry = registry or ArtifactRegistry()
        self.port: "int | None" = None  # actual port once listening
        self.requests = 0
        self.compile_requests = 0
        self.cache_hits = 0
        self.dedup_hits = 0
        self.compiled = 0
        self.batches = 0
        self.errors = 0
        self._queue: "asyncio.Queue[_Job]" = asyncio.Queue()
        self._inflight: dict = {}
        self._writers: set = set()
        self._active = 0
        self._idle = asyncio.Event()
        self._idle.set()
        self._stop = asyncio.Event()
        self._ready = asyncio.Event()

    # -- lifecycle -------------------------------------------------------

    async def run(self) -> None:
        """Serve until :meth:`request_stop` (or a ``shutdown`` op).

        Shutdown is graceful: the listener closes first, every
        already-accepted request drains through the batcher and gets
        its response, then connections close and the loop returns.
        """
        server = await asyncio.start_server(
            self._handle_conn,
            self.config.host,
            self.config.port,
            limit=protocol.MAX_MESSAGE_BYTES,
        )
        self.port = server.sockets[0].getsockname()[1]
        batcher = asyncio.create_task(self._batcher())
        self._ready.set()
        current_tracer().record(
            "service.start", 0.0, host=self.config.host, port=self.port
        )
        try:
            await self._stop.wait()
        finally:
            server.close()
            await server.wait_closed()
            await self._idle.wait()  # drain accepted requests
            batcher.cancel()
            for writer in list(self._writers):
                writer.close()
            self._ready.clear()
            current_tracer().record(
                "service.stop", 0.0, requests=self.requests
            )

    def request_stop(self) -> None:
        """Begin graceful shutdown (same effect as a ``shutdown`` op)."""
        self._stop.set()

    # -- connection handling ---------------------------------------------

    async def _handle_conn(self, reader, writer):
        self._writers.add(writer)
        try:
            while True:
                try:
                    line = await reader.readuntil(b"\n")
                except asyncio.IncompleteReadError as exc:
                    line = exc.partial  # EOF; a last unterminated line
                except asyncio.LimitOverrunError:
                    # Past the stream limit, framing is lost: answer,
                    # drop the rest of the line, then close.
                    line = None
                except ConnectionError:
                    break
                if line == b"":
                    break
                self._active += 1
                self._idle.clear()
                try:
                    response = await self._handle_line(line)
                    writer.write(protocol.encode_message(response))
                    await writer.drain()
                except (ConnectionError, OSError):
                    break
                finally:
                    self._active -= 1
                    if self._active == 0:
                        self._idle.set()
                if line is None:
                    await _discard_line(reader)
                    break
        finally:
            self._writers.discard(writer)
            writer.close()

    async def _handle_line(self, line: "bytes | None") -> dict:
        """Answer one wire line; ``None`` is a line past the limit."""
        self.requests += 1
        try:
            if line is None:
                raise protocol.ProtocolError(
                    f"message exceeds {protocol.MAX_MESSAGE_BYTES} bytes"
                )
            message = protocol.decode_message(line)
        except protocol.ProtocolError as exc:
            self.errors += 1
            return self._error("protocol", str(exc))
        op = message.get("op")
        request_id = message.get("id")
        try:
            if op == "ping":
                response = {
                    "ok": True,
                    "op": "ping",
                    "protocol": protocol.PROTOCOL_VERSION,
                }
            elif op == "stats":
                response = {"ok": True, "op": "stats", "stats": await self._stats()}
            elif op == "shutdown":
                response = {
                    "ok": True,
                    "op": "shutdown",
                    "pending": len(self._inflight),
                }
                self._stop.set()
            elif op == "compile":
                response = await self._handle_compile(message)
            else:
                response = self._error("protocol", f"unknown op {op!r}")
        except protocol.ProtocolError as exc:
            response = self._error("protocol", str(exc))
        except RegistryError as exc:
            response = self._error("registry", str(exc))
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # a bug must answer, not hang clients
            response = self._error("internal", f"{type(exc).__name__}: {exc}")
        if request_id is not None:
            response["id"] = request_id
        if not response.get("ok"):
            self.errors += 1
        return response

    def _error(self, kind: str, message: str) -> dict:
        return {"ok": False, "error": {"kind": kind, "message": message}}

    # -- the compile op --------------------------------------------------

    async def _handle_compile(self, message: dict) -> dict:
        from repro.compiler.pipeline import KernelCompileError
        from repro.kernels.specs import wire_spec_hash

        t0 = time.perf_counter()
        self.compile_requests += 1
        # Validate both fields before the ISA resolves; the key is
        # hashed from them unparsed, and only a queued compile parses.
        if "kernel" not in message:
            raise protocol.ProtocolError("compile request needs a kernel")
        fields = protocol.kernel_fields(message["kernel"])
        explicit = message.get("options")
        opts_digest = (
            protocol.wire_options_digest(explicit)
            if explicit is not None
            else None
        )
        isa = str(message.get("isa", "fusion-g3"))
        entry = self.registry.resolved(isa)
        if entry is None:  # first request: may bootstrap for seconds
            entry = await asyncio.to_thread(self.registry.entry_for, isa)
        if opts_digest is None:
            opts_digest = protocol.options_digest(entry.compiler.options)
        key = protocol.result_key(
            entry.fingerprint, wire_spec_hash(**fields), opts_digest
        )
        name = fields["name"]

        cached = self.registry.load_result(key)
        if cached is not None:
            self.cache_hits += 1
            current_tracer().record(
                "service.request",
                time.perf_counter() - t0,
                kernel=name,
                cache_hit=True,
                deduped=False,
                queue_s=0.0,
            )
            return {
                "ok": True,
                "result": cached,
                "cached": True,
                "deduped": False,
            }

        deduped = key in self._inflight
        if deduped:
            self.dedup_hits += 1
            future = self._inflight[key]
            job = None
        else:
            # Parse before the future exists, so a term that fails to
            # parse leaves nothing for a repeat to wait on.
            program = protocol.kernel_from_wire(fields)
            options = (
                protocol.options_from_wire(explicit)
                if explicit is not None
                else None
            )
            future = asyncio.get_running_loop().create_future()
            self._inflight[key] = future
            job = _Job(key, program, entry, options, opts_digest, future)
            await self._queue.put(job)

        try:
            payload = await asyncio.wait_for(
                asyncio.shield(future), self.config.request_timeout
            )
        except asyncio.TimeoutError:
            return self._error(
                "timeout",
                f"compile of {name!r} exceeded "
                f"{self.config.request_timeout}s",
            )
        except KernelCompileError as exc:
            return self._error("compile", str(exc))
        queue_s = (job.dequeued - job.enqueued) if job is not None else 0.0
        current_tracer().record(
            "service.request",
            time.perf_counter() - t0,
            kernel=name,
            cache_hit=False,
            deduped=deduped,
            queue_s=queue_s,
        )
        return {
            "ok": True,
            "result": payload,
            "cached": False,
            "deduped": deduped,
        }

    # -- the batcher -----------------------------------------------------

    async def _batcher(self) -> None:
        while True:
            # The first job plus every job already waiting; never wait
            # for more.
            batch = [await self._queue.get()]
            while not self._queue.empty():
                batch.append(self._queue.get_nowait())
            now = time.perf_counter()
            for j in batch:
                j.dequeued = now
            # Group by (compiler identity, resolved-options digest):
            # compile_many takes one compiler and one options value per
            # call, and the digest makes equal-but-distinct options
            # objects coalesce.
            groups: dict = {}
            for j in batch:
                groups.setdefault(
                    (id(j.entry.compiler), j.opts_digest), []
                ).append(j)
            for group in groups.values():
                await self._compile_group(group)
            self.batches += 1

    async def _compile_group(self, group: "list[_Job]") -> None:
        entry = group[0].entry
        options = group[0].options
        programs = [j.program for j in group]
        t0 = time.perf_counter()
        jobs = self.config.workers if len(group) > 1 else 1
        try:
            outcomes = await asyncio.to_thread(
                _compile_each, entry.compiler, programs, options, jobs
            )
            for j, outcome in zip(group, outcomes):
                self._settle(j, outcome)
        except Exception as exc:
            # A fault outside the kernels' own compiles: every request
            # still waiting gets it as an internal error, and the
            # batcher lives on to serve the next batch.
            for j in group:
                if not j.future.done():
                    self._settle(j, exc)
        current_tracer().record(
            "service.batch",
            time.perf_counter() - t0,
            n_kernels=len(group),
            isa=entry.isa,
        )

    def _settle(self, job: "_Job", outcome) -> None:
        """Answer ``job`` with its compiled kernel (stored in the result
        cache first) or the exception its compile raised.  The answer's
        ``spec_hash`` is the parsed program's, so it does not depend on
        how the request spelled the kernel."""
        from repro.kernels.specs import kernel_spec_hash

        if isinstance(outcome, Exception):
            self._inflight.pop(job.key, None)
            if not job.future.done():
                job.future.set_exception(outcome)
            return
        payload = protocol.compiled_to_wire(
            outcome, kernel_spec_hash(job.program)
        )
        try:
            self.registry.store_result(job.key, payload)
        except OSError as exc:
            # The answer stands without its cache entry; a repeat
            # request compiles again.
            current_tracer().record(
                "registry.store_failed", 0.0,
                key=job.key, error=f"{type(exc).__name__}: {exc}",
            )
        self.compiled += 1
        self._inflight.pop(job.key, None)
        if not job.future.done():
            job.future.set_result(payload)

    # -- introspection ---------------------------------------------------

    async def _stats(self) -> dict:
        registry = await asyncio.to_thread(self.registry.stats)
        return {
            "requests": self.requests,
            "compile_requests": self.compile_requests,
            "cache_hits": self.cache_hits,
            "dedup_hits": self.dedup_hits,
            "compiled": self.compiled,
            "batches": self.batches,
            "errors": self.errors,
            "queue_depth": self._queue.qsize(),
            "inflight": len(self._inflight),
            "registry": registry,
        }


def serve(
    config: "ServiceConfig | None" = None,
    registry: "ArtifactRegistry | None" = None,
) -> None:
    """Run a compile server in the foreground until shutdown."""
    asyncio.run(CompileService(config=config, registry=registry).run())


class BackgroundServer:
    """A compile server on a daemon thread — tests and benchmarks.

    Context manager: entering starts the server (port 0 picks a free
    port; read the resolved one off ``.port``), exiting requests a
    graceful shutdown and joins the thread.
    """

    def __init__(
        self,
        config: "ServiceConfig | None" = None,
        registry: "ArtifactRegistry | None" = None,
    ):
        """Arguments are forwarded to :class:`CompileService`."""
        self._config = config or ServiceConfig(port=0)
        self._registry = registry
        self.service: "CompileService | None" = None
        self.port: "int | None" = None
        self._thread: "threading.Thread | None" = None
        self._loop = None
        self._started = threading.Event()

    def _main(self) -> None:
        async def body():
            self.service = CompileService(
                config=self._config, registry=self._registry
            )
            self._loop = asyncio.get_running_loop()
            task = asyncio.create_task(self.service.run())
            await self.service._ready.wait()
            self.port = self.service.port
            self._started.set()
            await task

        try:
            asyncio.run(body())
        finally:
            self._started.set()  # never leave __enter__ hanging

    def __enter__(self) -> "BackgroundServer":
        """Start the server thread; returns once it is accepting."""
        self._thread = threading.Thread(target=self._main, daemon=True)
        self._thread.start()
        self._started.wait(timeout=30)
        if self.port is None:
            raise RuntimeError("compile server failed to start")
        return self

    def __exit__(self, *exc) -> None:
        """Gracefully stop the server and join its thread."""
        self.stop()

    def stop(self) -> None:
        """Request shutdown and wait for the serve loop to drain."""
        if self.service is not None and self._loop is not None:
            try:
                self._loop.call_soon_threadsafe(self.service.request_stop)
            except RuntimeError:
                pass  # loop already closed
        if self._thread is not None:
            self._thread.join(timeout=30)


def main(argv=None) -> int:
    """``repro-serve``: start a compile server from the command line."""
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description=(
            "Long-running compile server: newline-delimited JSON over "
            "TCP, backed by the on-disk artifact registry."
        ),
    )
    parser.add_argument(
        "--host", default="127.0.0.1", help="bind address (default %(default)s)"
    )
    parser.add_argument(
        "--port",
        type=int,
        default=None,
        help=f"TCP port (default REPRO_SERVICE_PORT or {DEFAULT_PORT}; 0 = any)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="compile pool size per batch (default REPRO_SERVICE_WORKERS or 1)",
    )
    parser.add_argument(
        "--registry",
        default=None,
        help="registry root (default REPRO_SERVICE_CACHE or the artifact "
        "cache's service/ subdirectory)",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="per-request compile timeout in seconds "
        "(default REPRO_SERVICE_TIMEOUT or 120)",
    )
    args = parser.parse_args(argv)
    registry = (
        ArtifactRegistry(args.registry) if args.registry else ArtifactRegistry()
    )
    config = ServiceConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        request_timeout=args.timeout,
    )
    service = CompileService(config=config, registry=registry)

    async def announced():
        task = asyncio.create_task(service.run())
        await service._ready.wait()
        print(
            f"repro-serve: listening on {config.host}:{service.port} "
            f"(registry {service.registry.root})",
            flush=True,
        )
        await task

    try:
        asyncio.run(announced())
    except KeyboardInterrupt:
        pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
