"""Clients for the compile service, sync and async, plus a tiny CLI.

The sync :class:`CompileClient` is a plain-socket client for scripts,
tests, and the load-generator benchmark; the async
:class:`AsyncCompileClient` speaks the same protocol over asyncio
streams for callers already inside an event loop.  Both hold one
persistent connection and frame requests as newline-delimited JSON
(:mod:`repro.service.protocol`).

The sync client retries transport failures by reconnecting and
*resending* the request — safe against double-compiles because the
server dedupes in-flight requests and answers repeats from its result
cache, so a resend is at worst a cache hit.

Run ``python -m repro.service.client --kernel qprod`` against a live
server for the quickstart flow (trace a suite kernel locally, compile
it remotely, print the result summary) — see ``docs/service.md``.
"""

from __future__ import annotations

import argparse
import json
import socket
import sys

from repro.service import protocol
from repro.service.server import DEFAULT_PORT, _env_float, _env_int

__all__ = [
    "AsyncCompileClient",
    "CompileClient",
    "ServiceError",
    "main",
]


class ServiceError(RuntimeError):
    """The server answered with an error response."""

    def __init__(self, kind: str, message: str):
        super().__init__(f"[{kind}] {message}")
        self.kind = kind
        self.message = message


def _raise_on_error(response: dict) -> dict:
    if not isinstance(response, dict):
        raise ServiceError("protocol", f"bad response: {response!r}")
    if not response.get("ok"):
        error = response.get("error") or {}
        raise ServiceError(
            str(error.get("kind", "unknown")),
            str(error.get("message", "unspecified server error")),
        )
    return response


def _kernel_wire(kernel) -> dict:
    """Accept a traced program, a suite instance, or a ready wire dict."""
    if isinstance(kernel, dict):
        return kernel
    program = getattr(kernel, "program", kernel)  # KernelInstance unwrap
    return protocol.kernel_to_wire(program)


class CompileClient:
    """Synchronous client: one socket, blocking requests, auto-retry.

    ``timeout`` is the per-request socket timeout (defaults to
    ``REPRO_SERVICE_TIMEOUT`` + slack so the server's own compile
    timeout fires first); ``retries`` is how many times a transport
    failure is retried on a fresh connection before raising.  Usable
    as a context manager.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: "int | None" = None,
        timeout: "float | None" = None,
        retries: int = 2,
    ):
        """``port`` defaults to ``REPRO_SERVICE_PORT`` (else 7341)."""
        self.host = host
        self.port = (
            port
            if port is not None
            else _env_int("REPRO_SERVICE_PORT", DEFAULT_PORT)
        )
        self.timeout = (
            timeout
            if timeout is not None
            else _env_float("REPRO_SERVICE_TIMEOUT", 120.0) + 10.0
        )
        self.retries = retries
        self._sock: "socket.socket | None" = None
        self._file = None

    def __enter__(self) -> "CompileClient":
        """Connect eagerly (requests also connect lazily)."""
        self._connect()
        return self

    def __exit__(self, *exc) -> None:
        """Close the connection."""
        self.close()

    def _connect(self) -> None:
        self.close()
        self._sock = socket.create_connection(
            (self.host, self.port), timeout=self.timeout
        )
        self._file = self._sock.makefile("rb")

    def close(self) -> None:
        """Drop the connection (it reopens on the next request)."""
        if self._file is not None:
            try:
                self._file.close()
            except OSError:
                pass
            self._file = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def request(self, message: dict) -> dict:
        """Send one message, return the (ok-checked) response.

        Transport failures — connection refused mid-stream, reset,
        EOF before a response line — reconnect and resend up to
        ``retries`` times; the final failure re-raises.
        """
        last: "Exception | None" = None
        for attempt in range(self.retries + 1):
            try:
                if self._sock is None:
                    self._connect()
                self._sock.sendall(protocol.encode_message(message))
                line = self._file.readline()
                if not line:
                    raise ConnectionError("server closed the connection")
                return _raise_on_error(protocol.decode_message(line))
            except (ConnectionError, socket.timeout, OSError) as exc:
                last = exc
                self.close()
        raise ConnectionError(
            f"request failed after {self.retries + 1} attempts: {last}"
        )

    def ping(self) -> dict:
        """Round-trip a ``ping``; returns the server's response."""
        return self.request({"op": "ping"})

    def stats(self) -> dict:
        """The server's counters and registry contents."""
        return self.request({"op": "stats"})["stats"]

    def shutdown(self) -> dict:
        """Ask the server to drain and exit; returns its last response."""
        return self.request({"op": "shutdown"})

    def compile(
        self,
        kernel,
        isa: str = "fusion-g3",
        options=None,
    ) -> dict:
        """Compile one kernel; returns the full ``ok`` response.

        ``kernel`` may be a traced
        :class:`~repro.compiler.frontend.KernelProgram`, a suite
        :class:`~repro.kernels.specs.KernelInstance`, or an
        already-encoded wire dict.  The response carries ``result``
        (the compiled payload), plus ``cached``/``deduped`` flags.
        """
        message = {
            "op": "compile",
            "isa": isa,
            "kernel": _kernel_wire(kernel),
        }
        if options is not None:
            message["options"] = protocol.options_to_wire(options)
        return self.request(message)


class AsyncCompileClient:
    """Asyncio client over one stream connection.

    Mirrors :class:`CompileClient`'s surface with coroutines; no
    automatic retry (async callers compose their own). Usable as an
    async context manager.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: "int | None" = None,
    ):
        """``port`` defaults to ``REPRO_SERVICE_PORT`` (else 7341)."""
        self.host = host
        self.port = (
            port
            if port is not None
            else _env_int("REPRO_SERVICE_PORT", DEFAULT_PORT)
        )
        self._reader = None
        self._writer = None

    async def __aenter__(self) -> "AsyncCompileClient":
        """Open the connection."""
        await self.connect()
        return self

    async def __aexit__(self, *exc) -> None:
        """Close the connection."""
        await self.aclose()

    async def connect(self) -> None:
        """Open (or reopen) the stream connection."""
        import asyncio

        await self.aclose()
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port, limit=protocol.MAX_MESSAGE_BYTES
        )

    async def aclose(self) -> None:
        """Close the stream connection, if open."""
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self._writer = None
            self._reader = None

    async def request(self, message: dict) -> dict:
        """Send one message, await the (ok-checked) response."""
        if self._writer is None:
            await self.connect()
        self._writer.write(protocol.encode_message(message))
        await self._writer.drain()
        line = await self._reader.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return _raise_on_error(protocol.decode_message(line))

    async def ping(self) -> dict:
        """Round-trip a ``ping``."""
        return await self.request({"op": "ping"})

    async def compile(self, kernel, isa: str = "fusion-g3", options=None) -> dict:
        """Compile one kernel; returns the full ``ok`` response."""
        message = {
            "op": "compile",
            "isa": isa,
            "kernel": _kernel_wire(kernel),
        }
        if options is not None:
            message["options"] = protocol.options_to_wire(options)
        return await self.request(message)


def _suite_kernel(key: str, width: int | None = None):
    from repro.kernels.suite import default_suite

    suite = default_suite(width)
    for instance in suite:
        if instance.key == key:
            return instance
    known = ", ".join(sorted(i.key for i in suite))
    raise SystemExit(f"unknown suite kernel {key!r} (known: {known})")


def main(argv=None) -> int:
    """``python -m repro.service.client``: the quickstart client flow."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.service.client",
        description="Compile a suite kernel against a running repro-serve.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=None,
        help=f"server port (default REPRO_SERVICE_PORT or {DEFAULT_PORT})",
    )
    parser.add_argument(
        "--kernel", default=None,
        help="suite kernel key to compile (e.g. qprod, matmul-2x2x2)",
    )
    parser.add_argument(
        "--isa", default="fusion-g3", help="registry ISA name"
    )
    parser.add_argument(
        "--width", type=int, default=None,
        help="vector width to trace the suite kernel at (must match "
        "the --isa spec's width; default REPRO_VECTOR_WIDTH or 4)",
    )
    parser.add_argument(
        "--ping", action="store_true", help="just check the server is up"
    )
    parser.add_argument(
        "--stats", action="store_true", help="print server/registry stats"
    )
    parser.add_argument(
        "--shutdown", action="store_true", help="gracefully stop the server"
    )
    args = parser.parse_args(argv)
    client = CompileClient(host=args.host, port=args.port)
    did_something = False
    with client:
        if args.ping:
            response = client.ping()
            print(f"server up (protocol v{response['protocol']})")
            did_something = True
        if args.kernel:
            instance = _suite_kernel(args.kernel, args.width)
            response = client.compile(instance, isa=args.isa)
            result = response["result"]
            source = "cache" if response["cached"] else (
                "dedupe" if response["deduped"] else "compile"
            )
            print(
                f"{result['kernel']}: cost {result['initial_cost']:.1f} -> "
                f"{result['final_cost']:.1f} in {result['n_rounds']} rounds, "
                f"{len(result['instructions'])} instructions [{source}]"
            )
            did_something = True
        if args.stats:
            print(json.dumps(client.stats(), indent=2, sort_keys=True))
            did_something = True
        if args.shutdown:
            response = client.shutdown()
            print(f"server draining ({response['pending']} in flight)")
            did_something = True
    if not did_something:
        parser.error("nothing to do: pass --ping, --kernel, --stats, or --shutdown")
    return 0


if __name__ == "__main__":
    sys.exit(main())
