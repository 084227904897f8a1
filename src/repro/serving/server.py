"""Newline-delimited-JSON TCP front end over :class:`InferenceService`.

Stdlib-only transport (asyncio streams) so the serving path adds no
dependencies.  Protocol — one JSON object per line, each answered with
one JSON line:

    → {"id": 7, "features": [0.1, 0.2, ...]}
    ← {"id": 7, "prediction": 3}

A request may carry ``"deadline_ms"`` to bound how long it is allowed to
wait for a batch slot (see ``MicrobatchConfig.deadline_ms``).  A
``{"op": "health"}`` request returns the service's liveness snapshot
instead of a prediction: running state, queue depth, request accounting,
the registry's fleet snapshot, and — when the server scrubs (a positive
``scrub_interval``) — the scrubber's status, including the last detected
error and last repair (``null`` when it does not).

Fleet protocol (every service serves a
:class:`~repro.serving.registry.ModelRegistry`; a single model is the
one tenant ``InferenceService.DEFAULT_TENANT``, which a request without
a tenant name addresses): a predict request may add a tenant name, and
``"x"`` is accepted as an alias for ``"features"`` (the compact form
fleet clients use):

    → {"op": "predict", "tenant": "edge-7", "x": [0.1, 0.2, ...]}
    ← {"id": null, "tenant": "edge-7", "prediction": 3}

Admin ops (all answered on the same connection, interleaved with
traffic):

* ``{"op": "publish", "tenant": ..., "path": ...}`` — load a saved model
  and hot-swap it in as the tenant's next version.  The load + table
  build run in a worker thread, so in-flight predicts keep batching; the
  version flip itself is atomic.  Answers ``{"tenant", "version",
  "bound", "table_bytes"}``.
* ``{"op": "list"}`` — the registry's fleet snapshot (per-tenant
  version/binding plus cache-budget accounting).
* ``{"op": "evict", "tenant": ...}`` — drop the tenant's cached table
  set (the model stays registered; next hit rebuilds lazily).
* ``{"op": "partial_fit", "tenant": ..., "x": [[...], ...], "y": [...]}``
  — apply a labelled batch to the tenant's live model (``features``/
  ``labels`` long-form aliases accepted).  Gated behind
  ``--partial-fit``; requires an online-capable model, else answers the
  ``unsupported`` error code.  Serialized against predict flushes by the
  service's collector, so clients never observe a half-applied update.

Error responses carry a machine-routable ``error`` code plus a
human-readable ``detail``:

* ``invalid`` — malformed JSON, missing/NaN features, wrong width
  (maps from ``ValueError``); the connection stays open.
* ``overloaded`` — admission control rejected
  (:class:`ServiceOverloadedError`, including its per-tenant-quota
  subclass); the client should back off and retry.
* ``unknown_tenant`` — no model registered under the requested name
  (:class:`~repro.serving.registry.UnknownTenantError`).
* ``deadline`` — the request expired before its batch flushed
  (:class:`~repro.resilience.retry.DeadlineExceededError`); the model
  never ran for it.
* ``closed`` — the service stopped while the request was in flight.

Every connection shares the one microbatcher, so concurrent clients are
exactly what fills its batches.  A client that disconnects with a
request in flight does not disturb the service: the batch completes and
drains normally, the unanswerable response is accounted under
:attr:`ServingServer.cancelled`, and the handler closes quietly — no
stack traces for a routine hangup.

Resilience wiring: a positive ``scrub_interval`` co-hosts integrity
scrubbing with serving — the server builds one
:class:`~repro.resilience.integrity.FleetScrubber` over the registry it
serves and runs it on the event loop, ticking only while the request
queue is empty, so verification steals idle cycles instead of taxing p99
latency under load.
"""

from __future__ import annotations

import asyncio
import json
import signal
from collections.abc import Awaitable, Callable

from repro import telemetry
from repro.lookhd.persistence import ArtifactError, load_classifier
from repro.resilience.integrity import FleetScrubber
from repro.resilience.retry import DeadlineExceededError
from repro.serving.registry import UnknownTenantError
from repro.serving.service import (
    InferenceService,
    ServiceClosedError,
    ServiceOverloadedError,
    UpdateNotSupportedError,
)


async def wait_for_shutdown_signal() -> None:
    """Return once SIGINT or SIGTERM arrives.

    Where the loop has no signal-handler support, Ctrl-C surfaces as
    ``KeyboardInterrupt`` from ``asyncio.run`` instead.
    """
    shutdown = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(signum, shutdown.set)
        except (NotImplementedError, RuntimeError):
            pass
    await shutdown.wait()


async def serve_pipelined(
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    answer: Callable[[bytes], Awaitable[dict]],
    orphaned: Callable[[], None],
) -> None:
    """One pipelined connection: a task per line, answers out of order.

    Each line becomes a task the moment it is read; ``answer(line)``
    builds its response, which is written as soon as it completes,
    matched to its request by the ``id`` field.  One lock serialises the
    write+drain pairs so responses never interleave mid-line.  An answer
    whose client is gone by write time is counted through ``orphaned()``.
    At EOF every in-flight answer is drained before returning: a
    half-closed peer (EOF seen, connection writable) still gets every
    response for the lines it managed to send.
    """
    lock = asyncio.Lock()
    tasks: set[asyncio.Task] = set()
    loop = asyncio.get_running_loop()

    async def respond(line: bytes) -> None:
        response = await answer(line)
        async with lock:
            if writer.is_closing():
                orphaned()
                return
            try:
                writer.write((json.dumps(response) + "\n").encode())
                await writer.drain()
            except (ConnectionResetError, BrokenPipeError, OSError):
                orphaned()

    try:
        while True:
            line = await reader.readline()
            if not line:
                break
            task = loop.create_task(respond(line))
            tasks.add(task)
            task.add_done_callback(tasks.discard)
    finally:
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)


async def close_quietly(writer: asyncio.StreamWriter) -> None:
    """Close a connection, ignoring a peer that is already gone.

    A ``CancelledError`` from loop teardown mid-close is swallowed too:
    finishing (rather than re-raising) keeps asyncio's stream callback
    from logging a spurious traceback for a routine shutdown.
    """
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionResetError, BrokenPipeError, OSError, asyncio.CancelledError):
        pass


class ServingServer:
    """TCP server wrapping an (already constructed) :class:`InferenceService`.

    Parameters
    ----------
    service:
        The microbatcher to serve.  The server starts/stops it with its
        own lifecycle.
    host, port:
        Bind address.  ``port=0`` binds an ephemeral port; read
        :attr:`port` after :meth:`start` (the in-process test/smoke path).
    scrub_interval:
        Seconds between integrity-scrub ticks; ``0`` (default) scrubs
        nothing.  When positive, the server builds a
        :class:`~repro.resilience.integrity.FleetScrubber` over the
        service's registry, ticks it every ``scrub_interval`` seconds
        while the service is idle, and reports its status in the
        ``health`` op.
    pipelined:
        Connection handling mode.  ``False`` (default, the public
        protocol): requests on one connection are answered strictly in
        order, one at a time — a client that wants concurrency opens
        more connections.  ``True`` (the shard-link protocol used by
        :mod:`repro.serving.shard`): every line is dispatched as its own
        task the moment it is read, and responses are written as they
        complete, **out of order**, matched to requests by their ``id``
        field — so a single connection can carry an arbitrary number of
        in-flight requests.  Per-tenant admission order still equals
        line order: dispatch tasks are created in read order and admit
        synchronously on their first step, before any await.
    """

    def __init__(
        self,
        service: InferenceService,
        host: str = "127.0.0.1",
        port: int = 0,
        scrub_interval: float = 0.0,
        allow_partial_fit: bool = False,
        pipelined: bool = False,
    ):
        self.service = service
        self.host = host
        self.pipelined = bool(pipelined)
        #: Gate for the ``partial_fit`` op.  Off by default: accepting
        #: unauthenticated training data over the wire changes the model,
        #: so live updating is an explicit deployment decision
        #: (``repro serve --partial-fit``), not an always-open door.
        self.allow_partial_fit = bool(allow_partial_fit)
        if not scrub_interval >= 0:
            raise ValueError(
                f"scrub_interval must be non-negative, got {scrub_interval}"
            )
        self.scrub_interval = float(scrub_interval)
        self.scrubber = FleetScrubber(service.registry) if scrub_interval > 0 else None
        #: Requests whose client disconnected before the answer could be
        #: written.  The prediction itself still completed (the service
        #: drains normally); only the response had nobody to go to.
        self.cancelled = 0
        self._requested_port = port
        self._server: asyncio.AbstractServer | None = None
        self._scrub_task: asyncio.Task | None = None

    @property
    def port(self) -> int:
        """The actually bound port (after :meth:`start`)."""
        if self._server is None:
            raise RuntimeError("server is not started")
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> "ServingServer":
        await self.service.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self._requested_port
        )
        if self.scrubber is not None and self._scrub_task is None:
            self._scrub_task = asyncio.get_running_loop().create_task(
                self.scrubber.run(self.service, self.scrub_interval)
            )
        return self

    async def stop(self) -> None:
        if self._scrub_task is not None:
            self._scrub_task.cancel()
            try:
                await self._scrub_task
            except asyncio.CancelledError:
                pass
            self._scrub_task = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.service.stop()

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    async def __aenter__(self) -> "ServingServer":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # -- resilience ------------------------------------------------------------

    def health(self) -> dict:
        """Liveness snapshot served by the ``{"op": "health"}`` request."""
        scrub = self.scrubber.status() if self.scrubber is not None else None
        degraded = bool(scrub["degraded"]) if scrub is not None else False
        return {
            "status": "degraded" if degraded else "ok",
            "running": self.service.running,
            "queue_depth": self.service.queue_depth,
            "requests": self.service.request_stats(),
            "cancelled": self.cancelled,
            "scrub": scrub,
            "fleet": self.service.registry.describe(),
        }

    # -- connection handling ---------------------------------------------------

    def _account_cancelled(self) -> None:
        """The client hung up while its request was in flight.

        The prediction itself already completed and the service drained it;
        account the orphaned answer and let the handler close quietly — a
        routine hangup is not worth a stack trace.
        """
        self.cancelled += 1
        telemetry.count("serving.requests.cancelled", reason="disconnect")

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        telemetry.count("serving.connections.opened")
        try:
            if self.pipelined:
                await serve_pipelined(reader, writer, self._answer, self._account_cancelled)
                return
            while True:
                line = await reader.readline()
                if not line:
                    break
                response = await self._answer(line)
                # A peer that closed while its request was in flight sends
                # FIN, which does not fail the first write — the EOF/closing
                # flags are how the hangup is actually observable here.  (A
                # half-closing client is treated as gone; NDJSON peers hold
                # the connection open for their responses.)
                if writer.is_closing() or reader.at_eof():
                    self._account_cancelled()
                    break
                try:
                    writer.write((json.dumps(response) + "\n").encode())
                    await writer.drain()
                except (ConnectionResetError, BrokenPipeError, OSError):
                    self._account_cancelled()
                    break
        except (ConnectionResetError, BrokenPipeError, OSError):
            # Disconnect between requests: nothing was in flight.
            pass
        except asyncio.CancelledError:
            # Server stop cancels handlers parked on readline.  Finishing
            # through the finally (rather than re-raising) leaves the task
            # without an exception, so asyncio's streams callback does not
            # log a spurious traceback for a routine shutdown.
            pass
        finally:
            telemetry.count("serving.connections.closed")
            await close_quietly(writer)

    # -- fleet admin ops -------------------------------------------------------

    @staticmethod
    def _request_tenant(request: dict) -> str:
        tenant = request.get("tenant")
        if not isinstance(tenant, str) or not tenant:
            raise ValueError("request must carry a non-empty 'tenant' string")
        return tenant

    async def _publish(self, request: dict) -> dict:
        """Hot-swap a tenant's model from a saved artifact, off the loop.

        ``load_classifier`` + the fused table build are the expensive part
        of a swap; both run in the default executor so the event loop —
        and every in-flight batch — keeps serving the old version.  The
        registry's internal lock makes the final version flip atomic with
        respect to dispatch-time ``registry.get`` calls.
        """
        registry = self.service.registry
        tenant = self._request_tenant(request)
        path = request.get("path")
        if not isinstance(path, str) or not path:
            raise ValueError("publish must carry a 'path' to a saved model")

        def load_and_publish():
            return registry.publish(tenant, load_classifier(path))

        record = await asyncio.get_running_loop().run_in_executor(
            None, load_and_publish
        )
        telemetry.count("serving.fleet.publishes", tenant=tenant)
        return {"tenant": tenant, **record.describe()}

    async def _partial_fit(self, request: dict) -> dict:
        """Apply a labelled batch to a tenant's live model over the wire.

        Payload: ``{"op": "partial_fit", "tenant": ..., "x": [[...], ...],
        "y": [...]}`` (``features``/``labels`` accepted as the long-form
        aliases).  Answers ``{"applied": N}`` once the update has been
        flushed — i.e. after every predict admitted before it was served.
        """
        if not self.allow_partial_fit:
            raise ValueError(
                "partial_fit is disabled on this server; start with --partial-fit"
            )
        features = request.get("features", request.get("x"))
        labels = request.get("labels", request.get("y"))
        if not isinstance(features, list) or not features:
            raise ValueError(
                "partial_fit must carry a non-empty 'features' (or 'x') "
                "list of samples"
            )
        if not isinstance(labels, list) or not labels:
            raise ValueError(
                "partial_fit must carry a non-empty 'labels' (or 'y') list"
            )
        tenant = request.get("tenant")
        if tenant is not None and (not isinstance(tenant, str) or not tenant):
            raise ValueError("'tenant' must be a non-empty string")
        applied = await self.service.partial_fit(features, labels, tenant=tenant)
        response = {"applied": applied}
        if tenant is not None:
            response["tenant"] = tenant
        return response

    async def _answer(self, line: bytes) -> dict:
        request_id = None
        try:
            request = json.loads(line)
            if not isinstance(request, dict):
                raise ValueError("request must be a JSON object")
            request_id = request.get("id")
            op = request.get("op", "predict")
            if op == "health":
                return {"id": request_id, **self.health()}
            if op == "list":
                return {"id": request_id, "fleet": self.service.registry.describe()}
            if op == "evict":
                tenant = self._request_tenant(request)
                released = self.service.registry.evict(tenant)
                return {"id": request_id, "tenant": tenant, "released": released}
            if op == "publish":
                return {"id": request_id, **await self._publish(request)}
            if op == "partial_fit":
                return {"id": request_id, **await self._partial_fit(request)}
            if op != "predict":
                raise ValueError(f"unknown op {op!r}")
            features = request.get("features", request.get("x"))
            if not isinstance(features, list):
                raise ValueError("request must carry a 'features' (or 'x') list")
            tenant = request.get("tenant")
            if tenant is not None and (not isinstance(tenant, str) or not tenant):
                raise ValueError("'tenant' must be a non-empty string")
            prediction = await self.service.predict(
                features, deadline_ms=request.get("deadline_ms"), tenant=tenant
            )
        except UnknownTenantError as error:
            return {"id": request_id, "error": "unknown_tenant", "detail": str(error)}
        except ServiceOverloadedError as error:
            return {"id": request_id, "error": "overloaded", "detail": str(error)}
        except DeadlineExceededError as error:
            return {"id": request_id, "error": "deadline", "detail": str(error)}
        except UpdateNotSupportedError as error:
            return {"id": request_id, "error": "unsupported", "detail": str(error)}
        except ServiceClosedError as error:
            return {"id": request_id, "error": "closed", "detail": str(error)}
        except (ValueError, TypeError, json.JSONDecodeError, OSError, ArtifactError) as error:
            return {"id": request_id, "error": "invalid", "detail": str(error)}
        response = {"id": request_id, "prediction": int(prediction)}
        if tenant is not None:
            response["tenant"] = tenant
        return response
