"""The asyncio cluster frontend: one address, N curve shards behind it.

Clients connect here exactly as they would to a single
:func:`~repro.service.server.serve_tcp` server — same hello handshake,
same v1 JSON lines, same v2 binary frames — and the frontend routes
each request to a shard by consistent hash
(:class:`~repro.cluster.ring.HashRing`).  Shard-side it always speaks
the binary framed protocol over a small pool of exclusive-checkout
connections per shard (one outstanding request per connection, so the
next frame read *is* that request's response).

Fail-over ladder, in order:

1. **Re-route** — a connect/forward failure marks the shard down and
   retries the next distinct live shard in ring order (bounded by the
   ring size).  Tenant requests re-play the tenant's ``register`` on
   the new shard first, so pushes keep landing (the re-homed tenant
   restarts cold; responses carry ``"rerouted": true`` to say so).
2. **Degrade** — with no live shard left, solves are still answered
   locally with the closed-form Fagin/working-set LRU approximation
   (:mod:`repro.cluster.approx`), flagged ``"degraded": true``; tenant
   verbs (which need shard state) degrade to a flagged error.
3. **Recover** — a heartbeat task keeps probing *down* shards with the
   hello handshake and marks them live again on success, restoring
   their exact key ranges.

Every response gains a ``"shard"`` field naming who answered (or
``null`` when degraded) so clients and soaks can audit placement.
"""

from __future__ import annotations

import asyncio
import json
import threading
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..errors import ProtocolError, ReproError
from ..obs import Counters
from ..service import frames, schema
from ..service.server import decode_line, error_payload
from .approx import degraded_solve_payload
from .ring import HashRing

#: Idle pooled connections kept per shard.
_POOL_SIZE = 4
_CONNECT_TIMEOUT = 3.0
_HELLO_TIMEOUT = 5.0
#: asyncio stream limit: a v1 client may legally ship a whole trace as
#: one inline-JSON line, so the default 64KiB ``readline`` cap would
#: sever any bulk v1 request at the frontend.
_STREAM_LIMIT = 1 << 30


class _ShardPool:
    """Exclusive-checkout binary connections to one shard."""

    def __init__(self, name: str, host: str, port: int) -> None:
        self.name = name
        self.host = host
        self.port = port
        self._free: List[Tuple[asyncio.StreamReader,
                               asyncio.StreamWriter]] = []

    async def acquire(self) -> Tuple[asyncio.StreamReader,
                                     asyncio.StreamWriter]:
        while self._free:
            reader, writer = self._free.pop()
            if writer.is_closing():
                continue
            return reader, writer
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(self.host, self.port,
                                    limit=_STREAM_LIMIT),
            _CONNECT_TIMEOUT,
        )
        try:
            writer.write(json.dumps(
                {"op": schema.HELLO_OP, "upgrade": True}
            ).encode("utf-8") + b"\n")
            await writer.drain()
            line = await asyncio.wait_for(reader.readline(), _HELLO_TIMEOUT)
            hello = json.loads(line.decode("utf-8"))
            if hello.get("upgraded") != schema.PROTOCOL_V2:
                raise ProtocolError(
                    f"shard {self.name} refused the binary upgrade"
                )
        except BaseException:
            writer.close()
            raise
        return reader, writer

    def release(self, reader: asyncio.StreamReader,
                writer: asyncio.StreamWriter) -> None:
        if len(self._free) < _POOL_SIZE and not writer.is_closing():
            self._free.append((reader, writer))
        else:
            writer.close()

    def discard_all(self) -> None:
        while self._free:
            _reader, writer = self._free.pop()
            writer.close()


async def _read_frame_async(
    reader: asyncio.StreamReader,
) -> Optional[Tuple[int, int, Dict[str, Any], bytes]]:
    """One frame off an asyncio stream; None on clean EOF.

    Returns ``(frame_type, dtype_code, header_obj, payload_bytes)``;
    the payload stays raw bytes — the frontend forwards, it does not
    interpret.
    """
    try:
        raw = await reader.readexactly(frames.HEADER_SIZE)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ProtocolError(
            f"connection closed mid-frame header "
            f"({len(exc.partial)}/{frames.HEADER_SIZE} bytes)"
        ) from None
    frame_type, dtype_code, header_len, payload_len = (
        frames.unpack_fixed_header(raw)
    )
    try:
        head_raw = await reader.readexactly(header_len)
        payload = (await reader.readexactly(payload_len)
                   if payload_len else b"")
    except asyncio.IncompleteReadError as exc:
        raise ProtocolError(
            f"connection closed mid-frame (wanted {header_len} header "
            f"+ {payload_len} payload bytes, got {len(exc.partial)})"
        ) from None
    return frame_type, dtype_code, frames.decode_header(head_raw), payload


class ClusterFrontend:
    """Route curve requests across shards with health-checked fail-over.

    ``shards`` maps shard name to ``(host, port)`` of a running
    ``repro serve`` process.  :meth:`start_in_thread` runs the event
    loop on a daemon thread and returns the bound address — the mode
    the CLI and tests use; :meth:`serve` is the raw coroutine.
    """

    def __init__(
        self,
        shards: Dict[str, Tuple[str, int]],
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        replicas: int = 64,
        heartbeat_interval: float = 0.5,
    ) -> None:
        if not shards:
            raise ValueError("cluster needs at least one shard")
        self._shards = dict(shards)
        self._ring = HashRing(sorted(self._shards), replicas=replicas)
        self._host = host
        self._port = port
        self._heartbeat_interval = heartbeat_interval
        self._pools = {
            name: _ShardPool(name, h, p)
            for name, (h, p) in self._shards.items()
        }
        self.counters = Counters()
        self._route_seq = 0
        # Tenant fail-over state: the last successful register header
        # per tenant (replayed on a new shard) and current placement.
        self._registered: Dict[str, Dict[str, Any]] = {}
        self._placed: Dict[str, str] = {}
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()
        self._address: Optional[Tuple[str, int]] = None

    # -- shard side --------------------------------------------------------

    def _routing_key(self, header: Dict[str, Any]) -> str:
        tenant = header.get("tenant")
        if isinstance(tenant, str) and tenant:
            return f"tenant:{tenant}"
        req_id = header.get("id")
        if isinstance(req_id, str) and req_id:
            return f"req:{req_id}"
        self._route_seq += 1
        return f"seq:{self._route_seq}"

    async def _forward_once(
        self, shard: str, header: Dict[str, Any], payload: bytes,
        dtype_code: int,
    ) -> Dict[str, Any]:
        pool = self._pools[shard]
        reader, writer = await pool.acquire()
        try:
            writer.write(frames.encode_frame(
                frames.FRAME_REQUEST, header, payload, dtype_code
            ))
            await writer.drain()
            got = await _read_frame_async(reader)
            if got is None:
                raise ProtocolError(f"shard {shard} closed mid-request")
        except BaseException:
            writer.close()
            raise
        pool.release(reader, writer)
        return got[2]

    async def _replay_register(self, tenant: str, shard: str) -> None:
        """Re-home a tenant: replay its register on the new shard."""
        reg = self._registered.get(tenant)
        if reg is None:
            return
        try:
            await self._forward_once(shard, reg, b"", frames.DTYPE_NONE)
            self.counters.add("ring.register_replays")
        except (OSError, ProtocolError, asyncio.TimeoutError):
            # The forward itself will hit the same wall and re-route.
            pass

    def _note_tenant(self, header: Dict[str, Any], shard: str) -> None:
        tenant = header.get("tenant")
        if not isinstance(tenant, str) or not tenant:
            return
        if header.get("op") == "register":
            self._registered[tenant] = dict(header)
        elif header.get("op") == "evict":
            self._registered.pop(tenant, None)
        self._placed[tenant] = shard

    async def _route(
        self, header: Dict[str, Any], payload: bytes, dtype_code: int,
    ) -> Dict[str, Any]:
        """Forward with ring fail-over; degrade when nothing is live."""
        self.counters.add("ring.requests")
        key = self._routing_key(header)
        primary = self._ring.primary(key)
        tenant = header.get("tenant")
        op = header.get("op")
        for shard in self._ring.successors(key):
            if isinstance(tenant, str) and op != "register" and \
                    self._placed.get(tenant) != shard:
                await self._replay_register(tenant, shard)
            try:
                response = await self._forward_once(
                    shard, header, payload, dtype_code
                )
            except (OSError, ProtocolError, asyncio.TimeoutError,
                    asyncio.IncompleteReadError):
                self._ring.mark_down(shard)
                self._pools[shard].discard_all()
                self.counters.add("ring.shard_failures")
                continue
            self._note_tenant(header, shard)
            response["shard"] = shard
            if shard != primary:
                response["rerouted"] = True
                self.counters.add("ring.reroutes")
            return response
        return await self._degrade(header, payload, dtype_code)

    async def _degrade(
        self, header: Dict[str, Any], payload: bytes, dtype_code: int,
    ) -> Dict[str, Any]:
        """Every shard is down: flagged approximate answer or error."""
        self.counters.add("ring.degraded")
        req_id = schema.reply_id(header)
        if header.get("op") is not None:
            return {
                "id": req_id, "ok": False, "degraded": True,
                "shard": None, "error": "ServiceUnavailable",
                "message": "every shard is down; tenant state is "
                           "shard-resident and cannot be approximated",
            }
        trace: Optional[np.ndarray] = None
        if payload:
            trace = np.frombuffer(payload,
                                  dtype=frames.DTYPE_BY_CODE[dtype_code])
        elif isinstance(header.get("trace"), list):
            trace = np.asarray(header["trace"], dtype=np.int64)
        sizes = header.get("sizes") or []
        loop = asyncio.get_running_loop()
        payload_obj = await loop.run_in_executor(
            None,
            lambda: degraded_solve_payload(
                req_id, trace, sizes, reason="every shard is down",
            ),
        )
        payload_obj["shard"] = None
        return payload_obj

    async def _heartbeat(self) -> None:
        """Probe every shard; revive down ones, fell unresponsive ones."""
        while True:
            await asyncio.sleep(self._heartbeat_interval)
            for name in list(self._shards):
                pool = self._pools[name]
                try:
                    reader, writer = await pool.acquire()
                except (OSError, ProtocolError, asyncio.TimeoutError):
                    if not self._ring.is_down(name):
                        self._ring.mark_down(name)
                        pool.discard_all()
                    self.counters.add("ring.heartbeat_failures")
                    continue
                try:
                    writer.write(frames.encode_frame(
                        frames.FRAME_REQUEST, {"op": schema.HELLO_OP}
                    ))
                    await writer.drain()
                    got = await asyncio.wait_for(
                        _read_frame_async(reader), _HELLO_TIMEOUT
                    )
                    if got is None:
                        raise ProtocolError("shard closed on hello")
                except (OSError, ProtocolError, asyncio.TimeoutError):
                    writer.close()
                    if not self._ring.is_down(name):
                        self._ring.mark_down(name)
                        pool.discard_all()
                    self.counters.add("ring.heartbeat_failures")
                    continue
                pool.release(reader, writer)
                if self._ring.is_down(name):
                    self._ring.mark_up(name)
                    self.counters.add("ring.recoveries")

    # -- client side -------------------------------------------------------

    def _hello_response(self, req_id: Optional[str],
                        upgrade: bool) -> Dict[str, Any]:
        payload = schema.hello_payload(
            req_id, tenants_enabled=True, binary_ok=True,
            server="ring", shards=len(self._shards),
        )
        if upgrade:
            payload["upgraded"] = schema.PROTOCOL_V2
        return payload

    async def _handle_client(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        out_lock = asyncio.Lock()
        pending: set = set()

        async def send(payload: Dict[str, Any], binary: bool) -> None:
            async with out_lock:
                try:
                    if binary:
                        writer.write(frames.encode_frame(
                            frames.FRAME_RESPONSE, payload
                        ))
                    else:
                        writer.write(
                            json.dumps(payload).encode("utf-8") + b"\n"
                        )
                    await writer.drain()
                except (OSError, ConnectionError):
                    pass  # client went away; the shard work still ran

        async def dispatch(header: Dict[str, Any], payload: bytes,
                           dtype_code: int, binary: bool) -> None:
            try:
                response = await self._route(header, payload, dtype_code)
            except Exception as exc:  # noqa: BLE001 — answered in-band
                response = error_payload(schema.reply_id(header), exc)
            await send(response, binary)

        def spawn(coro: Any) -> None:
            task = asyncio.ensure_future(coro)
            pending.add(task)
            task.add_done_callback(pending.discard)

        binary = False
        try:
            # v1 JSON line phase (may upgrade out of it).
            while not binary:
                line = await reader.readline()
                if not line:
                    return
                try:
                    obj = decode_line(line)
                except ReproError as exc:
                    await send(error_payload(None, exc), False)
                    continue
                if obj is None:
                    continue
                if obj.get("op") == schema.HELLO_OP:
                    upgrade = bool(obj.get("upgrade"))
                    if upgrade:
                        # Framing change: no response may straddle it.
                        while pending:
                            await asyncio.gather(*list(pending),
                                                 return_exceptions=True)
                    await send(self._hello_response(
                        schema.reply_id(obj), upgrade
                    ), False)
                    if upgrade:
                        binary = True
                    continue
                spawn(dispatch(obj, b"", frames.DTYPE_NONE, False))
            # v2 binary frame phase.
            while True:
                got = await _read_frame_async(reader)
                if got is None:
                    return
                frame_type, dtype_code, header, payload = got
                if frame_type != frames.FRAME_REQUEST:
                    raise ProtocolError(
                        f"expected a request frame, got type {frame_type}"
                    )
                if header.get("op") == schema.HELLO_OP:
                    await send(self._hello_response(
                        schema.reply_id(header), True
                    ), True)
                    continue
                spawn(dispatch(header, payload, dtype_code, True))
        except ProtocolError as exc:
            self.counters.add("ring.protocol_errors")
            await send(error_payload(None, exc), binary)
        finally:
            while pending:
                await asyncio.gather(*list(pending),
                                     return_exceptions=True)
            try:
                writer.close()
            except OSError:  # pragma: no cover - teardown noise
                pass

    # -- lifecycle ---------------------------------------------------------

    async def serve(self) -> None:
        """Bind and serve until cancelled (runs the heartbeat too)."""
        self._loop = asyncio.get_running_loop()
        self._server = await asyncio.start_server(
            self._handle_client, self._host, self._port,
            limit=_STREAM_LIMIT,
        )
        self._address = self._server.sockets[0].getsockname()[:2]
        heartbeat = asyncio.ensure_future(self._heartbeat())
        self._started.set()
        try:
            async with self._server:
                await self._server.serve_forever()
        finally:
            heartbeat.cancel()

    def start_in_thread(self) -> Tuple[str, int]:
        """Run the frontend on a daemon thread; returns its address."""
        if self._thread is not None:
            raise ReproError("frontend already started")

        def run() -> None:
            try:
                asyncio.run(self.serve())
            except asyncio.CancelledError:  # pragma: no cover - shutdown
                pass

        self._thread = threading.Thread(
            target=run, name="cluster-frontend", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout=10.0):
            raise ReproError("cluster frontend failed to start")
        assert self._address is not None
        return self._address

    def stop(self) -> None:
        """Stop the loop thread (idempotent)."""
        loop = self._loop
        if loop is None or self._thread is None:
            return

        def shutdown() -> None:
            assert self._server is not None
            self._server.close()
            for task in asyncio.all_tasks():
                task.cancel()

        try:
            loop.call_soon_threadsafe(shutdown)
        except RuntimeError:  # pragma: no cover - loop already gone
            pass
        self._thread.join(timeout=10.0)
        self._thread = None

    def metrics(self) -> Dict[str, float]:
        out = dict(self.counters.snapshot())
        out["ring.live_shards"] = float(len(self._ring.live_nodes))
        return out


__all__ = ["ClusterFrontend"]
