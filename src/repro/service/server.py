"""Line-oriented front ends for :class:`~repro.service.CurveService`.

One request per line, one JSON response per line.  A request is either a
bare path to a REPROTRC trace file::

    /data/day1.reprotrc

or a JSON object selecting the solve and its knobs::

    {"trace": "/data/day1.reprotrc", "id": "day1", "algorithm": "iaf",
     "max_cache_size": 4096, "deadline": 5.0, "sizes": [64, 1024, 4096]}

``trace`` may also be an inline list of integer addresses (handy for
tests and ad-hoc probes).  Responses arrive in *completion* order, so
tag requests with ``id`` to correlate; each is either::

    {"id": "day1", "ok": true, "algorithm": "iaf", "total_accesses": …,
     "max_size": …, "truncated_at": 4096, "wall_seconds": …,
     "batched": true, "hit_rates": {"64": 0.31, …}}

or ``{"id": …, "ok": false, "error": "DeadlineExceededError",
"message": …}``.  Malformed lines are answered immediately with an
``ok: false`` line; they never crash the server.  A reply echoes a
string ``id``; any other ``id`` (a number, null, absent) is answered
as ``null``.

One loop, two codecs: :func:`serve_requests` owns every protocol
decision for this line protocol and for the v2 binary frames
(:mod:`repro.service.binary`); a codec only turns bytes into request
objects and reply dicts into bytes.

``python -m repro serve`` runs this loop over stdin (EOF drains and
exits) or, with ``--port``, over TCP with one connection per client
thread, all sharing a single service — the batching works *across*
connections.

With ``--tenants`` the server also speaks the multi-tenant verbs (see
docs/TENANTS.md): a JSON line carrying an ``op`` field is routed to the
shared :class:`~repro.tenants.TenantService` instead of the solve path::

    {"op": "register", "tenant": "web", "tier": "sampled",
     "sample_rate": 0.01}
    {"op": "push", "tenant": "web", "trace": [1, 2, 1, 3], "id": "p0"}
    {"op": "curve", "tenant": "web", "sizes": [64, 4096], "id": "c0"}
    {"op": "evict", "tenant": "web"}
    {"op": "tenants"}

``push`` and ``curve`` ride the service queue (same admission control
and deadlines as solves) and answer in completion order like everything
else.  ``register``/``evict``/``tenants`` execute synchronously, but
only after every previously accepted request **on the same stream** has
been answered — so the natural register → push → curve → evict script
behaves sequentially.  An evict still takes effect immediately across
*other* connections: their queued, not-yet-drained pushes for that
tenant fail with an explanatory error instead of resurrecting it.
"""

from __future__ import annotations

import json
import socketserver
import threading
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
    Union,
)

import numpy as np

from ..core.config import SolveConfig, SolveResult
from ..errors import ProtocolError, ReproError
from ..workloads.traceio import read_trace
from . import frames, schema
from .curve_service import CurveService, SolveFuture

if TYPE_CHECKING:  # pragma: no cover - import cycle guard only
    from ..tenants import TenantService

#: Tenant verbs that run synchronously, after the per-stream barrier.
_SYNC_OPS = ("register", "evict", "tenants")

#: Queued work and the formatter that turns its result into the reply.
Queued = Tuple[SolveFuture, Callable[[Any], Dict[str, Any]]]

#: What a codec yields per request: the decoded object (or the
#: :class:`ReproError` its bytes raised), the payload array a frame
#: carried, and the arena lease that payload lives in (see
#: :mod:`repro.service.binary`).
Decoded = Tuple[
    Union[Dict[str, Any], ReproError], Optional[np.ndarray], Optional[Any]
]


def parse_request_obj(
    obj: Dict[str, Any],
    *,
    default_config: Optional[SolveConfig] = None,
) -> Tuple[Any, SolveConfig, Optional[float], Optional[str], List[int]]:
    """Parse one already-decoded solve-request object.

    The schema half of :func:`parse_request`, shared by both codecs (a
    frame's payload arrives here as the ``trace``).  Returns ``(trace,
    config, deadline, request_id, sizes)``, ``request_id`` following
    :func:`~repro.service.schema.reply_id`.  Raises :class:`ReproError`
    on malformed input.
    """
    base = default_config if default_config is not None else SolveConfig()
    if not isinstance(obj, dict):
        raise ReproError("request JSON must be an object")
    schema.validate_fields(obj, schema.REQUEST_FIELDS, "request")
    if "trace" not in obj:
        raise ReproError('request needs a "trace" (path or address list)')
    changes: Dict[str, Any] = {}
    for field in schema.CONFIG_FIELDS:
        if field in obj:
            changes[field] = obj[field]
    if "dtype" in obj:
        try:
            changes["dtype"] = schema.DTYPES[obj["dtype"]]
        except (KeyError, TypeError):
            raise ReproError(
                f"bad dtype {obj['dtype']!r}; use one of "
                f"{sorted(schema.DTYPES)}"
            ) from None
    try:
        cfg = base.replace(**changes) if changes else base
    except TypeError as exc:
        raise ReproError(f"bad request field: {exc}") from None
    deadline = _check_deadline(obj.get("deadline"))
    sizes = _check_sizes(obj.get("sizes"))
    return obj.get("trace"), cfg, deadline, schema.reply_id(obj), sizes


def decode_line(line: Union[str, bytes]) -> Optional[Dict[str, Any]]:
    """The line codec: one v1 line as a request object, None if blank.

    Bytes must be strict UTF-8 (:class:`ProtocolError` otherwise); a
    line that does not open with ``{`` is a bare trace path; anything
    else must be one JSON object (:class:`ReproError` otherwise).  The
    cluster frontend decodes its v1 lines with this too.
    """
    text = frames.decode_text(line).strip()
    if not text:
        return None
    if not text.startswith("{"):
        return {"trace": text}
    return frames.decode_object(text)


def parse_request(
    line: str,
    *,
    default_config: Optional[SolveConfig] = None,
) -> Tuple[Any, SolveConfig, Optional[float], Optional[str], List[int]]:
    """Parse one request line.

    Returns ``(trace, config, deadline, request_id, sizes)`` where
    ``trace`` is a path string or an inline address list.  Raises
    :class:`ReproError` on malformed input.
    """
    obj = decode_line(line)
    if obj is None:
        raise ReproError("empty request line")
    return parse_request_obj(obj, default_config=default_config)


def _check_deadline(deadline: Any) -> Optional[float]:
    if deadline is not None and (
        not isinstance(deadline, (int, float)) or deadline <= 0
    ):
        raise ReproError(f"deadline must be a positive number, "
                         f"got {deadline!r}")
    return deadline


def _check_sizes(sizes: Any) -> List[int]:
    sizes = sizes or []
    if not isinstance(sizes, list) or not all(
        isinstance(s, int) and s >= 1 for s in sizes
    ):
        raise ReproError("sizes must be a list of positive integers")
    return sizes


def handle_tenant_request(
    obj: Dict[str, Any],
    tenants: "TenantService",
) -> Tuple[Optional[Dict[str, Any]], Optional[Queued]]:
    """Dispatch one tenant verb.

    Returns ``(payload, None)`` for synchronous verbs (register / evict
    / tenants) or ``(None, (future, formatter))`` for queued verbs
    (push / curve) — the caller emits ``formatter(future.result())``
    when the work unit completes.  Raises :class:`ReproError` on
    malformed requests.
    """
    op = obj.get("op")
    ops = schema.TENANT_OP_FIELDS
    if op not in ops:
        raise ReproError(f"unknown op {op!r}; one of {sorted(ops)}")
    unknown = set(obj) - ops[op]
    if unknown:
        raise ReproError(
            f"unknown field(s) {sorted(unknown)} for op {op!r}; "
            f"allowed: {sorted(ops[op])}"
        )
    req_id = schema.reply_id(obj)
    if op == "tenants":
        return ({"id": req_id, "ok": True, "op": op,
                 "tenants": tenants.describe()}, None)
    tenant_id = obj.get("tenant")
    if not isinstance(tenant_id, str) or not tenant_id:
        raise ReproError(
            f'op {op!r} needs a non-empty string "tenant" field'
        )
    if op == "register":
        kwargs = {
            k: obj[k]
            for k in ("tier", "sample_rate", "sample_seed",
                      "max_cache_size", "chunk_size", "memory_budget")
            if k in obj
        }
        tenant = tenants.register(tenant_id, **kwargs)
        return ({"id": req_id, "ok": True, "op": op, "tenant": tenant_id,
                 "tier": tenant.tier,
                 "sample_rate": tenant.sample_rate}, None)
    if op == "evict":
        evicted = tenants.evict(tenant_id)
        return ({"id": req_id, "ok": True, "op": op, "tenant": tenant_id,
                 "evicted": bool(evicted)}, None)
    deadline = _check_deadline(obj.get("deadline"))
    if op == "push":
        if "trace" not in obj:
            raise ReproError(
                'op "push" needs a "trace" (path or address list)'
            )
        trace = obj["trace"]
        arr = read_trace(trace) if isinstance(trace, str) else trace
        future = tenants.push_many(tenant_id, arr, deadline=deadline)

        def fmt_push(receipt: Any) -> Dict[str, Any]:
            payload = {"id": req_id, "ok": True, "op": "push"}
            payload.update(receipt)
            return payload

        return (None, (future, fmt_push))
    # op == "curve"
    sizes = _check_sizes(obj.get("sizes"))
    future = tenants.curve(tenant_id, deadline=deadline)

    def fmt_curve(snap: Any) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "id": req_id, "ok": True, "op": "curve",
            "tenant": snap.tenant_id, "tier": snap.tier,
            "total_accesses": snap.total_accesses,
            "max_size": snap.estimate.max_size,
            "segments": snap.segments,
            "exact": snap.exact_curve is not None,
        }
        if sizes:
            payload["hit_rates"] = {
                str(k): snap.hit_rate(k) for k in sizes
            }
        return payload

    return (None, (future, fmt_curve))


def _result_payload(
    req_id: Optional[str], result: SolveResult, sizes: List[int]
) -> Dict[str, Any]:
    payload: Dict[str, Any] = {"id": req_id, "ok": True}
    payload.update(result.summary())
    if sizes:
        payload["hit_rates"] = {
            str(k): result.curve.hit_rate(k) for k in sizes
        }
    return payload


def error_payload(
    req_id: Optional[str], exc: BaseException
) -> Dict[str, Any]:
    """The ``ok: false`` reply every surface answers a failure with."""
    return {
        "id": req_id,
        "ok": False,
        "error": type(exc).__name__,
        "message": str(exc),
    }


class _Replies:
    """One connection's reply side; its state is O(1) however long the
    connection lives.

    One condition serialises reply writes (replies stay whole) and
    guards the failure count and the number of accepted requests not
    yet answered.  A request counts as answered only after its reply
    is written, so waiting for zero never closes a stream under its
    last reply (waiting on the futures would: ``result()`` waiters
    wake *before* done-callbacks run).
    """

    def __init__(self, write: Callable[[Dict[str, Any]], None]) -> None:
        self._write = write
        self._cond = threading.Condition()
        self._outstanding = 0
        self.failures = 0

    def _emit(self, payload: Dict[str, Any]) -> None:
        if not payload["ok"]:
            self.failures += 1
        try:
            self._write(payload)
        except OSError:
            pass  # client went away; the work itself still completed

    def send(self, payload: Dict[str, Any]) -> None:
        with self._cond:
            self._emit(payload)

    def send_when_done(
        self,
        future: SolveFuture,
        fmt: Callable[[Any], Dict[str, Any]],
        req_id: Optional[str],
        lease: Optional[Any],
    ) -> None:
        """Answer ``fmt(future.result())`` once the work completes."""
        with self._cond:
            self._outstanding += 1

        def on_done(f: SolveFuture) -> None:
            try:
                payload = fmt(f.result())
            except Exception as exc:  # noqa: BLE001 — answered in-band
                payload = error_payload(req_id, exc)
            if lease is not None:
                lease.release()
            with self._cond:
                try:
                    self._emit(payload)
                finally:
                    self._outstanding -= 1
                    self._cond.notify_all()

        future.add_done_callback(on_done)

    def wait_idle(self) -> None:
        """Block until every accepted request has been answered."""
        with self._cond:
            self._cond.wait_for(lambda: not self._outstanding)


def serve_requests(
    requests: Iterable[Decoded],
    write: Callable[[Dict[str, Any]], None],
    service: CurveService,
    *,
    framed: bool,
    default_config: Optional[SolveConfig] = None,
    tenants: Optional["TenantService"] = None,
    upgrade: Optional[Callable[[], None]] = None,
) -> int:
    """The one request loop behind both wire codecs.

    ``requests`` yields what a codec decoded (:data:`Decoded`);
    ``write`` encodes one reply dict onto the transport.  The loop owns
    everything else: hello and upgrade, tenant gating, the barrier
    before synchronous tenant verbs, submission, completion-order
    replies, failure counting, and the ``id`` rule
    (:func:`~repro.service.schema.reply_id`).  A
    :class:`ProtocolError` *raised* by the codec means the stream lost
    its framing: it is answered once and ends the loop.  Returns once
    every accepted request has been answered (or after an upgrade
    hand-over), with the number of failed replies.
    """
    replies = _Replies(write)

    def refuse(exc: ReproError) -> None:
        if isinstance(exc, ProtocolError):
            service.record_protocol_error()
        replies.send(error_payload(None, exc))

    def accept(
        obj: Dict[str, Any], arr: Optional[np.ndarray], req_id: Optional[str]
    ) -> Tuple[Optional[Dict[str, Any]], Optional[Queued]]:
        if obj.get("op") == schema.HELLO_OP:
            schema.validate_fields(obj, schema.HELLO_FIELDS, "hello")
            payload = schema.hello_payload(
                req_id,
                tenants_enabled=tenants is not None,
                binary_ok=framed or upgrade is not None,
            )
            if not framed and obj.get("upgrade") and upgrade is not None:
                # The framing changes on this transport: no reply to an
                # earlier request may follow the hello.
                replies.wait_idle()
                payload["upgraded"] = schema.PROTOCOL_V2
            elif framed:
                payload["upgraded"] = schema.PROTOCOL_V2
            return payload, None
        if arr is not None:
            if "trace" in obj:
                raise ReproError(
                    "request carries both an inline trace and a payload; "
                    "send one"
                )
            obj = dict(obj, trace=arr)
        if "op" in obj:
            if tenants is None:
                raise ReproError(
                    "tenant ops are not enabled on this server "
                    "(start it with --tenants)"
                )
            if obj["op"] in _SYNC_OPS:
                # An evict must not race the same script's queued
                # pushes (see the module docstring).
                replies.wait_idle()
            return handle_tenant_request(obj, tenants)
        trace, cfg, deadline, _, sizes = parse_request_obj(
            obj, default_config=default_config
        )
        if arr is not None and "dtype" not in obj:
            # Solve in the payload's own dtype so an arena view is used
            # as-is (no widening copy).
            cfg = cfg.replace(dtype=arr.dtype.type)
        if isinstance(trace, str):
            trace = read_trace(trace)
        future = service.submit(
            trace, cfg, deadline=deadline, label=req_id or ""
        )
        return None, (
            future, lambda result: _result_payload(req_id, result, sizes)
        )

    try:
        for obj, arr, lease in requests:
            if isinstance(obj, ReproError):
                refuse(obj)
                continue
            req_id = schema.reply_id(obj)
            try:
                payload, queued = accept(obj, arr, req_id)
            except Exception as exc:  # noqa: BLE001 — answered in-band
                payload, queued = error_payload(req_id, exc), None
            if queued is None:
                if lease is not None:
                    lease.release()
                replies.send(payload)
                if upgrade is not None and "upgraded" in payload:
                    upgrade()
                    return replies.failures
            else:
                replies.send_when_done(*queued, req_id, lease)
    except ProtocolError as exc:
        refuse(exc)
    finally:
        replies.wait_idle()
    return replies.failures


def _line_requests(lines: Iterable[Any]) -> Iterator[Decoded]:
    for line in lines:
        try:
            obj = decode_line(line)
        except ReproError as exc:
            yield exc, None, None
            continue
        if obj is not None:
            yield obj, None, None


def serve_stream(
    lines: "Iterable[Any]",
    emit: Callable[[str], None],
    service: CurveService,
    *,
    default_config: Optional[SolveConfig] = None,
    tenants: Optional["TenantService"] = None,
    upgrade: Optional[Callable[[], None]] = None,
) -> int:
    """Run the line protocol over one request stream.

    Reads requests from ``lines`` — ``str`` or raw ``bytes`` lines;
    bytes are decoded *strictly* as UTF-8, and an undecodable line is
    answered with a :class:`~repro.errors.ProtocolError` response (and
    counted as ``service.protocol_errors``) instead of being silently
    mangled by a lossy decode.  Each JSON response goes through ``emit``
    as its solve completes (under a lock — responses stay whole lines),
    and the call blocks until every accepted request has been answered.
    Returns the number of failed requests (protocol errors, parse
    errors, rejections, and solve errors alike); the caller owns the
    service's lifecycle.

    ``upgrade``, when provided, enables the v2 binary framing on this
    transport: a ``{"op": "hello", "upgrade": true}`` request barriers
    on every previously accepted request, answers the hello with
    ``"upgraded": 2``, invokes ``upgrade()`` and returns — the caller
    then hands the same byte stream to
    :func:`~repro.service.binary.serve_binary`.  Without it (stdin,
    tests over plain line iterables) hellos still answer but advertise
    the v1 protocol only.
    """
    return serve_requests(
        _line_requests(lines),
        lambda payload: emit(json.dumps(payload)),
        service,
        framed=False,
        default_config=default_config,
        tenants=tenants,
        upgrade=upgrade,
    )


class _LineHandler(socketserver.StreamRequestHandler):
    """One client connection: the stream protocol over a socket."""

    def handle(self) -> None:  # pragma: no cover - exercised via TCP tests
        def emit(text: str) -> None:
            self.wfile.write(text.encode("utf-8") + b"\n")
            self.wfile.flush()

        upgraded = []

        # Raw byte lines go straight to serve_stream, which decodes
        # strictly and answers undecodable input with a ProtocolError
        # line (a lossy decode here used to mangle requests silently).
        # readline-iteration keeps any bytes after the hello line in
        # the shared BufferedReader, where serve_binary picks them up.
        serve_stream(
            self.rfile, emit, self.server.service,  # type: ignore[attr-defined]
            default_config=self.server.default_config,  # type: ignore[attr-defined]
            tenants=self.server.tenants,  # type: ignore[attr-defined]
            upgrade=lambda: upgraded.append(True),
        )
        if upgraded:
            from .binary import serve_binary

            serve_binary(
                self.rfile, self.wfile, self.server.service,  # type: ignore[attr-defined]
                default_config=self.server.default_config,  # type: ignore[attr-defined]
                tenants=self.server.tenants,  # type: ignore[attr-defined]
            )


class CurveServer(socketserver.ThreadingTCPServer):
    """TCP front end; all connections share one :class:`CurveService`."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(
        self,
        address: Tuple[str, int],
        service: CurveService,
        *,
        default_config: Optional[SolveConfig] = None,
        tenants: Optional["TenantService"] = None,
    ) -> None:
        super().__init__(address, _LineHandler)
        self.service = service
        self.default_config = default_config
        self.tenants = tenants


def serve_tcp(
    service: CurveService,
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    default_config: Optional[SolveConfig] = None,
    tenants: Optional["TenantService"] = None,
) -> CurveServer:
    """Bind a :class:`CurveServer`; the caller runs ``serve_forever()``.

    ``port=0`` picks a free port (``server.server_address`` has the
    real one — the pattern the tests use).
    """
    return CurveServer((host, port), service,
                       default_config=default_config, tenants=tenants)
