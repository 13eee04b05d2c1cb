"""The frame codec: the v2 binary framed protocol's half of the loop.

A connection lands here after the line protocol's
``{"op": "hello", "upgrade": true}`` handshake
(:func:`~repro.service.server.serve_stream` with ``upgrade=``).  Every
subsequent request and response is one frame
(:mod:`repro.service.frames`): the JSON header carries the exact v1
request vocabulary (:mod:`repro.service.schema`), and a bulk trace
rides as raw little-endian bytes in the payload instead of an inline
JSON list.  This module only turns frames into decoded requests and
replies into frames; :func:`~repro.service.server.serve_requests` owns
every protocol decision, for both codecs.

Zero-copy ingest: when the owning service routes oversized solves to
the shared-memory process pool, payloads of at least
:data:`ARENA_INGEST_MIN` bytes are read off the socket **directly into
a leased arena block** (:meth:`CurveService.ingest_lease`) — the trace
bytes touch one arena, once, and the eventual ``process-iaf`` dispatch
views them where they already live.  The loop releases the lease once
the request is answered.  Every other payload lands in an ordinary heap
buffer; either way the request sees a numpy view, never a Python list.

A JSON header that does not decode is answered in-band like a bad v1
line (the lengths still frame the stream), but framing errors are
unrecoverable by construction (a lost magic means the byte stream is
out of sync): the server answers once with an error frame and closes
the connection.
"""

from __future__ import annotations

from typing import Any, BinaryIO, Dict, Iterator, Optional, Tuple

import numpy as np

from ..errors import ProtocolError, ReproError
from . import frames
from .curve_service import CurveService
from .server import Decoded, serve_requests

#: Payloads at least this large try the shared-arena ingest path.
ARENA_INGEST_MIN = 1 << 16


def _read_payload(
    rfile: BinaryIO,
    service: CurveService,
    dtype_code: int,
    payload_len: int,
    elem_size: int,
) -> Tuple[Optional[np.ndarray], Optional[Any]]:
    """Read ``payload_len`` trace bytes; returns ``(array, lease)``.

    The lease is non-None when the bytes went straight into the shared
    arena — the caller must release it once the solve holding the view
    completes.
    """
    if not payload_len:
        return None, None
    count = payload_len // elem_size
    dt = frames.DTYPE_BY_CODE[dtype_code]
    lease = None
    if payload_len >= ARENA_INGEST_MIN:
        lease = service.ingest_lease(payload_len)
    if lease is not None:
        try:
            frames.read_payload_into(rfile, lease.buffer(), payload_len)
        except Exception:
            lease.release()
            raise
        return lease.array(dt, count), lease
    buf = bytearray(payload_len)
    frames.read_payload_into(rfile, memoryview(buf), payload_len)
    return np.frombuffer(buf, dtype=dt), None


def _frame_requests(
    rfile: BinaryIO, service: CurveService
) -> Iterator[Decoded]:
    while True:
        parsed = frames.read_frame_header(rfile)
        if parsed is None:
            return
        frame_type, dtype_code, head, payload_len, elem_size = parsed
        if frame_type != frames.FRAME_REQUEST:
            raise ProtocolError(
                f"expected a request frame, got type {frame_type}"
            )
        arr, lease = _read_payload(
            rfile, service, dtype_code, payload_len, elem_size
        )
        try:
            obj = frames.decode_object(head)
        except ReproError as exc:
            if lease is not None:
                lease.release()
            yield exc, None, None
            continue
        yield obj, arr, lease


def serve_binary(
    rfile: BinaryIO,
    wfile: BinaryIO,
    service: CurveService,
    *,
    default_config: Optional[Any] = None,
    tenants: Optional[Any] = None,
) -> int:
    """Run the binary framed protocol over one byte stream.

    The same loop as :func:`~repro.service.server.serve_stream` —
    completion-order responses, per-stream barrier for synchronous
    tenant verbs, blocks until every accepted request is answered,
    returns the failure count — over frames instead of lines.
    """

    def write(payload: Dict[str, Any]) -> None:
        wfile.write(frames.encode_frame(frames.FRAME_RESPONSE, payload))
        wfile.flush()

    return serve_requests(
        _frame_requests(rfile, service),
        write,
        service,
        framed=True,
        default_config=default_config,
        tenants=tenants,
    )


__all__ = ["ARENA_INGEST_MIN", "serve_binary"]
