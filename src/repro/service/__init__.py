"""repro.service — a long-running, batching hit-rate-curve solve service.

Many producers submit :class:`~repro.core.config.SolveConfig` requests;
the service coalesces compatible ones into single batched engine solves
(amortizing the per-level vectorized passes and reusing per-worker
:class:`~repro.core.engine.Workspace` buffers), shards oversized traces
across a bounded worker pool, and returns futures.

Robustness over raw throughput:

* bounded admission queue — a full queue **rejects** with
  :class:`~repro.errors.ServiceOverloadedError` instead of growing
  without bound;
* per-request deadlines and cancellation;
* retry on :class:`~repro.errors.CapacityError` (a narrow-dtype batch
  overflow falls back to per-request int64 solves);
* graceful drain on :meth:`CurveService.close`.

Front ends: the :class:`CurveService` library API, the line-oriented
``python -m repro serve`` protocol (stdin or TCP) in
:mod:`repro.service.server`, and the hello-negotiated v2 binary framed
protocol (:mod:`repro.service.frames` / :mod:`repro.service.binary`).
The request vocabulary all of them share lives in
:mod:`repro.service.schema`.  See docs/SERVICE.md and docs/CLUSTER.md;
:class:`repro.client.CurveClient` is the supported caller.
"""

from .binary import serve_binary
from .curve_service import CurveService, SolveFuture
from .server import (
    handle_tenant_request,
    parse_request,
    parse_request_obj,
    serve_stream,
    serve_tcp,
)

__all__ = [
    "CurveService",
    "SolveFuture",
    "handle_tenant_request",
    "parse_request",
    "parse_request_obj",
    "serve_binary",
    "serve_stream",
    "serve_tcp",
]
