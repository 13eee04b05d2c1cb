"""The in-process solve service: admission control, batching, sharding.

One dispatcher thread drains the bounded admission queue in ticks.  Each
tick's requests are *planned*: expired ones fail fast with
:class:`~repro.errors.DeadlineExceededError`, cancelled ones are
dropped, oversized ones are rewritten to a bounded-memory
``chunked-iaf`` solve (or a ``process-iaf`` dispatch to the shared
process pool), and the remaining batchable requests are grouped by
:meth:`~repro.core.config.SolveConfig.batch_key` so each group rides
**one** coalesced level loop (see
:func:`repro.core.api.solve_batch`).  Work units run on a small thread
pool; a semaphore bounds the units in flight, so when the pool falls
behind, the queue fills and :meth:`CurveService.submit` starts rejecting
— backpressure reaches producers as
:class:`~repro.errors.ServiceOverloadedError`, never as unbounded
memory.

Every worker thread keeps its own fused-kernel
:class:`~repro.core.engine.Workspace`, so consecutive solves on one
worker reuse level buffers without any cross-thread sharing.
"""

from __future__ import annotations

import queue
import threading
import time
from collections import deque
from concurrent.futures import Future, InvalidStateError, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .._typing import DEFAULT_DTYPE, TraceLike, as_trace
from ..core.api import _truncate, solve, solve_batch
from ..core.config import SolveConfig, SolveResult
from ..core.engine import Workspace, resolve_engine_backend
from ..errors import (
    CapacityError,
    DeadlineExceededError,
    ServiceClosedError,
    ServiceOverloadedError,
)
from ..obs import NULL_SPAN, Counters, get_tracer

#: Default trace length above which a request leaves the batch path and
#: is sharded across the service's ``shard_workers`` threads instead.
DEFAULT_SHARD_THRESHOLD = 1 << 20


class SolveFuture(Future):
    """A :class:`concurrent.futures.Future` for one submitted request.

    ``result()`` yields the request's
    :class:`~repro.core.config.SolveResult`; failure modes surface as
    the usual exceptions (:class:`DeadlineExceededError`,
    :class:`ServiceClosedError`, or whatever the solve raised).
    ``cancel()`` works until the dispatcher dequeues the request.
    """

    def __init__(self, *, config: SolveConfig, label: str = "") -> None:
        super().__init__()
        self.config = config
        self.label = label


@dataclass
class _Request:
    """One queued unit of work (the trace is validated at submit time).

    ``work`` is the generic escape hatch: when set, the request carries a
    zero-argument callable instead of a solve (``arr``/``config`` are
    placeholders) and the planner routes it straight to a worker.  The
    tenant layer rides this path so its ingest shares the service's
    admission queue, tick, deadlines, and backpressure.
    """

    future: SolveFuture
    arr: np.ndarray
    config: SolveConfig
    submitted_at: float
    deadline: Optional[float]  # absolute time.monotonic(), or None
    label: str
    work: Optional[Callable[[], object]] = None


class CurveService:
    """A long-running solve service for hit-rate-curve requests.

    Usage::

        with CurveService(workers=4) as svc:
            futures = [svc.submit(t, SolveConfig()) for t in traces]
            curves = [f.result().curve for f in futures]

    ``max_queue`` bounds admitted-but-unplanned requests (beyond it,
    :meth:`submit` raises :class:`ServiceOverloadedError`); ``max_batch``
    bounds how many requests one dispatch tick plans together, which is
    also the largest possible coalesced batch.  ``default_deadline`` (in
    seconds) applies to requests submitted without one.  Traces of at
    least ``shard_threshold`` accesses leave the batch path: by default
    they run as bounded-memory ``chunked-iaf`` solves (working set
    O(u + chunk), never O(n) — ``shard_chunk_size`` overrides the chunk
    length), while ``shard_processes=True`` routes them to the
    persistent shared-memory process pool (:mod:`repro.parallel_exec`)
    as ``process-iaf`` solves over ``shard_workers`` processes —
    one pool per process, shared across services and dispatch ticks.
    """

    def __init__(
        self,
        *,
        max_queue: int = 256,
        max_batch: int = 32,
        workers: int = 2,
        shard_threshold: int = DEFAULT_SHARD_THRESHOLD,
        shard_workers: int = 4,
        shard_processes: bool = False,
        shard_chunk_size: Optional[int] = None,
        default_deadline: Optional[float] = None,
        tick_seconds: float = 0.02,
        latency_window: int = 1024,
    ) -> None:
        if max_queue < 1:
            raise CapacityError(f"max_queue must be >= 1, got {max_queue}")
        if max_batch < 1:
            raise CapacityError(f"max_batch must be >= 1, got {max_batch}")
        if workers < 1:
            raise CapacityError(f"workers must be >= 1, got {workers}")
        if shard_workers < 1:
            raise CapacityError(
                f"shard_workers must be >= 1, got {shard_workers}"
            )
        if shard_chunk_size is not None and shard_chunk_size < 1:
            raise CapacityError(
                f"shard_chunk_size must be >= 1, got {shard_chunk_size}"
            )
        self._max_queue = max_queue
        self._max_batch = max_batch
        self._shard_threshold = shard_threshold
        self._shard_workers = shard_workers
        self._shard_processes = shard_processes
        self._shard_chunk_size = shard_chunk_size
        if shard_processes:
            # Warm the process pool before traffic arrives: the shared
            # executor (one per process, reused by every dispatch tick)
            # forks its workers here, not inside the first oversized
            # request.  Service close() leaves the pool running — it is
            # shared with other services and the library's direct
            # callers; atexit tears it down.
            from ..parallel_exec import default_executor

            default_executor(shard_workers)
        self._default_deadline = default_deadline
        self._tick = tick_seconds
        self._queue: "queue.Queue[_Request]" = queue.Queue(maxsize=max_queue)
        self._pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-curve"
        )
        # Bounds work units handed to the pool but not yet finished; when
        # exhausted the dispatcher stops draining, the queue fills, and
        # submit() rejects — backpressure instead of an unbounded pool
        # queue.
        self._slots = threading.Semaphore(2 * workers)
        self._local = threading.local()
        self._closing = threading.Event()
        self._stopping = threading.Event()
        # The dispatcher checks _paused before each dequeue and flags
        # the dequeue itself; pause() sets _paused and waits the flag
        # out, so once pause() returns no request can leave the queue —
        # a deterministic freeze within one tick.  (Taking a lock the
        # dispatcher re-takes every tick would starve: locks are unfair.)
        self._gate = threading.Condition()
        self._paused = False
        self._dequeuing = False
        self._lock = threading.Lock()
        self._latencies: "deque[float]" = deque(maxlen=latency_window)
        self.counters = Counters()
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="repro-curve-dispatch",
            daemon=True,
        )
        self._dispatcher.start()

    # -- producer side ------------------------------------------------

    def submit(
        self,
        trace: TraceLike,
        config: Optional[SolveConfig] = None,
        *,
        deadline: Optional[float] = None,
        label: str = "",
    ) -> SolveFuture:
        """Enqueue one request; returns immediately with its future.

        ``deadline`` is seconds from now (``None`` uses the service
        default, which may also be ``None`` = no deadline).  Raises
        :class:`ServiceOverloadedError` when the admission queue is full
        and :class:`ServiceClosedError` after :meth:`close` — both
        *before* any work is queued, so a rejected request costs the
        producer nothing but the validation.
        """
        if self._closing.is_set():
            raise ServiceClosedError(
                "service is closed; no new requests accepted"
            )
        cfg = config if config is not None else SolveConfig()
        arr = as_trace(
            trace, dtype=DEFAULT_DTYPE if cfg.dtype is None else cfg.dtype
        )
        if deadline is None:
            deadline = self._default_deadline
        now = time.monotonic()
        future = SolveFuture(config=cfg, label=label)
        req = _Request(
            future=future, arr=arr, config=cfg, submitted_at=now,
            deadline=None if deadline is None else now + deadline,
            label=label,
        )
        try:
            self._queue.put_nowait(req)
        except queue.Full:
            with self._lock:
                self.counters.add("service.rejected")
            raise ServiceOverloadedError(
                f"admission queue full ({self._max_queue} pending); "
                f"retry later or raise max_queue"
            ) from None
        with self._lock:
            self.counters.add("service.submitted")
            self.counters.peak(
                "service.queue_depth_peak", self._queue.qsize()
            )
        return future

    def submit_work(
        self,
        fn: Callable[[], object],
        *,
        deadline: Optional[float] = None,
        label: str = "",
    ) -> SolveFuture:
        """Enqueue an arbitrary callable as one service work unit.

        The unit shares everything a solve request gets — the bounded
        admission queue (:class:`ServiceOverloadedError` on overflow),
        the dispatch tick, deadline expiry while queued, cancellation,
        and the worker pool — and its future resolves with ``fn()``'s
        return value.  This is the routing primitive the tenant layer
        builds ingest on; it is not a general thread-pool replacement
        (units still occupy the same in-flight slots as solves).
        """
        if self._closing.is_set():
            raise ServiceClosedError(
                "service is closed; no new requests accepted"
            )
        if deadline is None:
            deadline = self._default_deadline
        now = time.monotonic()
        cfg = SolveConfig()
        future = SolveFuture(config=cfg, label=label)
        req = _Request(
            future=future, arr=np.zeros(0, dtype=np.int64), config=cfg,
            submitted_at=now,
            deadline=None if deadline is None else now + deadline,
            label=label, work=fn,
        )
        try:
            self._queue.put_nowait(req)
        except queue.Full:
            with self._lock:
                self.counters.add("service.rejected")
            raise ServiceOverloadedError(
                f"admission queue full ({self._max_queue} pending); "
                f"retry later or raise max_queue"
            ) from None
        with self._lock:
            self.counters.add("service.submitted")
            self.counters.add("service.work_units")
            self.counters.peak(
                "service.queue_depth_peak", self._queue.qsize()
            )
        return future

    def solve_many(
        self,
        traces: Sequence[TraceLike],
        config: Optional[SolveConfig] = None,
        *,
        deadline: Optional[float] = None,
        labels: Optional[Sequence[str]] = None,
    ) -> List[SolveResult]:
        """Submit every trace atomically and wait for all results.

        Submission happens under :meth:`pause`, so one dispatch tick
        sees the whole set and compatible requests coalesce maximally
        (the ``analyze --batch`` path).  The traces must fit the
        admission queue.
        """
        names = labels if labels is not None else [""] * len(traces)
        self.pause()
        try:
            futures = [
                self.submit(t, config, deadline=deadline, label=name)
                for t, name in zip(traces, names)
            ]
        finally:
            self.resume()
        return [f.result() for f in futures]

    # -- test/operator hooks ------------------------------------------

    def pause(self) -> None:
        """Stop the dispatcher from draining (admissions still accepted).

        Blocks until any in-flight dequeue finishes (at most one tick),
        after which no request leaves the queue until :meth:`resume` —
        tests and batch submitters stage queue states deterministically.
        Idempotent.
        """
        with self._gate:
            self._paused = True
            self._gate.wait_for(lambda: not self._dequeuing)

    def resume(self) -> None:
        with self._gate:
            self._paused = False
            self._gate.notify_all()

    def record_protocol_error(self) -> None:
        """Count one malformed (undecodable) request line.

        The line front ends call this for input that never reaches
        :func:`~repro.service.server.parse_request` — e.g. bytes that are
        not valid UTF-8 — so operators can tell protocol garbage apart
        from well-formed requests that failed.
        """
        with self._lock:
            self.counters.add("service.protocol_errors")

    def ingest_lease(self, nbytes: int):
        """Lease a shared-arena block for zero-copy wire ingest, or None.

        Only meaningful when this service routes oversized solves to the
        process pool (``shard_processes=True``): the binary protocol
        server writes bulk trace bytes straight into the lease so the
        eventual ``process-iaf`` dispatch reads them from the arena they
        already live in.  Returns ``None`` whenever the pool (or shared
        memory itself) is unavailable — callers fall back to a heap
        buffer and lose nothing but the copy.
        """
        if not self._shard_processes:
            return None
        from ..parallel_exec import default_executor

        executor = default_executor(self._shard_workers)
        if executor is None:
            return None
        return executor.ingest(nbytes)

    def metrics(self) -> Dict[str, float]:
        """Counter snapshot plus queue depth and latency percentiles."""
        with self._lock:
            out = dict(self.counters.snapshot())
            lats = sorted(self._latencies)
        out["service.queue_depth"] = float(self._queue.qsize())
        if lats:
            out["service.latency_p50"] = lats[int(0.50 * (len(lats) - 1))]
            out["service.latency_p99"] = lats[int(0.99 * (len(lats) - 1))]
        return out

    # -- lifecycle ----------------------------------------------------

    def close(self, *, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Shut down; idempotent.

        ``drain=True`` (default) stops admissions, lets every already
        accepted request run to completion, then stops the workers.
        ``drain=False`` additionally fails still-queued requests with
        :class:`ServiceClosedError` (requests already handed to a worker
        still complete).
        """
        self._closing.set()
        if not drain:
            while True:
                try:
                    req = self._queue.get_nowait()
                except queue.Empty:
                    break
                if req.future.set_running_or_notify_cancel():
                    self._finish(
                        req,
                        error=ServiceClosedError(
                            "service closed before the request ran"
                        ),
                    )
        self._stopping.set()
        self.resume()
        self._dispatcher.join(timeout)
        self._pool.shutdown(wait=True)

    def __enter__(self) -> "CurveService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close(drain=True)

    # -- dispatcher ---------------------------------------------------

    def _dispatch_loop(self) -> None:
        while True:
            batch: List[_Request] = []
            with self._gate:
                self._gate.wait_for(lambda: not self._paused)
                self._dequeuing = True
            try:
                batch.append(self._queue.get(timeout=self._tick))
                while len(batch) < self._max_batch:
                    batch.append(self._queue.get_nowait())
            except queue.Empty:
                pass
            finally:
                with self._gate:
                    self._dequeuing = False
                    self._gate.notify_all()
            if batch:
                self._plan(batch)
            elif self._stopping.is_set():
                return

    def _plan(self, reqs: List[_Request]) -> None:
        """Partition one tick's requests and hand units to the pool."""
        now = time.monotonic()
        runnable: List[_Request] = []
        for req in reqs:
            if not req.future.set_running_or_notify_cancel():
                with self._lock:
                    self.counters.add("service.cancelled")
                continue
            if req.deadline is not None and now > req.deadline:
                self._finish(req, error=DeadlineExceededError(
                    f"request {req.label or 'unnamed'!s} expired while "
                    f"queued (deadline passed "
                    f"{now - req.deadline:.3f}s ago)"
                ))
                continue
            runnable.append(req)
        groups: Dict[Tuple, List[_Request]] = {}
        singles: List[Tuple[_Request, bool]] = []
        for req in runnable:
            if req.work is not None:
                self._submit_unit(self._run_work, req)
            elif (
                req.arr.size >= self._shard_threshold
                and req.config.algorithm == "iaf"
            ):
                singles.append((req, True))
            elif req.config.batchable:
                groups.setdefault(req.config.batch_key(), []).append(req)
            else:
                singles.append((req, False))
        for group in groups.values():
            if len(group) == 1:
                singles.append((group[0], False))
            else:
                self._submit_unit(self._run_batch, group)
        for req, shard in singles:
            self._submit_unit(self._run_single, req, shard)

    def _submit_unit(self, fn, *args) -> None:
        while not self._slots.acquire(timeout=self._tick):
            pass  # all units in flight; wait for the pool to catch up

        def run() -> None:
            try:
                fn(*args)
            finally:
                self._slots.release()

        try:
            self._pool.submit(run)
        except RuntimeError as exc:
            # Pool already shut down (interpreter exit without close()):
            # fail the unit's requests instead of killing the dispatcher.
            self._slots.release()
            reqs = args[0] if isinstance(args[0], list) else [args[0]]
            for req in reqs:
                self._finish(req, error=ServiceClosedError(
                    f"service worker pool is shut down ({exc})"
                ))

    # -- worker side --------------------------------------------------

    def _workspace(self) -> Workspace:
        ws = getattr(self._local, "workspace", None)
        if ws is None:
            ws = Workspace()
            self._local.workspace = ws
        return ws

    def _with_workspace(self, cfg: SolveConfig) -> SolveConfig:
        """Attach this worker's workspace where the engine can use it."""
        if (
            cfg.algorithm == "iaf"
            and resolve_engine_backend(cfg.engine_backend) != "naive"
            and cfg.workspace is None
        ):
            return cfg.replace(workspace=self._workspace())
        return cfg

    def _run_single(self, req: _Request, shard: bool = False) -> None:
        cfg = req.config
        if shard:
            if self._shard_processes:
                cfg = cfg.replace(
                    algorithm="process-iaf", workers=self._shard_workers,
                    workspace=None,
                )
            else:
                # Bounded-memory shard: the chunked incremental engine
                # keeps the working set at O(u + chunk) regardless of
                # trace length, so one oversized request cannot blow the
                # service's memory the way a full-trace solve would.
                cfg = cfg.replace(
                    algorithm="chunked-iaf",
                    chunk_size=self._shard_chunk_size,
                    workspace=None,
                )
            with self._lock:
                self.counters.add("service.sharded")
        else:
            cfg = self._with_workspace(cfg)
        tracer = get_tracer()
        span = (
            tracer.span("service.request", n=int(req.arr.size),
                        algorithm=cfg.algorithm, sharded=int(shard))
            if tracer.enabled else NULL_SPAN
        )
        try:
            with span:
                result = solve(req.arr, cfg)
        except Exception as exc:  # noqa: BLE001 — delivered via the future
            self._finish(req, error=exc)
            return
        self._finish(req, result=result)

    def _run_work(self, req: _Request) -> None:
        tracer = get_tracer()
        span = (
            tracer.span("service.work", label=req.label)
            if tracer.enabled else NULL_SPAN
        )
        try:
            with span:
                result = req.work()
        except Exception as exc:  # noqa: BLE001 — delivered via the future
            self._finish(req, error=exc)
            return
        self._finish(req, result=result)

    def _run_batch(self, reqs: List[_Request]) -> None:
        base = self._with_workspace(
            reqs[0].config.replace(max_cache_size=None)
        )
        arrs = [r.arr for r in reqs]
        tracer = get_tracer()
        span = (
            tracer.span("service.batch", k=len(reqs),
                        n=int(sum(a.size for a in arrs)),
                        algorithm=base.algorithm)
            if tracer.enabled else NULL_SPAN
        )
        try:
            with span:
                results = solve_batch(arrs, base)
        except CapacityError:
            # The coalesced solve certified a narrow dtype that then
            # overflowed (or a request forced one).  Retry each request
            # alone: single solves default to int64 heads, the smallest
            # shard that cannot overflow.
            with self._lock:
                self.counters.add("service.capacity_retries")
            for req in reqs:
                self._run_single(req)
            return
        except Exception as exc:  # noqa: BLE001 — delivered via the futures
            for req in reqs:
                self._finish(req, error=exc)
            return
        with self._lock:
            self.counters.add("service.batches")
            self.counters.add("service.batched_requests", len(reqs))
            self.counters.peak("service.batch_occupancy_peak", len(reqs))
        for req, res in zip(reqs, results):
            curve = res.curve
            k = req.config.max_cache_size
            if k is not None and curve.truncated_at is None:
                curve = _truncate(curve, k)
            self._finish(req, result=SolveResult(
                curve=curve, config=req.config, stats=res.stats,
                distances=res.distances, wall_seconds=res.wall_seconds,
                batched=True,
            ))

    def _finish(
        self,
        req: _Request,
        result: object = None,  # SolveResult, or work-unit return value
        error: Optional[BaseException] = None,
    ) -> None:
        now = time.monotonic()
        if (
            error is None
            and req.deadline is not None
            and now > req.deadline
        ):
            error = DeadlineExceededError(
                f"request {req.label or 'unnamed'!s} completed "
                f"{now - req.deadline:.3f}s after its deadline"
            )
        with self._lock:
            self._latencies.append(now - req.submitted_at)
            if error is None:
                self.counters.add("service.completed")
            elif isinstance(error, DeadlineExceededError):
                self.counters.add("service.deadline_exceeded")
            else:
                self.counters.add("service.failed")
        try:
            if error is None:
                req.future.set_result(result)
            else:
                req.future.set_exception(error)
        except InvalidStateError:
            pass  # the future was cancelled under our feet
