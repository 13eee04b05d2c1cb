"""The one request loop behind both wire codecs.

Conformance: one scripted sequence answered through the line codec
(``serve_stream``) and the frame codec (``serve_binary``) must produce
the same reply dicts.  Bounded state: a long-lived connection keeps no
per-request state once its requests are answered.
"""

from __future__ import annotations

import gc
import io
import json
import struct
import sys
import threading
import time
import tracemalloc

import numpy as np

from repro.service import CurveService, serve_binary, serve_stream
from repro.service import frames, server
from repro.tenants import TenantService
from repro.workloads.traceio import write_trace

#: Per-solve fields that legitimately differ between two runs.
_VOLATILE = ("wall_seconds", "batched")

#: The fixed frame header layout (docs in :mod:`repro.service.frames`).
_FIXED = "<4sBBHIQ"


def _line(request):
    """A scripted step as a v1 line (a str passes through verbatim)."""
    return request if isinstance(request, str) else json.dumps(request)


def _frame(request):
    """The same step as a v2 frame; inline traces ride as a payload."""
    if isinstance(request, str):
        if request.startswith("{"):  # deliberately bad JSON
            head = request.encode("utf-8")
            return struct.pack(_FIXED, frames.MAGIC, frames.FRAME_REQUEST,
                               frames.DTYPE_NONE, 0, len(head), 0) + head
        request = {"trace": request}  # a bare path names the trace
    header = dict(request)
    trace = header.pop("trace", None)
    if isinstance(trace, list):
        payload = np.asarray(trace, dtype=np.int64).tobytes()
        return frames.encode_frame(frames.FRAME_REQUEST, header, payload,
                                   frames.DTYPE_INT64)
    if trace is not None:
        header["trace"] = trace
    return frames.encode_frame(frames.FRAME_REQUEST, header)


def _canonical(replies):
    out = []
    for reply in replies:
        reply = {k: v for k, v in reply.items() if k not in _VOLATILE}
        out.append(json.dumps(reply, sort_keys=True))
    return sorted(out)


def _via_lines(script, tenants_on):
    out = []
    with CurveService(workers=1) as svc:
        tenants = TenantService(svc) if tenants_on else None
        failures = serve_stream(
            [_line(r) for r in script], out.append, svc, tenants=tenants,
            upgrade=lambda: None,
        )
    return failures, [json.loads(o) for o in out]


def _via_frames(script, tenants_on):
    rfile = io.BytesIO(b"".join(_frame(r) for r in script))
    wfile = io.BytesIO()
    with CurveService(workers=1) as svc:
        tenants = TenantService(svc) if tenants_on else None
        failures = serve_binary(rfile, wfile, svc, tenants=tenants)
    wfile.seek(0)
    replies = []
    while True:
        got = frames.read_frame(wfile)
        if got is None:
            break
        replies.append(got[1])
    return failures, replies


class TestCodecConformance:
    def test_same_replies_on_both_codecs(self, tmp_path, rng):
        path = tmp_path / "t.reprotrc"
        write_trace(path, rng.integers(0, 40, size=600))
        trace = rng.integers(0, 90, size=1500).tolist()
        tenants_off = [
            {"trace": [1, 2, 1, 3, 1], "id": "inline", "sizes": [1, 2]},
            str(path),
            "{not json",
            {"trace": [1], "id": "u", "bogus": 1},
            {"trace": [1, 2, 1], "id": 7, "sizes": [1]},
            {"op": "hello", "id": "h"},
            {"op": "register", "tenant": "t", "id": "off"},
        ]
        tenants_on = [
            {"op": "register", "tenant": "w", "id": "r"},
            {"op": "push", "tenant": "w", "trace": trace, "id": "p"},
            {"op": "curve", "tenant": "w", "sizes": [8, 64], "id": "c"},
            {"op": "evict", "tenant": "w", "id": "e"},
            {"op": "tenants", "id": "t"},
        ]
        for script, on in ((tenants_off, False), (tenants_on, True)):
            line_failures, by_line = _via_lines(script, on)
            frame_failures, by_frame = _via_frames(script, on)
            assert len(by_line) == len(by_frame) == len(script)
            assert line_failures == frame_failures
            # A v2 hello also reports the framing the connection is on.
            for reply in by_frame:
                if reply.get("op") == "hello":
                    assert reply.pop("upgraded") == 2
            assert _canonical(by_line) == _canonical(by_frame)

        ids = {r["id"]: r for r in by_line}
        assert ids["e"]["evicted"] is True and ids["t"]["tenants"] == []
        _, by_line = _via_lines(tenants_off, False)
        assert [r["id"] for r in by_line].count(None) == 3
        by_message = {r.get("message", ""): r for r in by_line}
        assert any(m.startswith("bad request JSON") for m in by_message)
        assert any("not enabled" in m for m in by_message)

    def test_non_string_ids_answer_null_on_every_reply_kind(self):
        script = [
            {"trace": [1, 2], "id": 1},
            {"trace": "no-such-file.trc", "id": 2.5},
            {"op": "hello", "id": [3]},
            {"op": "tenants", "id": {"n": 4}},
        ]
        for via in (_via_lines, _via_frames):
            _, replies = via(script, False)
            assert [r["id"] for r in replies] == [None] * 4


class TestBoundedConnectionState:
    def test_answered_requests_leave_no_state_behind(self):
        """5,000 answered requests on one open stream must not grow the
        loop's memory (it used to keep one Event per request for the
        connection's whole life)."""
        warm, count = 200, 5000
        bound = 32 * 1024  # bytes; ~6 per request, where an Event is 56
        request = json.dumps({"trace": [1, 2, 1], "id": "r"})
        answered = [0]
        lock = threading.Lock()
        growth = []

        def emit(text):
            with lock:
                answered[0] += 1

        def wait_answered(n):
            deadline = time.monotonic() + 120
            while answered[0] < n:
                assert time.monotonic() < deadline, answered[0]
                time.sleep(0.005)

        def snapshot():
            gc.collect()
            return tracemalloc.take_snapshot().filter_traces(
                [tracemalloc.Filter(True, server.__file__)]
            )

        def lines():
            for _ in range(warm):
                yield request
            wait_answered(warm)
            before = snapshot()
            for _ in range(count):
                yield request
            wait_answered(warm + count)
            after = snapshot()
            growth.append(sum(
                stat.size_diff
                for stat in after.compare_to(before, "filename")
            ))

        tracemalloc.start()
        try:
            with CurveService(workers=2, max_queue=count + warm,
                              max_batch=64) as svc:
                failures = serve_stream(lines(), emit, svc)
        finally:
            tracemalloc.stop()
        assert failures == 0
        assert answered[0] == warm + count
        assert growth[0] < bound, growth[0]


class TestReplyAccounting:
    def test_counts_hold_under_concurrent_completions(self):
        """Replies complete on four worker threads and the dispatcher at
        once; a lost update would miscount failures or let the stream
        return before its last reply."""
        total = 2000
        lines = []
        for i in range(total):
            request = {"trace": [1, 2, 1, i], "id": str(i)}
            if i % 2:
                request["deadline"] = 1e-9  # fails on the dispatcher
            lines.append(json.dumps(request))
        out = []
        result = []
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with CurveService(workers=4, max_queue=total,
                              max_batch=8) as svc:
                runner = threading.Thread(target=lambda: result.append(
                    (serve_stream(lines, out.append, svc), len(out))
                ))
                runner.start()
                runner.join(timeout=120)
                assert not runner.is_alive()
        finally:
            sys.setswitchinterval(old)
        failures, answered_at_return = result[0]
        assert answered_at_return == total
        replies = [json.loads(o) for o in out]
        assert failures == sum(not r["ok"] for r in replies) == total // 2
        assert sorted(int(r["id"]) for r in replies) == list(range(total))
