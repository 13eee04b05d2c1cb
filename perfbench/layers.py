"""Per-layer metrics: an in-process replay of each workload's inputs.

The traced run replays the workload's inputs through the library one
layer lower at each step — client, then ``TenantService`` /
``CurveService``, then ``TenantRegistry``, then the engines — with a
span around each public call, and subtracts adjacent layers' times on
the same input.  Wire overheads pair a client call made against the
running server with the in-process call one layer below it on the same
input.  The program itself is not instrumented.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List

import numpy as np

from repro.core import (
    ChunkedIAF,
    EngineStats,
    SolveConfig,
    Workspace,
    curve_from_backward_distances,
    iaf_distances,
    iaf_hit_rate_curve,
    iaf_hit_rate_curves_batch,
    prev_next_arrays,
    sample_mask,
    solve,
)
from repro.qa.accuracy import size_grid
from repro.service import CurveService
from repro.tenants import TenantRegistry, TenantService

from common import Spans, median_of
from workloads import (
    SOLVE_SIZES,
    TenantStream,
    Workload,
    call,
    session,
    solve_problems,
)

BATCH, BATCH_N = 16, 8192
RATE = TenantStream.RATE
READ_EVERY = TenantStream.READ_EVERY
REPEATS = 3


def _per_maccess(seconds: float, accesses: int) -> float:
    return seconds / accesses * 1e6


def _group(solves) -> List[np.ndarray]:
    """Sixteen 8,192-access traces cut from the workload's solve inputs."""
    flat = np.concatenate([t for t, _ in solves])
    return [flat[q * BATCH_N:(q + 1) * BATCH_N] for q in range(BATCH)]


def replay_engine(solves, spans: Spans, tally) -> Dict[str, float]:
    """prevnext, engine and hitrate layers on the workload's solve traces."""
    t_prev = t_iaf = t_curve = 0.0
    n = work = levels = peak = 0
    for trace, ref in solves:
        stats = EngineStats()
        with spans.span("repro.core.prev_next_arrays", n=trace.size):
            t0 = time.perf_counter()
            _, nxt = prev_next_arrays(trace)
            t1 = time.perf_counter()
        with spans.span("repro.core.iaf_distances", n=trace.size):
            d = iaf_distances(trace, dtype=np.int32, stats=stats)
            t2 = time.perf_counter()
        with spans.span("repro.core.curve_from_backward_distances"):
            curve = curve_from_backward_distances(d, nxt)
            t3 = time.perf_counter()
        same = np.array_equal(curve.hits_cumulative, ref.hits_cumulative)
        tally.record("replay curve", [] if same else ["curve != reference"])
        t_prev += t1 - t0
        t_iaf += t2 - t1
        t_curve += t3 - t2
        n += trace.size
        work += int(stats.work)
        levels += stats.levels
        peak = max(peak, stats.peak_bytes)
    group = _group(solves)
    batch_s: List[float] = []
    single_s: List[float] = []
    for _ in range(REPEATS):
        with spans.span("repro.core.iaf_hit_rate_curves_batch", k=BATCH):
            t0 = time.perf_counter()
            iaf_hit_rate_curves_batch(group)
            batch_s.append(time.perf_counter() - t0)
        with spans.span("16x repro.core.iaf_hit_rate_curve", k=BATCH):
            t0 = time.perf_counter()
            for trace in group:
                iaf_hit_rate_curve(trace)
            single_s.append(time.perf_counter() - t0)
    return {
        "prevnext.s_per_maccess": _per_maccess(t_prev, n),
        "engine.solve_s_per_maccess": _per_maccess(t_iaf, n),
        "engine.work_ops": work,
        "engine.levels": levels,
        "engine.peak_bytes": peak,
        "engine.batch16_s": median_of(batch_s),
        "engine.single16_s": median_of(single_s),
        "hitrate.s_per_maccess": _per_maccess(t_curve, n),
    }


def replay_service(solves, spans: Spans) -> Dict[str, float]:
    """CurveService queueing: ``submit().result()`` minus ``solve()``.

    The direct solve reuses a workspace, as each service worker does, so
    the difference is queueing and dispatch rather than allocation.
    """
    cfg = SolveConfig(dtype=np.int32)
    direct = cfg.replace(workspace=Workspace())
    gaps: List[float] = []
    with CurveService(workers=2) as svc:
        for trace in _group(solves):
            with spans.span("repro.service.CurveService.submit"):
                t0 = time.perf_counter()
                svc.submit(trace, cfg).result()
                t1 = time.perf_counter()
            with spans.span("repro.core.solve"):
                solve(trace, direct)
                t2 = time.perf_counter()
            gaps.append((t1 - t0) - (t2 - t1))
    return {"service.queue_s": median_of(gaps)}


def replay_tenants(chunks: List[np.ndarray], spans: Spans):
    """One exact and one sampled tenant, fed the same chunks per layer.

    Layer A is ``TenantService`` (service-routed), B a bare
    ``TenantRegistry``, C the engines under it (``ChunkedIAF``, and
    ``sample_mask`` + ``ChunkedIAF`` for the sampled tier).  Returns the
    metrics and layer A's push and curve times, which the wire probe's
    client times are paired with.
    """
    svc = CurveService(workers=2)
    try:
        service = TenantService(svc, TenantRegistry())
        registry = TenantRegistry()
        for layer in (service, registry):
            layer.register("e")
            layer.register("s", tier="sampled", sample_rate=RATE)
        exact, sampled = ChunkedIAF(), ChunkedIAF()
        t = {k: [] for k in ("A", "B", "C", "A_curve", "B_curve", "S")}
        shares: List[float] = []
        for r, chunk in enumerate(chunks):
            wide = chunk.astype(np.int64)
            layers = [
                ("A", "repro.tenants.TenantService.push_many",
                 lambda: service.push_many("e", chunk).result()),
                ("B", "repro.tenants.TenantRegistry.push",
                 lambda: registry.push("e", chunk)),
                ("C", "repro.core.ChunkedIAF.push",
                 lambda: exact.push(wide)),
            ]
            # Alternate the order so no layer always runs on warm caches.
            for key, span_name, push in layers[::1 if r % 2 else -1]:
                with spans.span(span_name):
                    t0 = time.perf_counter()
                    push()
                    t[key].append(time.perf_counter() - t0)
            service.push_many("s", chunk).result()
            receipt = registry.push("s", chunk)
            shares.append(receipt["ingested"] / receipt["accepted"])
            with spans.span("repro.core.sample_mask+ChunkedIAF.push"):
                t0 = time.perf_counter()
                sampled.push(wide[sample_mask(wide, RATE)])
                t["S"].append(time.perf_counter() - t0)
            if r % READ_EVERY == READ_EVERY - 1:
                with spans.span("repro.tenants.TenantService.curve"):
                    t0 = time.perf_counter()
                    service.curve("e").result()
                    t1 = time.perf_counter()
                with spans.span("repro.tenants.TenantRegistry.curve"):
                    registry.curve("e")
                    t2 = time.perf_counter()
                t["A_curve"].append(t1 - t0)
                t["B_curve"].append(t2 - t1)
        truth = registry.curve("e").exact_curve
        estimate = registry.curve("s")
        err = float(np.mean([
            abs(estimate.hit_rate(int(k)) - truth.hit_rate(int(k)))
            for k in size_grid(truth.max_size)]))
        n = sum(c.size for c in chunks)
        return {
            "tenants.service_queue_s": median_of(
                [a - b for a, b in zip(t["A"], t["B"])]),
            "tenants.registry_overhead_s": median_of(
                [b - c for b, c in zip(t["B"], t["C"])]),
            "tenants.curve_s": median_of(t["B_curve"]),
            "tenants.state_bytes": registry.state_nbytes,
            "chunked.push_s_per_maccess": _per_maccess(sum(t["C"]), n),
            "chunked.state_bytes": exact.state_nbytes,
            "chunked.living_size": exact.living_size,
            "sampling.push_s_per_maccess": _per_maccess(sum(t["S"]), n),
            "sampling.sampled_share": median_of(shares),
            "sampling.mean_abs_err": err,
        }, t["A"], t["A_curve"]
    finally:
        svc.close()


def probe_wire(server, wl: Workload, chunks: List[np.ndarray],
               spans: Spans, tally) -> Dict[str, List[float]]:
    """Client calls paired with the in-process replay, on the live server.

    The replay chunks go to a fresh exact tenant (one connection per
    push, as in the workloads), with a read every other push; solves are
    probed when the workload sends none of its own; and sixteen 8,192-
    access solves back to back on one connection give the long-lived
    connection's overhead.
    """
    out: Dict[str, List[float]] = {"push": [], "curve": [], "solve": [],
                                   "warm_solve": []}
    name = "probe-exact"

    def solve_overhead(client, trace, ref, key: str) -> None:
        sizes = list(SOLVE_SIZES)
        with spans.span("client.solve", n=trace.size, probe=key):
            t0 = time.perf_counter()
            resp = call(tally, "solve", client.solve, trace, sizes=sizes,
                        check=False)
            dt = time.perf_counter() - t0
        if resp is not None:
            tally.record("probe solve", solve_problems(resp, ref, sizes))
            if resp.get("ok"):
                out[key].append(dt - resp["wall_seconds"])

    resp = call(tally, "register", server.client.register, name,
                check=False)
    tally.record("probe register", [] if resp and resp.get("ok")
                 else ["register failed"])
    sent = 0
    for r, chunk in enumerate(chunks):
        client = session(server, r + 1)
        with spans.span("client.push", tenant=name):
            t0 = time.perf_counter()
            resp = call(tally, "push", client.push, name, chunk, check=False)
            out["push"].append(time.perf_counter() - t0)
        sent += chunk.size
        tally.record("probe push", [] if resp and resp.get("ok")
                     else ["push failed"])
        if r % READ_EVERY == READ_EVERY - 1:
            with spans.span("client.curve", tenant=name):
                t0 = time.perf_counter()
                resp = call(tally, "curve", client.curve, name, check=False)
                out["curve"].append(time.perf_counter() - t0)
            tally.record("probe curve", [] if resp and resp.get(
                "total_accesses") == sent else ["curve mismatch"])
    if isinstance(wl, TenantStream):
        for trace, ref in wl.replay_inputs()[0]:
            solve_overhead(session(server, 1), trace, ref, "solve")
    client = session(server, 1)
    for trace in _group(wl.replay_inputs()[0]):
        solve_overhead(client, trace, iaf_hit_rate_curve(trace),
                       "warm_solve")
    return out


def layer_metrics(wl: Workload, untraced: Dict[str, Any],
                  traced: Dict[str, Any], probe: Dict[str, List[float]],
                  spans: Spans, tally) -> Dict[str, float]:
    """Every per-layer metric for one workload's traced run."""
    solves, chunks = wl.replay_inputs()
    out: Dict[str, float] = {}
    out.update(replay_engine(solves, spans, tally))
    out.update(replay_service(solves, spans))
    tenant, push_a, curve_a = replay_tenants(chunks, spans)
    out.update(tenant)
    samples = traced["samples"]
    if samples.get("sampled_shares"):
        out["sampling.sampled_share"] = median_of(samples["sampled_shares"])
    if "sampled_mean_abs_err" in samples:
        out["sampling.mean_abs_err"] = samples["sampled_mean_abs_err"]
    wire_solve = samples.get("wire_solve") or probe["solve"]
    batched = samples.get("batched", [])
    out["service.batched_share"] = (sum(batched) / len(batched)
                                    if batched else 0.0)
    out["wire.solve_overhead_s"] = median_of(wire_solve)
    out["wire.warm_solve_overhead_s"] = median_of(probe["warm_solve"])
    out["wire.push_overhead_s"] = median_of(
        [c - a for c, a in zip(probe["push"], push_a)])
    out["wire.curve_overhead_s"] = median_of(
        [c - a for c, a in zip(probe["curve"], curve_a)])
    out["server.cpu_s"] = untraced["server_cpu_s"]
    out["client.cpu_s"] = untraced["client_cpu_s"]
    for key, value in traced["contract"].items():
        out[f"trace_overhead.{key}"] = value - untraced["contract"][key]
    return out
