"""The three closed-loop workloads, their seeded inputs and their checks.

Every request carries a distinct trace: a pool trace relabelled by a
per-request XOR mask below 2^31.  XOR with a fixed mask is a bijection
on ids, and an LRU curve depends only on the pattern of repeats, so
each response must equal the pool trace's reference curve exactly —
while no two requests send the same bytes, so no result cache can hit.
References are computed once per pool trace, before any server starts.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.core import HitRateCurve, iaf_hit_rate_curve, sample_mask
from repro.errors import ProtocolError, ReproError
from repro.qa.accuracy import size_grid
from repro.workloads.catalog import CATALOG
from repro.workloads.cdn import simple_cdn_trace
from repro.workloads.synthetic import uniform_trace, zipfian_trace

from common import Spans, summarize

#: Cache sizes every solve response must report exactly.
SOLVE_SIZES = (1, 8, 64, 512, 4096, 32768)

_MASK_BITS = 0x7FFFFFFF  # relabelled ids stay below 2^31 (int32 paths)


def relabel_mask(seed: int, i: int) -> int:
    """The ``i``-th relabelling of a run: distinct for every ``i < 2^31``.

    Multiplication by an odd constant is a bijection modulo 2^31.
    """
    return (((seed * 0x632BE5AB + i) * 0x9E3779B1) & _MASK_BITS)


def relabel(arr: np.ndarray, mask: int) -> np.ndarray:
    return arr ^ np.int32(mask)


def check_sizes(max_size: int) -> List[int]:
    """Powers of two up to ``max_size``, plus ``max_size`` itself."""
    out = [1 << b for b in range(max(max_size, 1).bit_length())
           if (1 << b) <= max_size]
    return sorted(set(out + [max(max_size, 1)]))


def solve_problems(resp: Dict[str, Any], ref: HitRateCurve,
                   sizes: List[int]) -> List[str]:
    """Differences between a solve response and its reference curve."""
    if not resp.get("ok"):
        return [f"error {resp.get('error')}: {resp.get('message')}"]
    problems = []
    for key, want in (("total_accesses", ref.total_accesses),
                      ("max_size", ref.max_size)):
        if resp.get(key) != want:
            problems.append(f"{key} {resp.get(key)!r} != {want}")
    rates = resp.get("hit_rates") or {}
    for k in sizes:
        if rates.get(str(k)) != ref.hit_rate(k):
            problems.append(f"hit_rate({k}) {rates.get(str(k))!r} != "
                            f"{ref.hit_rate(k)!r}")
    return problems


@dataclass
class Tally:
    """Operations attempted and failed (error, refusal or mismatch)."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    def record(self, what: str, problems: List[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{what}: {'; '.join(problems)}")


#: Exceptions a client call may raise; anything else is a benchmark bug.
CLIENT_ERRORS = (ReproError, OSError)


def call(tally: Tally, what: str, fn, *args, **kwargs) -> Optional[Any]:
    """Run one client call; a raised error counts as a failed operation.

    A protocol or socket error leaves the connection unusable, so it is
    re-raised to end the run after being counted.
    """
    try:
        return fn(*args, **kwargs)
    except CLIENT_ERRORS as exc:
        tally.record(what, [f"{type(exc).__name__}: {exc}"])
        if isinstance(exc, (ProtocolError, OSError)):
            raise
        return None


class Workload:
    """One traffic mix: inputs from a seed, a closed loop, its metrics."""

    name = ""

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def prepare(self) -> None:
        """Compute reference curves (outside timing and set-up)."""

    def drive(self, server, seconds: float, spans: Spans,
              tally: Tally) -> Dict[str, Any]:
        """The timed closed loop on ``server.client``; returns samples."""
        raise NotImplementedError

    def metrics(self, samples: Dict[str, Any]) -> Tuple[Dict[str, float],
                                                        Dict[str, Any]]:
        """``(contract metrics, named report)`` from the samples."""
        raise NotImplementedError

    def replay_inputs(self) -> Tuple[List[Tuple[np.ndarray, HitRateCurve]],
                                     List[np.ndarray]]:
        """Inputs for the in-process layer replay: solves and push chunks."""
        raise NotImplementedError


def session(server, step: int):
    """The client for one step: a fresh connection after the first step.

    On a long-lived connection a request can wait ~40 ms for a delayed
    ACK (the client leaves Nagle's algorithm on), and once a connection
    falls into that state it tends to stay there: the same loop read
    60 ms or 100 ms per solve depending on the connection it drew.  One
    connection per step averages over that coin flip instead of betting
    the whole run on it; ``wire.warm_solve_overhead_s`` measures the
    long-lived case.
    """
    if step:
        server.reconnect()
    return server.client


def _window(samples: Dict[str, Any]) -> float:
    return samples["t_end"] - samples["t_start"]


class BulkSolve(Workload):
    """Whole Table-1 traces solved one after another (``large``, ``huge``)."""

    name = "bulk-solve"
    SHAPES = (("large", "uniform"), ("large", "zipf-0.8"),
              ("huge", "uniform"), ("huge", "zipf-0.8"))

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.traces = [
            (f"{size}/{dist}",
             CATALOG[size].generate(dist, seed=seed * 8 + j, dtype=np.int32))
            for j, (size, dist) in enumerate(self.SHAPES)
        ]
        self.refs: Dict[str, HitRateCurve] = {}

    def prepare(self) -> None:
        for label, arr in self.traces:
            self.refs[label] = iaf_hit_rate_curve(arr)

    def drive(self, server, seconds, spans, tally):
        lat: Dict[str, List[float]] = {label: [] for label, _ in self.traces}
        wire: List[float] = []
        batched: List[bool] = []
        accesses = 0
        i = 0
        start = time.perf_counter()
        # Whole cycles only, so every shape has the same sample count.
        while time.perf_counter() - start < seconds:
            for label, arr in self.traces:
                ref = self.refs[label]
                sizes = list(SOLVE_SIZES) + [ref.max_size]
                trace = relabel(arr, relabel_mask(self.seed, i))
                client = session(server, i)
                i += 1
                with spans.span("client.solve", shape=label, n=arr.size):
                    t0 = time.perf_counter()
                    resp = call(tally, "solve", client.solve, trace,
                                 sizes=sizes, check=False)
                    dt = time.perf_counter() - t0
                if resp is None:
                    continue
                tally.record(f"solve {label}",
                             solve_problems(resp, ref, sizes))
                lat[label].append(dt)
                accesses += arr.size
                if resp.get("ok"):
                    wire.append(dt - resp["wall_seconds"])
                    batched.append(bool(resp.get("batched")))
        return {"t_start": start, "t_end": time.perf_counter(),
                "lat": lat, "accesses": accesses, "requests": i,
                "wire_solve": wire, "batched": batched}

    @staticmethod
    def _size_class(lat: Dict[str, List[float]], size: str) -> Dict[str, Any]:
        """One catalog size: the mean of its traces' own statistics.

        Uniform and zipf traces of one size differ by ~10%, so a median
        pooled over both would sit between the two and move with noise
        in either; each trace's own median is steady.
        """
        parts = [summarize(v) for k, v in lat.items()
                 if k.startswith(size + "/")]
        return {
            "p50": statistics.fmean(p["p50"] for p in parts),
            "tail": statistics.fmean(p["tail"] for p in parts),
            "tail_percentile": min(p["tail_percentile"] for p in parts),
            "tail_resolved": all(p["tail_resolved"] for p in parts),
            "n": sum(p["n"] for p in parts),
        }

    def metrics(self, s):
        lat = s["lat"]
        main = self._size_class(lat, "large")
        second = self._size_class(lat, "huge")
        window = _window(s)
        contract = {
            "accesses_per_s": s["accesses"] / window,
            "requests_per_s": s["requests"] / window,
            "latency_p50_s": main["p50"],
            "latency_tail_s": main["tail"],
            "second_p50_s": second["p50"],
            "second_tail_s": second["tail"],
        }
        report = {
            "bulk.accesses_per_s": contract["accesses_per_s"],
            "bulk.latency_p50_s": {"large": main["p50"],
                                   "huge": second["p50"]},
            "bulk.latency_tail_s": {"large": main, "huge": second},
            "bulk.per_shape_p50_s": {k: summarize(v)["p50"]
                                     for k, v in lat.items() if v},
        }
        return contract, report

    def replay_inputs(self):
        solves = [(relabel(arr, relabel_mask(self.seed, j)),
                   self.refs[label])
                  for j, (label, arr) in enumerate(self.traces)]
        large = solves[0][0]
        chunks = [large[p:p + TenantStream.CHUNK]
                  for p in range(0, large.size, TenantStream.CHUNK)]
        return solves, chunks


class SmallSolves(Workload):
    """One 8,192-access solve, then a pipelined batch of 16, per step."""

    name = "small-solves"
    N, U, POOL, BATCH = 8192, 1024, 32, 16

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.pool = []
        for j in range(self.POOL):
            s = seed * 1000 + j
            self.pool.append(
                uniform_trace(self.N, self.U, seed=s, dtype=np.int32)
                if j % 2 == 0 else
                zipfian_trace(self.N, self.U, 0.8, seed=s, dtype=np.int32)
            )
        self.refs: List[HitRateCurve] = []

    def prepare(self) -> None:
        self.refs = [iaf_hit_rate_curve(arr) for arr in self.pool]

    def _request(self, i: int):
        j = i % self.POOL
        return relabel(self.pool[j], relabel_mask(self.seed, i)), \
            self.refs[j]

    def drive(self, server, seconds, spans, tally):
        single: List[float] = []
        batch: List[float] = []
        wire: List[float] = []
        batched: List[bool] = []
        i = 0
        start = time.perf_counter()
        steps = 0
        while time.perf_counter() - start < seconds:
            client = session(server, steps)
            steps += 1
            with spans.span("step", index=steps):
                trace, ref = self._request(i)
                i += 1
                sizes = list(SOLVE_SIZES) + [ref.max_size]
                with spans.span("client.solve", n=self.N):
                    t0 = time.perf_counter()
                    resp = call(tally, "solve", client.solve, trace,
                                 sizes=sizes, check=False)
                    dt = time.perf_counter() - t0
                if resp is not None:
                    tally.record("solve", solve_problems(resp, ref, sizes))
                    single.append(dt)
                    if resp.get("ok"):
                        wire.append(dt - resp["wall_seconds"])
                        batched.append(bool(resp.get("batched")))
                group = [self._request(i + q) for q in range(self.BATCH)]
                i += self.BATCH
                sizes = list(SOLVE_SIZES)
                with spans.span("client.solve_batch", k=self.BATCH):
                    t0 = time.perf_counter()
                    resps = call(tally, "solve_batch", client.solve_batch,
                                  [t for t, _ in group], sizes=sizes,
                                  check=False)
                    dt = time.perf_counter() - t0
                if resps is not None:
                    batch.append(dt)
                    for resp, (_, ref) in zip(resps, group):
                        tally.record("batched solve",
                                     solve_problems(resp, ref, sizes))
                        if resp.get("ok"):
                            batched.append(bool(resp.get("batched")))
        return {"t_start": start, "t_end": time.perf_counter(),
                "single": single, "batch": batch, "requests": i,
                "wire_solve": wire, "batched": batched}

    def metrics(self, s):
        window = _window(s)
        main, second = summarize(s["single"]), summarize(s["batch"])
        contract = {
            "accesses_per_s": s["requests"] * self.N / window,
            "requests_per_s": s["requests"] / window,
            "latency_p50_s": main["p50"],
            "latency_tail_s": main["tail"],
            "second_p50_s": second["p50"],
            "second_tail_s": second["tail"],
        }
        report = {
            "small.requests_per_s": contract["requests_per_s"],
            "small.single_p50_s": main["p50"],
            "small.single_tail_s": main,
            "small.batch16_p50_s": second["p50"],
            "small.batch16": second,
        }
        return contract, report

    def replay_inputs(self):
        solves = [self._request(i) for i in range(self.BATCH)]
        return solves, [t for t, _ in solves]


class TenantStream(Workload):
    """Four exact and four sampled tenants fed 65,536-access pushes.

    The loop runs whole tenant lifetimes: register eight tenants, push
    :attr:`LIFETIME` rounds of the stream to each, read every
    :attr:`READ_EVERY` rounds, evict.  A push costs more as a tenant's
    carried state grows, so a run cut at an arbitrary round would weigh
    its samples by how far it got; whole lifetimes keep the mix fixed.
    """

    name = "tenant-stream"
    CHUNK, EXACT, SAMPLED, RATE = 65536, 4, 4, 0.01
    #: Rounds per tenant lifetime (262,144 accesses).
    LIFETIME = 4
    #: Reads every other round: every fourth gave too few reads per run
    #: for a steady median on a 2-core host.
    READ_EVERY = 2
    READ_SIZES = (64, 4096)

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.stream = simple_cdn_trace(1_000_000, 50_000, alpha=0.8,
                                       seed=seed, dtype=np.int32)
        self.chunks = [self.stream[r * self.CHUNK:(r + 1) * self.CHUNK]
                       for r in range(self.LIFETIME)]
        self.ref: Optional[HitRateCurve] = None
        self.final_sizes: List[int] = []
        self.error_sizes: List[int] = []

    def prepare(self) -> None:
        self.ref = iaf_hit_rate_curve(np.concatenate(self.chunks))
        # The sampled error uses the accuracy harness's grid, which skips
        # the tiny sizes where rate-0.01 quantization dominates.
        self.error_sizes = [int(k) for k in size_grid(self.ref.max_size)]
        self.final_sizes = sorted(set(check_sizes(self.ref.max_size)
                                      + self.error_sizes))

    def tenants(self, life: int) -> List[Tuple[str, str, int]]:
        """``(name, tier, relabel mask)`` of lifetime ``life``'s tenants."""
        tiers = ["exact"] * self.EXACT + ["sampled"] * self.SAMPLED
        return [(f"{tier}-{t}.{life}", tier,
                 relabel_mask(self.seed, (1 << 30) + 16 * life + t))
                for t, tier in enumerate(tiers)]

    def drive(self, server, seconds, spans, tally):
        lat: Dict[str, List[float]] = {"exact": [], "sampled": [],
                                       "curve": []}
        shares: List[float] = []
        errors: List[float] = []
        pushes = curves = accesses = rounds = lives = 0
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            tenants = self.tenants(lives)
            client = session(server, rounds)
            for name, tier, _ in tenants:
                kwargs = {"sample_rate": self.RATE} if tier == "sampled" \
                    else {}
                resp = call(tally, "register", client.register, name,
                             tier=tier, check=False, **kwargs)
                tally.record(f"register {name}", [] if resp and resp.get(
                    "ok") else ["register failed"])
            sent = {name: 0 for name, _, _ in tenants}
            for r, base in enumerate(self.chunks):
                client = session(server, rounds)
                rounds += 1
                with spans.span("round", index=rounds):
                    for name, tier, mask in tenants:
                        arr = relabel(base, mask)
                        with spans.span("client.push", tenant=name,
                                        tier=tier):
                            t0 = time.perf_counter()
                            resp = call(tally, "push", client.push, name,
                                         arr, check=False)
                            dt = time.perf_counter() - t0
                        pushes += 1
                        if resp is None:
                            continue
                        sent[name] += arr.size
                        accesses += arr.size
                        lat[tier].append(dt)
                        tally.record(f"push {name}",
                                     self._push_problems(resp, arr, tier))
                        if tier == "sampled" and resp.get("ok"):
                            shares.append(resp["ingested"] / resp["accepted"])
                    if r % self.READ_EVERY != self.READ_EVERY - 1:
                        continue
                    last = r == self.LIFETIME - 1
                    sizes = self.final_sizes if last else list(
                        self.READ_SIZES)
                    for name, tier, _ in tenants:
                        with spans.span("client.curve", tenant=name):
                            t0 = time.perf_counter()
                            resp = call(tally, "curve", client.curve, name,
                                         sizes=sizes, check=False)
                            dt = time.perf_counter() - t0
                        curves += 1
                        if resp is None:
                            continue
                        lat["curve"].append(dt)
                        problems = self._read_problems(resp, sent[name])
                        if last and not problems:
                            problems = self._final_problems(resp, tier,
                                                            errors)
                        tally.record(f"curve {name}", problems)
            for name, _, _ in tenants:
                resp = call(tally, "evict", client.evict, name, check=False)
                tally.record(f"evict {name}", [] if resp and resp.get(
                    "evicted") else ["evict failed"])
            lives += 1
        return {"t_start": start, "t_end": time.perf_counter(),
                "lat": lat, "accesses": accesses, "pushes": pushes,
                "curves": curves, "rounds": rounds, "lifetimes": lives,
                "sampled_shares": shares,
                "sampled_mean_abs_err": (float(np.mean(errors))
                                         if errors else float("nan"))}

    def _push_problems(self, resp: Dict[str, Any], arr: np.ndarray,
                       tier: str) -> List[str]:
        """The receipt must account for every access, sampled exactly."""
        if not resp.get("ok"):
            return [f"error {resp.get('error')}: {resp.get('message')}"]
        ingested = arr.size if tier == "exact" else int(
            sample_mask(arr.astype(np.int64), self.RATE).sum())
        return [f"{key} {resp.get(key)!r} != {want!r}"
                for key, want in (("accepted", arr.size),
                                  ("ingested", ingested), ("tier", tier))
                if resp.get(key) != want]

    @staticmethod
    def _read_problems(resp: Dict[str, Any], sent: int) -> List[str]:
        """Read-your-writes: a curve covers every access sent before it."""
        if not resp.get("ok"):
            return [f"error {resp.get('error')}: {resp.get('message')}"]
        if resp.get("total_accesses") != sent:
            return [f"total_accesses {resp.get('total_accesses')!r} "
                    f"!= {sent} sent"]
        return []

    def _final_problems(self, resp: Dict[str, Any], tier: str,
                        errors: List[float]) -> List[str]:
        """An exact tenant's last curve must equal the reference exactly;
        a sampled tenant's adds its error to ``errors``."""
        ref = self.ref
        rates = resp.get("hit_rates") or {}
        if tier == "sampled":
            errors.extend(abs(rates[str(k)] - ref.hit_rate(k))
                          for k in self.error_sizes)
            return []
        problems = [f"hit_rate({k}) {rates.get(str(k))!r} != "
                    f"{ref.hit_rate(k)!r}" for k in self.final_sizes
                    if rates.get(str(k)) != ref.hit_rate(k)]
        if resp.get("max_size") != ref.max_size:
            problems.append(f"max_size {resp.get('max_size')} != "
                            f"{ref.max_size}")
        return problems

    def metrics(self, s):
        window = _window(s)
        main, second = summarize(s["lat"]["exact"]), summarize(
            s["lat"]["curve"])
        contract = {
            "accesses_per_s": s["accesses"] / window,
            "requests_per_s": (s["pushes"] + s["curves"]) / window,
            "latency_p50_s": main["p50"],
            "latency_tail_s": main["tail"],
            "second_p50_s": second["p50"],
            "second_tail_s": second["tail"],
        }
        report = {
            "tenant.push_accesses_per_s": contract["accesses_per_s"],
            "tenant.exact_push_p50_s": main["p50"],
            "tenant.exact_push": main,
            "tenant.sampled_push_p50_s": summarize(
                s["lat"]["sampled"])["p50"],
            "tenant.curve_p50_s": second["p50"],
            "tenant.curve_tail_s": second,
            "tenant.lifetimes": s["lifetimes"],
            "sampling.mean_abs_err": s["sampled_mean_abs_err"],
        }
        return contract, report

    def replay_inputs(self):
        mask = self.tenants(0)[0][2]
        chunks = [relabel(c, mask) for c in self.chunks]
        solves = [(c, iaf_hit_rate_curve(c)) for c in chunks[:2]]
        return solves, chunks


WORKLOADS = {w.name: w for w in (BulkSolve, SmallSolves, TenantStream)}
