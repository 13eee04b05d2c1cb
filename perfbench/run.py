"""The repository benchmark: closed-loop traffic through ``repro serve``.

Usage (from the repository root)::

    python3 perfbench/run.py --workload bulk-solve --seed 1 --seconds 20 \
        --trace 0

Each run starts ``python -m repro serve --port 0 --tenants --workers 2``
several times (``setup_s`` is the median spawn-to-first-hello time),
keeps the last server, and drives it in a closed loop for ``--seconds``
over binary ``CurveClient`` connections, one per step.  Every response is
checked exactly against reference curves computed before any server
starts.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the same
seed untraced, then traced (spans around every client call), probes the
wire on that server, replays the inputs in-process one layer lower at
each step, and prints the per-layer metrics (see ``perfbench/README.md``).
The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 1 when any check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from typing import Any, Dict, Optional

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402

#: Server starts per run; ``setup_s`` is their median.
SETUPS = 5


def end_to_end(wl, seconds: float, spans, tally, probe=None) -> Dict[str, Any]:
    """One fresh server and the timed closed loop on it."""
    server, setups = common.start_server(SETUPS)
    try:
        cpu_server0 = common.proc_cpu_seconds(server.pid)
        cpu_client0 = time.process_time()
        steal0 = common.host_steal_seconds()
        samples = wl.drive(server, seconds, spans, tally)
        server_cpu = common.proc_cpu_seconds(server.pid) - cpu_server0
        client_cpu = time.process_time() - cpu_client0
        steal = common.host_steal_seconds() - steal0
        rss = common.proc_peak_rss_mb(server.pid)
        probed = probe(server) if probe is not None else None
    finally:
        server.close()
    contract, report = wl.metrics(samples)
    report["host_steal_s"] = steal
    contract = dict(setup_s=statistics.median(setups),
                    server_rss_peak_mb=rss, **contract)
    return {"contract": contract, "report": report, "samples": samples,
            "setups": setups, "server_cpu_s": server_cpu,
            "client_cpu_s": client_cpu, "probe": probed}


def _emit(line: Dict[str, Any]) -> None:
    print(json.dumps(line, default=float), flush=True)


def main(argv: Optional[list] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not common.source_tree_present():
        print(f"perfbench: no source tree at {common.SRC}; run from a "
              f"repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, common.SRC)
    from workloads import CLIENT_ERRORS, WORKLOADS, Tally

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload](args.seed)
    wl.prepare()
    tally = Tally()
    _emit({"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, "env": common.environment()})
    try:
        untraced = end_to_end(wl, args.seconds, common.Spans(False), tally)
        if args.trace:
            from layers import layer_metrics, probe_wire

            spans = common.Spans(True)
            chunks = wl.replay_inputs()[1]
            traced = end_to_end(
                wl, args.seconds, spans, tally,
                probe=lambda server: probe_wire(server, wl, chunks, spans,
                                                tally))
            metrics = layer_metrics(wl, untraced, traced, traced["probe"],
                                    spans, tally)
            spans.dump(os.path.join(common.OUT_DIR, f"{wl.name}-seed"
                                    f"{args.seed}-spans.jsonl"))
            _emit({"tracing_overhead": {k: v for k, v in metrics.items()
                                        if k.startswith("trace_overhead.")},
                   "traced_report": traced["report"]})
        else:
            metrics = untraced["contract"]
    except CLIENT_ERRORS as exc:
        # The connection or the server is gone; the failure is counted.
        _emit({"aborted": f"{type(exc).__name__}: {exc}",
               "problems": tally.problems})
        _emit({"correct": False, "attempted": max(tally.attempted, 1),
               "failed": max(tally.failed, 1), "metrics": {}})
        return 1
    units = _units("per_layer" if args.trace else "end_to_end")
    _emit({"report": untraced["report"], "setups_s": untraced["setups"],
           "error_rate": tally.failed / max(tally.attempted, 1),
           "problems": tally.problems})
    for name in sorted(metrics):
        print(f"  {name:<34} {metrics[name]:>16.6g} {units[name]}")
    correct = tally.failed == 0
    _emit({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": float(v), "unit": units[k]}
                    for k, v in metrics.items()},
    })
    return 0 if correct else 1


def _units(kind: str) -> Dict[str, str]:
    """Metric units as declared in ``BENCHMARK.json``."""
    with open(os.path.join(common.ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


if __name__ == "__main__":
    sys.exit(main())
