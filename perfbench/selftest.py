"""Self-test: the benchmark's correctness gate catches corrupted replies.

Usage (from the repository root)::

    python3 perfbench/selftest.py

Runs short benchmark runs in-process with ``CurveClient``'s response
reader patched to corrupt one reply — a hit rate off by one ulp, a
read-your-writes ``total_accesses`` off by one, an exact tenant's final
curve off by one ulp — and checks that each run reports
``correct: false``, counts the failure and exits 1, while an unpatched
run exits 0.  Exits 0 when every case behaves so.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import sys
from typing import Callable, Dict, Optional

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402

sys.path.insert(0, common.SRC)

import run  # noqa: E402
from repro.client import CurveClient  # noqa: E402

Corruptor = Callable[[Dict], bool]


def _nudge_rate(reply: Dict) -> bool:
    rates = reply.get("hit_rates")
    if not rates:
        return False
    key = sorted(rates)[-1]
    rates[key] = math.nextafter(rates[key], 2.0)
    return True


def _hit_rate(reply: Dict) -> bool:
    return "hit_rates" in reply and reply.get("op") is None \
        and _nudge_rate(reply)


def _total_accesses(reply: Dict) -> bool:
    if reply.get("op") != "curve":
        return False
    reply["total_accesses"] += 1
    return True


def _final_exact_curve(reply: Dict) -> bool:
    # Final checks ask for many sizes; the periodic reads ask for two.
    return (reply.get("op") == "curve" and reply.get("exact")
            and len(reply.get("hit_rates", {})) > 2 and _nudge_rate(reply))


def run_case(workload: str, corrupt: Optional[Corruptor]):
    """One 2-second run; returns (exit code, result line, corrupted?)."""
    original = CurveClient._recv
    hit = []

    def patched(self):
        reply = original(self)
        if corrupt is not None and not hit and corrupt(reply):
            hit.append(reply.get("id"))
        return reply

    CurveClient._recv = patched
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            rc = run.main(["--workload", workload, "--seed", "7",
                           "--seconds", "2"])
    finally:
        CurveClient._recv = original
    return rc, json.loads(out.getvalue().strip().splitlines()[-1]), bool(hit)


def main() -> int:
    cases = [
        ("clean small-solves", "small-solves", None),
        ("hit rate off by one ulp", "small-solves", _hit_rate),
        ("curve total_accesses off by one", "tenant-stream",
         _total_accesses),
        ("exact tenant final curve off by one ulp", "tenant-stream",
         _final_exact_curve),
    ]
    ok = True
    for label, workload, corrupt in cases:
        rc, result, corrupted = run_case(workload, corrupt)
        if corrupt is None:
            good = rc == 0 and result["correct"] and result["failed"] == 0
        else:
            good = (corrupted and rc == 1 and not result["correct"]
                    and result["failed"] >= 1)
        ok &= good
        print(f"{'ok  ' if good else 'FAIL'} {label}: rc={rc} "
              f"correct={result['correct']} failed={result['failed']}/"
              f"{result['attempted']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
