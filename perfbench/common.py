"""Shared plumbing: the server under test, spans, statistics, /proc reads.

Nothing here imports :mod:`repro` at module load, so ``run.py`` can
report a missing source tree before any import of the program fails.
"""

from __future__ import annotations

import json
import os
import platform
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Sequence

#: Repository root (the checkout the benchmark runs from).
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Where traced runs write their span dumps (ignored by git).
OUT_DIR = os.path.join(ROOT, ".perfbench")

#: The server under test: one process, two solver threads, tenant verbs
#: on.  Two processes in all (server + this benchmark) fit a 2-core host.
SERVER_FLAGS = ["serve", "--port", "0", "--tenants", "--workers", "2"]

#: Percentile ladder for ``*_tail_s``: the highest rung with at least ten
#: samples beyond it is reported (the median when fewer than 20 samples).
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

_PORT_RE = re.compile(r"serving on (\S+):(\d+)")


def source_tree_present() -> bool:
    return os.path.isfile(os.path.join(SRC, "repro", "__init__.py"))


# -- statistics -------------------------------------------------------------


def percentile(values: Sequence[float], p: float) -> float:
    """Linear-interpolated percentile (numpy's default method)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    pos = (len(xs) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Median, tail and sample count of one request class.

    The tail is the highest :data:`TAIL_LADDER` percentile with at least
    ten samples beyond it; ``tail_resolved`` is false when even the
    median has fewer than ten beyond it (then the tail is the median).
    """
    n = len(values)
    tail_p = next((p for p in TAIL_LADDER if n * (1 - p / 100.0) >= 10),
                  None)
    return {
        "p50": statistics.median(values),
        "tail": percentile(values, tail_p if tail_p else 50.0),
        "tail_percentile": tail_p if tail_p else 50.0,
        "tail_resolved": tail_p is not None,
        "n": n,
    }


def median_of(values: Sequence[float]) -> float:
    return statistics.median(values) if values else float("nan")


# -- spans --------------------------------------------------------------------


class Spans:
    """The benchmark's own span recorder: name, start, end, parent.

    Spans are recorded around calls *into* each layer's public API from
    this benchmark's files; the program itself is never instrumented.
    A request's spans share the ``request`` identifier of the root span
    they descend from.  Disabled recorders cost one attribute test.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.events: List[Dict[str, Any]] = []
        self._stack: List[Dict[str, Any]] = []
        self._next = 1

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        parent = self._stack[-1] if self._stack else None
        event = {
            "id": self._next,
            "name": name,
            "parent": parent["id"] if parent else None,
            "request": parent["request"] if parent else self._next,
            "attrs": attrs,
        }
        self._next += 1
        self._stack.append(event)
        event["start"] = time.perf_counter()
        try:
            yield
        finally:
            event["end"] = time.perf_counter()
            self._stack.pop()
            self.events.append(event)

    def dump(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            for event in sorted(self.events, key=lambda e: e["start"]):
                fh.write(json.dumps(event) + "\n")


# -- /proc ----------------------------------------------------------------


def proc_cpu_seconds(pid: int) -> float:
    """utime + stime of ``pid`` from ``/proc/<pid>/stat``."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    ticks = os.sysconf("SC_CLK_TCK")
    return (int(fields[11]) + int(fields[12])) / ticks


def host_steal_seconds() -> float:
    """CPU time the hypervisor gave to others (``/proc/stat`` steal), summed
    over this host's CPUs: a slow run with high steal was a busy host."""
    with open("/proc/stat") as fh:
        fields = fh.readline().split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK") if len(fields) > 8 \
        else 0.0


def proc_peak_rss_mb(pid: int) -> float:
    """VmHWM (peak resident set) of ``pid`` in MiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def environment() -> Dict[str, Any]:
    import numpy

    try:
        import numba  # noqa: F401
        has_numba = True
    except ImportError:
        has_numba = False
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": has_numba,
        "compiled_backend_measured": False,
        "machine": platform.machine(),
        "server_command": ["python", "-m", "repro"] + SERVER_FLAGS,
    }


# -- the server under test -------------------------------------------------


class Server:
    """One ``python -m repro serve`` subprocess and its client."""

    def __init__(self) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                                   if env.get("PYTHONPATH") else "")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro"] + SERVER_FLAGS,
            cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        self.client = None
        self.stderr: List[str] = []
        self._drain: Optional[threading.Thread] = None
        try:
            host, port = self._await_port()
            self._drain = threading.Thread(target=self._drain_stderr,
                                           daemon=True)
            self._drain.start()
            self._address = (host, port)
            self.reconnect()
            #: Spawn to first completed hello (the client's handshake).
            self.setup_s = time.perf_counter() - t0
        except BaseException:
            self.close()
            raise

    def reconnect(self) -> None:
        """Replace the client with a fresh connection (a new session)."""
        from repro.client import CurveClient

        if self.client is not None:
            self.client.close()
            self.client = None
        self.client = CurveClient(*self._address, timeout=120.0)
        if not self.client.binary:
            raise RuntimeError("server did not upgrade to binary")

    @property
    def pid(self) -> int:
        return self.proc.pid

    def _await_port(self):
        assert self.proc.stderr is not None
        while True:
            line = self.proc.stderr.readline()
            if not line:
                raise RuntimeError("server exited before listening: "
                                   + "".join(self.stderr))
            self.stderr.append(line)
            m = _PORT_RE.search(line)
            if m:
                return m.group(1), int(m.group(2))

    def _drain_stderr(self) -> None:
        assert self.proc.stderr is not None
        for line in self.proc.stderr:
            self.stderr.append(line)

    def close(self) -> None:
        if self.client is not None:
            self.client.close()
            self.client = None
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self._drain is not None:
            self._drain.join(timeout=5)  # EOF follows the server's exit
        if self.proc.stderr is not None:
            self.proc.stderr.close()


def start_server(setups: int) -> "tuple[Server, List[float]]":
    """Start the server ``setups`` times; keep the last one running.

    Returns it with every set-up time, so ``setup_s`` can be a median.
    """
    times: List[float] = []
    for i in range(setups):
        server = Server()
        times.append(server.setup_s)
        if i < setups - 1:
            server.close()
    return server, times
