"""Shared plumbing: paths, child processes, HTTP, statistics, tracing.

Everything here is the benchmark's own code, not the program's test
harnesses, so a change to the program cannot change how it is measured.
The program is reached only through ``src/`` (imported in-process for
the kernel and engine layers) and through ``python -m repro``
subprocesses.
"""

from __future__ import annotations

import http.client
import itertools
import json
import os
import select
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: The checkout root: the directory holding ``perfbench/``.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Everything a run writes (temp cache dirs, trace files) lives here.
WORK = ROOT / ".perfbench_run"


class BenchError(RuntimeError):
    """The benchmark could not run (not a failed output check)."""


def require_program() -> None:
    """Put ``src/`` first on the import path, or refuse to run."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise BenchError(f"imported repro from {repro.__file__}, not {SRC}")


# ----------------------------------------------------------------------
# Statistics.


def median(values: Sequence[float]) -> float:
    if not values:
        raise BenchError("median of an empty sample")
    return statistics.median(values)


# ----------------------------------------------------------------------
# Child processes.


def program_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("REPRO_FAULTLAB", None)
    return env


def repro_command(*args: str) -> List[str]:
    return [sys.executable, "-m", "repro", *args]


def free_ports(count: int) -> List[int]:
    """``count`` distinct ports the kernel reports free right now."""
    socks = []
    try:
        for _ in range(count):
            sock = socket.socket()
            sock.bind(("127.0.0.1", 0))
            socks.append(sock)
        return [sock.getsockname()[1] for sock in socks]
    finally:
        for sock in socks:
            sock.close()


class Service:
    """One ``repro serve`` / ``repro dispatch`` subprocess."""

    def __init__(self, args: Sequence[str]):
        self.args = list(args)
        self.process = subprocess.Popen(
            repro_command(*args),
            cwd=str(ROOT),
            env=program_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        self.port: Optional[int] = None

    def wait_listening(self, timeout: float = 60.0) -> int:
        """Block until the process announces its port; return it."""
        ready, _, _ = select.select([self.process.stdout], [], [], timeout)
        line = self.process.stdout.readline() if ready else ""
        if "listening on" not in line:
            self.stop()
            raise BenchError(
                f"{' '.join(self.args[:1])} did not start: {line!r} "
                f"{self.process.stdout.read()!r}"
            )
        self.port = int(line.split("listening on http://")[1]
                        .split()[0].rsplit(":", 1)[1])
        return self.port

    def stop(self, timeout: float = 20.0) -> None:
        """SIGTERM, wait, SIGKILL on timeout; always reaps."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=10.0)
        if self.process.stdout is not None:
            self.process.stdout.close()


def _proc_table() -> Dict[int, int]:
    """pid -> parent pid for every live process."""
    table = {}
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # The command name may hold spaces; fields resume after ")".
        fields = stat.rsplit(")", 1)[1].split()
        if fields[0] == "Z":
            continue
        table[int(entry.name)] = int(fields[1])
    return table


def descendants(pid: int) -> List[int]:
    table = _proc_table()
    found, frontier = [], [pid]
    while frontier:
        parent = frontier.pop()
        for child, ppid in table.items():
            if ppid == parent:
                found.append(child)
                frontier.append(child)
    return found


def peak_rss_mb(pids: Iterable[int]) -> float:
    """Sum of ``VmHWM`` over ``pids`` (MiB)."""
    total_kb = 0
    for pid in pids:
        try:
            status = Path(f"/proc/{pid}/status").read_text()
        except OSError:
            raise BenchError(f"process {pid} gone before its VmHWM was read")
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total_kb += int(line.split()[1])
    return total_kb / 1024.0


def assert_no_children() -> None:
    """Teardown guard: nothing this run started may outlive it."""
    deadline = time.monotonic() + 10.0
    while True:
        survivors = descendants(os.getpid())
        if not survivors or time.monotonic() > deadline:
            break
        time.sleep(0.05)
    if survivors:
        for pid in survivors:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        raise BenchError(f"processes survived teardown: {survivors}")


@contextmanager
def scratch_dir(prefix: str):
    """A fresh temp directory inside the checkout, removed afterwards."""
    WORK.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix=prefix, dir=str(WORK)))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


# ----------------------------------------------------------------------
# HTTP.


class Connection:
    """One keep-alive HTTP/1.1 client connection."""

    def __init__(self, port: int, timeout: float = 60.0):
        self.conn = http.client.HTTPConnection(
            "127.0.0.1", port, timeout=timeout
        )

    def request(
        self, method: str, path: str, body: Optional[bytes] = None
    ) -> Tuple[int, Dict[str, str], bytes]:
        headers = {"Content-Type": "application/json"} if body else {}
        self.conn.request(method, path, body=body, headers=headers)
        response = self.conn.getresponse()
        data = response.read()
        return response.status, dict(response.getheaders()), data

    def get_json(self, path: str) -> Dict:
        status, _, data = self.request("GET", path)
        if status != 200:
            raise BenchError(f"GET {path} answered {status}")
        return json.loads(data)

    def close(self) -> None:
        self.conn.close()


def closed_loop(
    port: int,
    requests: Sequence[bytes],
    check,
    clients: int,
    tracer: "Tracer",
    deadline: Optional[float] = None,
) -> List[Tuple[float, float, Optional[str], bool]]:
    """Send ``requests`` from ``clients`` keep-alive connections.

    Each client sends its next request only after the previous answer
    arrived.  ``check(index, status, headers, body)`` returns a problem
    string or None.  Without a ``deadline`` every request is sent once;
    with one the sequence repeats until it passes.  An enabled tracer
    spans every other request.  Returns ``(finished_at, seconds,
    problem, traced)`` per request, in completion order.
    """
    counter = itertools.count()
    lock = threading.Lock()
    records: List[Tuple[float, float, Optional[str], bool]] = []
    errors: List[BaseException] = []

    def client() -> None:
        conn = Connection(port)
        try:
            while deadline is None or time.perf_counter() < deadline:
                with lock:
                    seq = next(counter)
                if deadline is None and seq >= len(requests):
                    return
                index = seq % len(requests)
                traced = tracer.alternate(seq)
                with tracer.span_if(traced, "client.request", request=seq):
                    started = time.perf_counter()
                    status, headers, body = conn.request(
                        "POST", "/schedule", requests[index]
                    )
                    finished = time.perf_counter()
                problem = check(index, status, headers, body)
                with lock:
                    records.append(
                        (finished, finished - started, problem, traced)
                    )
        except BaseException as exc:  # surfaced after join
            errors.append(exc)
        finally:
            conn.close()

    threads = [threading.Thread(target=client) for _ in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise BenchError(f"client failed: {errors[0]!r}")
    return sorted(records)


# ----------------------------------------------------------------------
# Tracing.


def trace_overhead(untraced: Dict, traced: Dict) -> Dict[str, float]:
    """Traced minus untraced end-to-end figures: the tracing overhead."""
    return {
        "trace.throughput_delta_pct": 100.0 * (
            traced["throughput_per_s"] / untraced["throughput_per_s"] - 1.0
        ),
        "trace.latency_p50_delta_ms": (
            traced["latency_p50_ms"] - untraced["latency_p50_ms"]
        ),
    }


class Tracer:
    """In-memory spans: (id, name, start, end, parent, request).

    Disabled tracers hand out a no-op span, so the untraced run pays
    one attribute check per call site.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: List[Tuple[int, str, float, float, Optional[int],
                               Optional[int]]] = []
        self._ids = itertools.count()

    @contextmanager
    def span(self, name: str, parent: Optional[int] = None,
             request: Optional[int] = None):
        if not self.enabled:
            yield None
            return
        span_id = next(self._ids)
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            self.spans.append(
                (span_id, name, start, time.perf_counter(), parent, request)
            )

    def alternate(self, seq: int) -> bool:
        """Whether call ``seq`` of a measured loop is traced: every other
        one when enabled, so a single loop yields traced and untraced
        samples under the same conditions."""
        return self.enabled and seq % 2 == 1

    def span_if(self, traced: bool, name: str, **fields):
        return self.span(name, **fields) if traced else nullcontext()

    def self_seconds(self, name: str) -> float:
        """Summed self time of spans called ``name``: each span's
        duration minus the part of it its child spans cover."""
        children: Dict[int, List[Tuple[float, float]]] = {}
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                children.setdefault(parent, []).append((start, end))
        total = 0.0
        for span_id, span_name, start, end, _, _ in self.spans:
            if span_name != name:
                continue
            covered, reach = 0.0, start
            for c_start, c_end in sorted(children.get(span_id, [])):
                c_start, c_end = max(c_start, reach), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            total += (end - start) - covered
        return total

    def durations(self, name: str) -> List[float]:
        return [end - start for _, n, start, end, _, _ in self.spans
                if n == name]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ("id", "name", "start", "end", "parent", "request")
        path.write_text(json.dumps(
            [dict(zip(fields, span)) for span in self.spans]
        ))
