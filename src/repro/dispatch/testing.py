"""Subprocess harnesses for dispatcher tests and smoke jobs.

:class:`ReplicaSet` boots N real ``repro serve`` processes on free
ports (``--port 0``), waits until each answers ``/healthz``, and hands
out addresses/clients.  It exists so dispatcher tests exercise the
actual failure modes the router is built for — connection refused,
drain-in-progress 503s, a replica SIGTERMed mid-burst — against real
processes, not mocks.  The CI ``dispatch-smoke`` job drives the same
class.

Replicas run with in-memory caches unless ``cache_root`` is given, in
which case each replica gets its own sharded on-disk store under it
(one directory per replica — stores are per-replica by design; keeping
them hot is the router's job, and ``peer_mesh=True`` connects them
into the cluster tier: every replica gets ``--peer`` flags naming all
the others, so local misses peer-fetch and fresh computes publish).
"""

from __future__ import annotations

import select
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.errors import ReproError
from repro.serve.client import ServeClient


def free_ports(count: int) -> List[int]:
    """Pre-allocate ``count`` distinct free TCP ports.

    A peer mesh needs every replica's address *before* any replica
    boots (the ``--peer`` flags are static config), which rules out
    ``--port 0``.  Binding then closing reserves nothing, so a raced
    port is possible in principle — in practice the kernel avoids
    handing recently-bound ephemeral ports straight back, and the boot
    fails loudly if it ever happens.
    """
    sockets = []
    try:
        for _ in range(count):
            sock = socket.socket()
            sock.bind(("127.0.0.1", 0))
            sockets.append(sock)
        return [sock.getsockname()[1] for sock in sockets]
    finally:
        for sock in sockets:
            sock.close()


class ReplicaProcess:
    """One booted ``repro serve`` subprocess."""

    def __init__(self, process: subprocess.Popen, port: int):
        self.process = process
        self.port = port
        self.address = f"127.0.0.1:{port}"

    @property
    def alive(self) -> bool:
        return self.process.poll() is None

    def client(self, timeout: float = 60.0) -> ServeClient:
        return ServeClient(port=self.port, timeout=timeout)

    def terminate(self) -> None:
        """SIGTERM: the replica drains gracefully."""
        if self.alive:
            self.process.terminate()

    def kill(self) -> None:
        if self.alive:
            self.process.kill()

    def wait(self, timeout: float = 30.0) -> int:
        """Collect the exit code (kills on timeout rather than hang)."""
        try:
            return self.process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.process.kill()
            return self.process.wait(timeout=10.0)

    def output(self) -> str:
        """Whatever the replica printed (only complete after exit)."""
        if self.process.stdout is None:
            return ""
        try:
            return self.process.stdout.read() or ""
        except ValueError:
            return ""


def start_replica(
    extra_args: Sequence[str] = (),
    boot_timeout: float = 30.0,
    port: int = 0,
) -> ReplicaProcess:
    """Boot one ``repro serve`` and wait for its (announced) port.

    ``port=0`` (the default) lets the OS pick; a peer mesh passes the
    pre-allocated port its peers were told about.
    """
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", str(port),
         *extra_args],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    deadline = time.monotonic() + boot_timeout
    line = ""
    try:
        # Bound the wait for the announcement line: a replica that
        # wedges before printing must fail the boot, not hang the
        # harness past every outer timeout.
        ready, _, _ = select.select(
            [process.stdout], [], [], boot_timeout
        )
        if not ready:
            raise ReproError(
                f"no output within {boot_timeout:.0f}s"
            )
        line = process.stdout.readline()
        if "listening on" not in line:
            raise ReproError(
                f"replica did not announce its port: {line!r}"
            )
        port = int(line.rsplit(":", 1)[1].split()[0])
    except (ValueError, IndexError, ReproError) as exc:
        process.kill()
        process.wait(timeout=10.0)
        raise ReproError(f"replica failed to boot: {exc} (line {line!r})")
    replica = ReplicaProcess(process, port)
    replica.client().wait_ready(max(1.0, deadline - time.monotonic()))
    return replica


class ReplicaSet:
    """Boot and manage N local ``repro serve`` replicas.

    Use as a context manager::

        with ReplicaSet(count=2, batch_window_ms=2.0) as replicas:
            router = DispatchRouter(replicas.addresses())
            ...

    ``terminate(i)`` / ``kill(i)`` take down one member to exercise
    failover; :meth:`stop` tears down whatever is left.
    """

    def __init__(
        self,
        count: int = 2,
        cache_root: Optional[Path] = None,
        batch_window_ms: Optional[float] = 2.0,
        workers: int = 1,
        extra_args: Sequence[str] = (),
        boot_timeout: float = 30.0,
        peer_mesh: bool = False,
    ):
        if count < 1:
            raise ReproError(f"need at least 1 replica, got {count}")
        self.count = count
        self.cache_root = Path(cache_root) if cache_root else None
        self.batch_window_ms = batch_window_ms
        self.workers = workers
        self.extra_args = tuple(extra_args)
        self.boot_timeout = boot_timeout
        self.peer_mesh = peer_mesh
        self.members: List[ReplicaProcess] = []

    # ------------------------------------------------------------------

    def start(self) -> "ReplicaSet":
        assert not self.members, "ReplicaSet already started"
        # Peer config is static per process, so a mesh needs every
        # address up front: pre-allocate the ports, then tell each
        # replica about all the others.  Early boots see their peers
        # as down (fetch errors degrade to local compute) until the
        # rest arrive — exactly the production cold-start behaviour.
        ports = (
            free_ports(self.count)
            if self.peer_mesh
            else [0] * self.count
        )
        try:
            for index in range(self.count):
                args = list(self.extra_args)
                if self.batch_window_ms is not None:
                    args += [
                        "--batch-window-ms", str(self.batch_window_ms)
                    ]
                if self.workers != 1:
                    args += ["--workers", str(self.workers)]
                if self.cache_root is not None:
                    args += [
                        "--cache-dir",
                        str(self.cache_root / f"replica-{index}"),
                    ]
                if self.peer_mesh:
                    for other, peer_port in enumerate(ports):
                        if other != index:
                            args += [
                                "--peer", f"127.0.0.1:{peer_port}"
                            ]
                self.members.append(
                    start_replica(
                        args,
                        boot_timeout=self.boot_timeout,
                        port=ports[index],
                    )
                )
        except BaseException:
            self.stop()
            raise
        return self

    def stop(self) -> Dict[str, int]:
        """SIGTERM every live member; returns address -> exit code."""
        for member in self.members:
            member.terminate()
        codes = {
            member.address: member.wait() for member in self.members
        }
        self.members = []
        return codes

    def __enter__(self) -> "ReplicaSet":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------

    def addresses(self) -> List[str]:
        return [member.address for member in self.members]

    def client(self, index: int, timeout: float = 60.0) -> ServeClient:
        return self.members[index].client(timeout)

    def terminate(self, index: int) -> ReplicaProcess:
        """SIGTERM one member (graceful drain); returns its handle."""
        member = self.members[index]
        member.terminate()
        return member

    def kill(self, index: int) -> ReplicaProcess:
        member = self.members[index]
        member.kill()
        return member
