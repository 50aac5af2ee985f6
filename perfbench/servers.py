"""`pirlab serve` processes owned by the benchmark.

Each server is started with ``--port 0``; its bound port is parsed from the
banner, and it counts as ready at its first CONFIG reply to a HELLO.  Peak
RSS (VmHWM) is read before the process is terminated; ``ServerGroup.stop``
terminates and waits for every process, and the benchmark calls it on every
exit path.
"""

from __future__ import annotations

import os
import re
import selectors
import socket
import subprocess
import sys
import time
from dataclasses import dataclass

from pirlab.sim import MSG_CONFIG, MSG_HELLO, read_frame, write_frame

BANNER = re.compile(r" on ([0-9.]+):(\d+) ")
READY_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 5.0


class ServerError(RuntimeError):
    pass


@dataclass
class Server:
    proc: subprocess.Popen
    started: float
    digest: str


def _read_banner(proc: subprocess.Popen, deadline: float) -> str:
    with selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ)
        while True:
            remaining = deadline - time.perf_counter()
            if remaining <= 0 or not sel.select(remaining):
                raise ServerError("server printed no banner in time")
            line = proc.stdout.readline()
            if not line:
                raise ServerError(f"server exited with code {proc.wait()}")
            if BANNER.search(line):
                return line


def cpu_seconds(pid: int) -> float:
    """User plus system CPU time of a live process, from /proc/<pid>/stat."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set size of a live process, from /proc/<pid>/status."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise ServerError(f"no VmHWM for pid {pid}")


class ServerGroup:
    """The servers of one set-up."""

    def __init__(self, src_dir: str, log_path: str):
        self.env = dict(os.environ, PYTHONPATH=src_dir, PYTHONUNBUFFERED="1")
        self.log_path = log_path
        self.servers: list[Server] = []
        self.peak_rss_mb = 0.0
        self.ready_s: list[float] = []

    def start(self, protocol: str, flags: list[str], k: int, db_path: str,
              digest: str) -> list[Server]:
        """Launch servers 1..k without waiting; ``wait_ready`` finishes them."""
        started = []
        with open(self.log_path, "a") as log:
            for server_id in range(1, k + 1):
                cmd = [sys.executable, "-m", "pirlab.cli", "serve", protocol, *flags,
                       "--id", str(server_id), "--db", db_path, "--port", "0"]
                t0 = time.perf_counter()
                proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=log,
                                        text=True, env=self.env)
                started.append(Server(proc, t0, digest))
                self.servers.append(started[-1])
        return started

    def wait_ready(self, servers: list[Server]) -> list[tuple[str, int]]:
        """Endpoints of ``servers``, each confirmed by a HELLO/CONFIG round trip."""
        deadline = time.perf_counter() + READY_TIMEOUT_S
        endpoints = []
        for server in servers:
            host, port = BANNER.search(_read_banner(server.proc, deadline)).groups()
            endpoint = (host, int(port))
            with socket.create_connection(endpoint, timeout=READY_TIMEOUT_S) as sock:
                write_frame(sock, MSG_HELLO, server.digest.encode())
                msg_type, _ = read_frame(sock)
            if msg_type != MSG_CONFIG:
                raise ServerError(f"server {endpoint} replied type {msg_type}")
            self.ready_s.append(time.perf_counter() - server.started)
            endpoints.append(endpoint)
        return endpoints

    def cpu_seconds(self) -> float:
        return sum(cpu_seconds(server.proc.pid) for server in self.servers)

    def stop(self) -> None:
        while self.servers:
            proc = self.servers.pop().proc
            try:
                if proc.poll() is None:
                    try:
                        self.peak_rss_mb = max(self.peak_rss_mb, vm_hwm_mb(proc.pid))
                    except FileNotFoundError:
                        pass  # exited between poll() and the read
                    proc.terminate()
                    try:
                        proc.wait(timeout=STOP_TIMEOUT_S)
                    except subprocess.TimeoutExpired:
                        proc.kill()
                        proc.wait()
            finally:
                proc.stdout.close()
