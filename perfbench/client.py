"""The server under test, one JSON-lines connection, and client-side shm.

The server is a real ``repro serve --async`` process, started from the
checkout's ``src`` with the default compile options; the load generator
talks to it over TCP only.
"""

from __future__ import annotations

import os
import queue
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from multiprocessing import resource_tracker, shared_memory
from pathlib import Path
from typing import Optional

from perfbench import BLAS_THREAD_VARS

_READY = re.compile(r"serving JSON-lines \(asyncio\) on ([0-9.]+):(\d+)")

#: Seconds a single request may take before it counts as timed out.
REQUEST_TIMEOUT = 60.0
#: Seconds the server may take to report its address after the spawn.
START_TIMEOUT = 120.0
#: Seconds each step of stopping the server may take before it is forced.
STOP_TIMEOUT = 30.0


def pin_blas_threads(env: dict) -> dict:
    for name in BLAS_THREAD_VARS:
        env[name] = "1"
    return env


def server_env(root: Path) -> dict:
    """The server's environment: the checkout's ``src`` first on the path,
    no persistent compile cache (every server starts cold), one BLAS
    thread."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("REPRO_CACHE_DIR", None)
    return pin_blas_threads(env)


class ServerError(RuntimeError):
    """The server could not be started or stopped."""


class Server:
    """A ``repro serve --async --port 0`` child process."""

    def __init__(self, root: Path):
        self.root = root
        self.process: Optional[subprocess.Popen] = None
        self.address: Optional[tuple[str, int]] = None
        self.stderr_lines: list[str] = []
        self._lines: queue.Queue = queue.Queue()
        self._drain: Optional[threading.Thread] = None

    def start(self) -> None:
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--async",
             "--host", "127.0.0.1", "--port", "0"],
            cwd=self.root,
            env=server_env(self.root),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
        )
        self._drain = threading.Thread(target=self._read_stderr, daemon=True)
        self._drain.start()
        deadline = time.monotonic() + START_TIMEOUT
        while self.address is None:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                self.stop()
                raise ServerError("server did not report its address in time")
            try:
                line = self._lines.get(timeout=remaining)
            except queue.Empty:
                continue
            if line is None:
                code = self.process.wait()
                raise ServerError(
                    f"server exited with code {code}:\n" + "".join(self.stderr_lines)
                )
            match = _READY.search(line)
            if match:
                self.address = (match.group(1), int(match.group(2)))

    def _read_stderr(self) -> None:
        for line in self.process.stderr:
            self.stderr_lines.append(line)
            self._lines.put(line)
        self._lines.put(None)

    def peak_rss_mb(self) -> float:
        """The server's peak resident set (``VmHWM``) in MiB."""
        with open(f"/proc/{self.process.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise ServerError("no VmHWM in /proc status")

    def cpu_seconds(self) -> float:
        """CPU time the server's process tree has used so far: user plus
        system, every thread, worker processes included.  The kernel
        scales these figures to the scheduler's run time, which leaves out
        time the hypervisor stole from the vCPU."""
        return _tree_cpu_seconds(self.process.pid)

    def stop(self) -> None:
        """SIGINT (the CLI's clean shutdown), then SIGKILL; always reaped.

        The server's own children (its shm resource tracker) outlive it
        briefly; they are waited for too."""
        process = self.process
        if process is None or process.returncode is not None:
            return
        children = _children(process.pid)
        process.send_signal(signal.SIGINT)
        try:
            process.wait(timeout=STOP_TIMEOUT)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
        deadline = time.monotonic() + STOP_TIMEOUT
        for pid in children:
            while _running(pid) and time.monotonic() < deadline:
                time.sleep(0.01)
            if _running(pid):
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        if self._drain is not None:
            self._drain.join(timeout=STOP_TIMEOUT)


def _running(pid: int) -> bool:
    """Whether ``pid`` exists and has not exited (a zombie has exited)."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def _tree_cpu_seconds(pid: int) -> float:
    """CPU seconds of ``pid``, its reaped children and its living
    descendants (``/proc/<pid>/stat`` fields 14 to 17)."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            fields = stat.read().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0  # exited since it was listed
    own = sum(int(field) for field in fields[11:15]) / os.sysconf("SC_CLK_TCK")
    return own + sum(_tree_cpu_seconds(child) for child in _children(pid))


def _children(pid: int) -> list[int]:
    """Direct children of ``pid`` (Linux ``/proc``)."""
    children: list[int] = []
    try:
        for task in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{task}/children") as listing:
                children.extend(int(child) for child in listing.read().split())
    except OSError:
        pass
    return children


class Connection:
    """One blocking JSON-lines connection (a closed-loop client)."""

    def __init__(self, address: tuple[str, int], timeout: float = REQUEST_TIMEOUT):
        self.sock = socket.create_connection(address, timeout=timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.sock.makefile("rb")

    def roundtrip(self, line: bytes) -> bytes:
        """Send one request line, return the response line."""
        self.sock.sendall(line)
        response = self.reader.readline()
        if not response:
            raise ConnectionResetError("server closed the connection")
        return response

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


# -- client-side shared memory ------------------------------------------------
#
# Segments are made and read with ``repro.serve.shm``'s client helpers
# (``create_segment_payload``, ``read_segment_payload``).  The load
# generator owns every segment it creates and unlinks each one in
# a finally block, so it keeps no resource tracker: on Python < 3.13 merely
# attaching to a segment registers it with the attaching process's
# tracker, which at exit unlinks segments the server owns and prints
# "leaked shared_memory" warnings.  Turning registration off for this
# process also means no tracker process is ever started.

def disable_shm_tracking() -> None:
    def register(name, rtype):
        if rtype != "shared_memory":
            _register(name, rtype)

    def unregister(name, rtype):
        if rtype != "shared_memory":
            _unregister(name, rtype)

    resource_tracker.register = register
    resource_tracker.unregister = unregister


_register = resource_tracker.register
_unregister = resource_tracker.unregister


def shm_names() -> set[str]:
    """Names of the ``psm_*`` segments currently in ``/dev/shm``."""
    try:
        return {name for name in os.listdir("/dev/shm") if name.startswith("psm_")}
    except FileNotFoundError:
        return set()


def destroy_segment(segment: shared_memory.SharedMemory) -> None:
    """Close and unlink a segment this process created."""
    segment.close()
    try:
        segment.unlink()
    except FileNotFoundError:
        pass
