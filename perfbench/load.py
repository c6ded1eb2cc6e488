"""Closed-loop load against the server: set-up, the measured loop, checks.

Each workload runs in one process with at most two connections (the host
has two cores); every connection sends its next request only after the
previous response arrived.  Latency is taken from the request's send to
its decoded response.  Checks that need the compiler's oracle (the
dispatch-quality oracle) run after the measured window, so they cost no
throughput; result checks of ``execute`` run inline.
"""

from __future__ import annotations

import gc
import json
import socket
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from perfbench import client, hostspeed, workloads
from perfbench.stats import Tally
from repro.compiler.dp import dp_optimal_cost
from repro.compiler.program import ArtifactError, CompiledProgram
from repro.runtime.executor import naive_evaluate
from repro.serve.shm import create_segment_payload, read_segment_payload

#: Server set-ups per run; the set-up figures are their medians.
SETUP_REPEATS = 5
#: Hard ceiling on a measured window stretched by a minimum of rounds.
MAX_WINDOW_SECONDS = 60.0
#: Largest relative (Frobenius) error an execute result may have.
RESULT_TOLERANCE = 1e-8


@dataclass
class Pair:
    """One (handle, size vector) of an execute workload."""

    handle: int
    sizes: tuple[int, ...]
    operands: list
    reference: np.ndarray
    payloads: list = field(default_factory=list)  # wire arrays
    segments: list = field(default_factory=list)  # client-owned shm
    line: bytes = b""


@dataclass
class RunResult:
    """What one workload run measured, before it becomes metrics."""

    tally: Tally = field(default_factory=Tally)
    #: Wall seconds of each set-up, and the server's CPU seconds from its
    #: spawn to the end of the set-up.
    setup_s: list = field(default_factory=list)
    setup_cpu_s: list = field(default_factory=list)
    #: Latency of every completed operation but fresh compiles, and the
    #: ``perf_counter`` time it completed at.
    latencies_ms: list = field(default_factory=list)
    done_at: list = field(default_factory=list)
    compile_ms: list = field(default_factory=list)
    compile_done_at: list = field(default_factory=list)
    window: tuple = (0.0, 0.0)  # perf_counter start and end
    #: CPU seconds the server and this process used in the window.
    server_cpu_s: float = 0.0
    client_cpu_s: float = 0.0
    #: Calibration loop times taken through the window (``hostspeed``).
    calibration_s: list = field(default_factory=list)
    server_rss_mb: float = 0.0
    excess: list = field(default_factory=list)
    shm_leaked: int = 0
    server_warnings: int = 0
    #: ``(kind, line)`` of every measured request, in order; kind is
    #: ``fresh_compile`` or ``op``.
    lines: list = field(default_factory=list)


def relative_error(result: np.ndarray, reference: np.ndarray) -> float:
    scale = float(np.linalg.norm(reference)) or 1.0
    return float(np.linalg.norm(result - reference)) / scale


def _json(raw: bytes) -> dict:
    message = json.loads(raw)
    if not isinstance(message, dict):
        raise ValueError("response is not a JSON object")
    return message


def failure_kind(exc: BaseException) -> str:
    """How a transport exception counts: ``timeout`` or ``refused``."""
    if isinstance(exc, (socket.timeout, TimeoutError)):
        return "timeout"
    return "refused"


class _Window:
    """The measured window: ends at ``seconds`` or, if later, once
    ``minimum`` units of work are done (capped).  It takes the CPU time
    of the server and of this process, and calibrates the host speed
    every ``hostspeed.INTERVAL_S``."""

    def __init__(self, server: client.Server, seconds: float, minimum: int = 0):
        self.server = server
        self.calibrations: list[float] = []
        self._state = threading.Condition()
        self._in_flight = 0  # connections between send and decoded answer
        self._paused = False
        self.cpu = (server.cpu_seconds(), time.process_time())
        self.start = time.perf_counter()
        self.soft = self.start + seconds
        self.hard = self.start + max(seconds, MAX_WINDOW_SECONDS)
        self.minimum = minimum
        self._next_calibration = self.start

    def begin(self) -> None:
        """A connection is about to send; waits while calibrating."""
        with self._state:
            while self._paused:
                self._state.wait()
            self._in_flight += 1

    def end(self) -> None:
        with self._state:
            self._in_flight -= 1
            self._state.notify_all()

    def calibrate_if_due(self) -> None:
        """Run the calibration loop if its time has come.

        It runs while no request is in flight (the other connection
        pauses before its next one), so it reads the host with the server
        and the load generator idle, whatever the program under test does.
        """
        if time.perf_counter() < self._next_calibration:
            return
        with self._state:
            if self._paused or time.perf_counter() < self._next_calibration:
                return
            self._paused = True
            while self._in_flight:
                self._state.wait()
        try:
            sample = hostspeed.calibration_seconds()
        finally:
            with self._state:
                self.calibrations.append(sample)
                self._next_calibration = time.perf_counter() + hostspeed.INTERVAL_S
                self._paused = False
                self._state.notify_all()

    def open(self, done: int = 0) -> bool:
        now = time.perf_counter()
        if now >= self.hard:
            return False
        return now < self.soft or done < self.minimum

    def close(self, out: RunResult) -> None:
        out.window = (self.start, time.perf_counter())
        out.server_cpu_s = self.server.cpu_seconds() - self.cpu[0]
        out.calibration_s = list(self.calibrations)
        out.client_cpu_s = time.process_time() - self.cpu[1] - sum(out.calibration_s)


# -- execute workloads ---------------------------------------------------------

class ExecWorkload:
    """``exec_small_npy`` and ``exec_large_shm``: warm ``execute`` traffic."""

    def __init__(self, root: Path, seed: int, *, shm: bool, connections: int):
        self.root = root
        self.seed = seed
        self.shm = shm
        self.connections = connections
        size_range = (
            workloads.LARGE_SIZE_RANGE if shm else workloads.SMALL_SIZE_RANGE
        )
        self.handles = workloads.make_handles(seed, size_range)
        rng = np.random.default_rng([seed, 3, int(shm)])
        self.pairs: list[Pair] = []
        for h, handle in enumerate(self.handles):
            for sizes in handle.sizes:
                operands = workloads.make_operands(handle.chain, sizes, rng)
                self.pairs.append(
                    Pair(
                        h,
                        tuple(int(s) for s in sizes),
                        operands,
                        naive_evaluate(handle.chain, operands),
                    )
                )
        if not shm:
            for pair in self.pairs:
                pair.payloads = [workloads.npy_payload(a) for a in pair.operands]

    # Request lines need the server's handle, known after compiling.
    def _build_lines(self) -> None:
        for index, pair in enumerate(self.pairs):
            payload = {
                "op": "execute",
                "handle": self.handles[pair.handle].key,
                "arrays": pair.payloads,
                "id": index,
            }
            if self.shm:
                payload["result_encoding"] = "shm"
            pair.line = workloads.request_line(payload)

    def _create_segments(self) -> None:
        for pair in self.pairs:
            made = [create_segment_payload(a) for a in pair.operands]
            pair.payloads = [payload for payload, _ in made]
            pair.segments = [segment for _, segment in made]

    def _destroy_segments(self) -> None:
        for pair in self.pairs:
            for segment in pair.segments:
                client.destroy_segment(segment)
            pair.segments = []

    def run_op(self, conn: client.Connection, pair: Pair) -> tuple[str, float]:
        """One operation; returns ``(outcome, latency_ms)``.

        Transport exceptions propagate (the caller reconnects)."""
        start = time.perf_counter()
        message = _json(conn.roundtrip(pair.line))
        if not message.get("ok"):
            return "error", 0.0
        payload = message["result"]
        if self.shm:
            if payload.get("encoding") != "shm":
                return "wrong", 0.0
            result = read_segment_payload(payload)
            released = _json(
                conn.roundtrip(
                    workloads.request_line({"op": "release", "name": payload["name"]})
                )
            )
            if not (released.get("ok") and released.get("released")):
                return "error", 0.0
        else:
            result = workloads.npy_result(payload)
        latency_ms = 1e3 * (time.perf_counter() - start)
        if tuple(message.get("sizes", ())) != pair.sizes:
            return "wrong", latency_ms
        if result.shape != pair.reference.shape:
            return "wrong", latency_ms
        if not relative_error(result, pair.reference) <= RESULT_TOLERANCE:
            return "wrong", latency_ms
        return "ok", latency_ms

    def _setup(self, server: client.Server, tally: Tally) -> float:
        """Spawn → ready, compile the handles, one warm pass; seconds."""
        start = time.perf_counter()
        server.start()
        conn = client.Connection(server.address)
        try:
            pong = _json(conn.roundtrip(workloads.request_line({"op": "ping"})))
            if not pong.get("ok"):
                raise client.ServerError("server did not answer ping")
            for index, handle in enumerate(self.handles):
                reply = _json(conn.roundtrip(workloads.compile_line(handle.source, index)))
                tally.record("ok" if reply.get("ok") else "error")
                if not reply.get("ok"):
                    raise client.ServerError(f"handle compile failed: {reply}")
                if handle.key and handle.key != reply["handle"]:
                    raise client.ServerError("handle changed between servers")
                handle.key = reply["handle"]
            self._build_lines()
            for pair in self.pairs:
                tally.record(self.run_op(conn, pair)[0])
        finally:
            conn.close()
        return time.perf_counter() - start

    def run(self, seconds: float) -> RunResult:
        out = RunResult()
        before = client.shm_names()
        server = None
        try:
            for repeat in range(SETUP_REPEATS):
                if self.shm:
                    # Fresh segments per server: a stopped server's resource
                    # tracker unlinks the segments it attached.
                    self._create_segments()
                server = client.Server(self.root)
                out.setup_s.append(self._setup(server, out.tally))
                out.setup_cpu_s.append(server.cpu_seconds())
                if repeat < SETUP_REPEATS - 1:
                    self._finish_server(server, out)
                    server = None
            self._measure(server, seconds, out)
            out.server_rss_mb = server.peak_rss_mb()
        finally:
            if server is not None:
                self._finish_server(server, out)
        out.shm_leaked = len(client.shm_names() - before)
        return out

    def _finish_server(self, server: client.Server, out: RunResult) -> None:
        server.stop()
        if self.shm:
            self._destroy_segments()
        out.server_warnings += sum(
            "leaked shared_memory" in line for line in server.stderr_lines
        )

    def _measure(self, server: client.Server, seconds: float, out: RunResult) -> None:
        rng = np.random.default_rng([self.seed, 4])
        orders = [rng.permutation(len(self.pairs)) for _ in range(self.connections)]
        lock = threading.Lock()
        window = None

        def loop(order) -> None:
            tally, latencies, done_at = Tally(), [], []
            conn = client.Connection(server.address)
            position = 0
            try:
                while window.open():
                    window.calibrate_if_due()
                    pair = self.pairs[order[position % len(order)]]
                    position += 1
                    window.begin()
                    try:
                        outcome, latency_ms = self.run_op(conn, pair)
                    except (OSError, ValueError) as exc:
                        outcome = failure_kind(exc) if isinstance(exc, OSError) else "error"
                        conn.close()
                        conn = client.Connection(server.address)
                        latency_ms = 0.0
                    finally:
                        window.end()
                    tally.record(outcome)
                    if outcome == "ok":
                        latencies.append(latency_ms)
                        done_at.append(time.perf_counter())
            finally:
                conn.close()
                with lock:
                    out.tally.outcomes.update(tally.outcomes)
                    out.latencies_ms.extend(latencies)
                    out.done_at.extend(done_at)

        threads = [threading.Thread(target=loop, args=(order,)) for order in orders]
        gc.collect()
        gc.disable()
        try:
            window = _Window(server, seconds)
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            window.close(out)
        finally:
            gc.enable()


# -- compile + dispatch --------------------------------------------------------

def dispatch_line(handle: str, sizes, request_id: int) -> bytes:
    return workloads.request_line(
        {"op": "dispatch", "handle": handle, "sizes": [int(s) for s in sizes], "id": request_id}
    )


class CompileDispatchWorkload:
    """``compile_dispatch``: fresh compiles, memo-missing dispatches, repeats."""

    def __init__(self, root: Path, seed: int):
        self.root = root
        self.seed = seed

    def _setup(self, server: client.Server) -> float:
        start = time.perf_counter()
        server.start()
        conn = client.Connection(server.address)
        try:
            pong = _json(conn.roundtrip(workloads.request_line({"op": "ping"})))
            if not pong.get("ok"):
                raise client.ServerError("server did not answer ping")
        finally:
            conn.close()
        return time.perf_counter() - start

    def run(self, seconds: float) -> RunResult:
        out = RunResult()
        server = None
        try:
            for repeat in range(SETUP_REPEATS):
                server = client.Server(self.root)
                out.setup_s.append(self._setup(server))
                out.setup_cpu_s.append(server.cpu_seconds())
                if repeat < SETUP_REPEATS - 1:
                    server.stop()
                    server = None
            rounds, dispatched = self._measure(server, seconds, out)
            out.server_rss_mb = server.peak_rss_mb()
        finally:
            if server is not None:
                server.stop()
        self._check(rounds, dispatched, out)
        return out

    def _measure(self, server, seconds, out: RunResult):
        conn = client.Connection(server.address)
        rounds: list[workloads.Round] = []
        dispatched: list[tuple[int, tuple, str]] = []  # (round, sizes, variant)
        request_id = 0
        tally = out.tally

        def send(line: bytes, kind: str = "op") -> tuple[Optional[dict], float]:
            """The reply (``None`` on failure) and its latency in ms."""
            nonlocal conn, request_id
            window.calibrate_if_due()
            request_id += 1
            out.lines.append((kind, line))
            start = time.perf_counter()
            try:
                message = _json(conn.roundtrip(line))
            except (OSError, ValueError) as exc:
                tally.record(failure_kind(exc) if isinstance(exc, OSError) else "error")
                conn.close()
                conn = client.Connection(server.address)
                return None, 0.0
            elapsed_ms = 1e3 * (time.perf_counter() - start)
            if not message.get("ok"):
                tally.record("error")
                return None, elapsed_ms
            return message, elapsed_ms

        gc.collect()
        gc.disable()
        try:
            # At least the quality prefix of rounds, which also brings the
            # dispatch samples to the 1000 the 99th percentile needs.
            window = _Window(server, seconds, workloads.QUALITY_ROUNDS)
            for rnd in workloads.compile_rounds(self.seed):
                if not window.open(rnd.index):
                    break
                rounds.append(rnd)
                reply, elapsed_ms = send(
                    workloads.compile_line(rnd.source, request_id, artifact=True),
                    "fresh_compile",
                )
                if reply is None:
                    continue
                rnd.handle, rnd.artifact = reply.get("handle") or "", reply.get("artifact")
                out.compile_ms.append(elapsed_ms)
                out.compile_done_at.append(time.perf_counter())
                tally.record("ok" if rnd.handle and rnd.artifact else "wrong")
                for sizes in rnd.dispatch_sizes:
                    reply, elapsed_ms = send(dispatch_line(rnd.handle, sizes, request_id))
                    if reply is None:
                        continue
                    out.latencies_ms.append(elapsed_ms)
                    out.done_at.append(time.perf_counter())
                    dispatched.append((rnd.index, tuple(int(s) for s in sizes), reply.get("variant")))
                if rnd.repeat_of is not None:
                    earlier = rounds[rnd.repeat_of]
                    reply, elapsed_ms = send(workloads.compile_line(earlier.source, request_id))
                    if reply is None:
                        continue
                    out.latencies_ms.append(elapsed_ms)
                    out.done_at.append(time.perf_counter())
                    tally.record("ok" if reply.get("handle") == earlier.handle else "wrong")
            window.close(out)
        finally:
            gc.enable()
            conn.close()
        return rounds, dispatched

    @staticmethod
    def _check(rounds, dispatched, out: RunResult) -> None:
        """Dispatch checks against each compile's own artifact.

        The server must answer the variant with the fewest FLOPs among the
        compiled ones (the default cost model), and the quality oracle
        prices it against the DP optimum over all parenthesizations."""
        program_of: tuple = (None, None)  # dispatches arrive round by round
        for index, sizes, name in dispatched:
            if program_of[0] != index:
                try:
                    program_of = (index, CompiledProgram.loads(json.dumps(rounds[index].artifact)))
                except ArtifactError:
                    program_of = (index, None)
            program = program_of[1]
            if program is None:
                out.tally.record("wrong")
                continue
            costs = {v.name: v.flop_cost(sizes) for v in program.variants}
            if name not in costs or costs[name] > min(costs.values()) * (1 + 1e-12):
                out.tally.record("wrong")
                continue
            if index < workloads.QUALITY_ROUNDS:
                excess = costs[name] / dp_optimal_cost(program.chain, sizes) - 1.0
                if excess < -1e-9:
                    out.tally.record("wrong")
                    continue
                out.excess.append(max(excess, 0.0))
            out.tally.record("ok")

