"""The traced run: the same request lines, in-process, layer by layer.

The server's own request handler (``repro.serve.frontend.handle_line``)
answers each line, but in this process and with the public functions of
every layer wrapped by the benchmark: each wrapper records a span around
the call, so the layers are measured from outside and the code that runs
is the code that serves.  Rounds alternate between an untraced call and a
traced call on the same line; the ratio of the two is the tracing
overhead.

Layers and the functions whose calls are their spans:

``serve``     ``handle_line`` (root), ``json.loads``/``json.dumps`` as the
              front end calls them, ``decode_operand``, ``encode_array``
``service``   ``CompileService.lookup``; ``CompileService.submit`` up to
              its future's result (``service.compile``)
``runtime``   ``SizeInferencer.infer``, ``Dispatcher._select_entry``,
              ``compile_plan`` (as the dispatcher calls it),
              ``ExecutionPlan.replay``
``compiler``  each of ``default_passes()`` run on a ``PassContext``, once
              per fresh compile, outside the served rounds
"""

from __future__ import annotations

import contextlib
import functools
import gc
import json
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from perfbench.stats import Span, self_times

#: Kernels whose calls are counted one by one (the kernels the ten feature
#: options of the workloads can reach); any other kernel counts as "other".
COUNTED_KERNELS = (
    "GEMM", "SYMM", "TRMM", "SYSYMM", "TRSYMM", "TRTRMM",
    "GEGESV", "GESYSV", "GETRSV", "SYGESV", "SYSYSV", "SYTRSV",
    "POGESV", "POSYSV", "POTRSV", "TRSM", "TRSYSV", "TRTRSV",
    "GEINV", "SYINV", "POINV", "TRINV", "TRANSPOSE", "COPY",
)

#: Spans whose per-operation self time is reported, by metric name.
LAYER_SPANS = {
    "serve.json_decode": "serve.json_decode_us",
    "serve.operand_decode": "serve.operand_decode_us",
    "serve.result_encode": "serve.result_encode_us",
    "serve.json_encode": "serve.json_encode_us",
    "service.lookup": "service.lookup_us",
    "runtime.infer": "runtime.infer_us",
    "runtime.select": "runtime.select_us",
    "runtime.replay": "runtime.replay_us",
}
ROOT = "serve.handle_line"
PASS_NAMES = (
    "parse", "simplify", "sample", "enumerate", "cost-matrix", "select",
    "expand", "dispatch",
)


class Recorder:
    """Spans kept in memory; ``info`` holds a span's object of interest
    (the replayed plan, a compile's pipeline seconds)."""

    def __init__(self) -> None:
        self.spans: list[Optional[Span]] = []
        self.info: dict[int, object] = {}
        self._stack: list[int] = []

    def open(self, name: str) -> tuple[int, Optional[int]]:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        index = len(self.spans) - 1
        self._stack.append(index)
        return index, parent

    def close(self, index: int, parent: Optional[int], name: str, start: float) -> None:
        self.spans[index] = Span(name, start, time.perf_counter(), parent)
        self._stack.pop()


class _ResultTimedFuture:
    """A compile future whose ``result()`` closes the ``service.compile``
    span: the span covers submission, queueing and the pipeline run.  The
    span's info is the pipeline's own time, every pass included, from the
    session's last context (the traced run compiles one chain at a time)."""

    def __init__(self, future, service, recorder: Recorder, index: int, parent, start: float):
        self._future = future
        self._service = service
        self._span = (recorder, index, parent, start)

    def result(self, timeout=None):
        recorder, index, parent, start = self._span
        try:
            generated = self._future.result(timeout)
        finally:
            recorder.spans[index] = Span("service.compile", start, time.perf_counter(), parent)
        last = self._service.session.last_context
        recorder.info[index] = sum(last.timings.values()) if last is not None else 0.0
        return generated

    def __getattr__(self, name):
        return getattr(self._future, name)


class Instrumentation:
    """Installs and removes the span wrappers (main thread only: the
    wrapped calls of a served line all run on the caller's thread)."""

    def __init__(self, recorder: Recorder):
        from repro.runtime import dispatcher as dispatcher_module
        from repro.runtime.dispatcher import Dispatcher
        from repro.runtime.executor import SizeInferencer
        from repro.runtime.plan import ExecutionPlan
        from repro.serve import frontend
        from repro.serve.service import CompileService

        self.recorder = recorder
        wrap = self._wrap
        #: The root span: the front end's whole answer to one line.
        self.handle_line = wrap(ROOT, frontend.handle_line)
        traced_json = type(
            "TracedJson",
            (),
            {
                "loads": staticmethod(wrap("serve.json_decode", json.loads)),
                "dumps": staticmethod(wrap("serve.json_encode", json.dumps)),
            },
        )
        self._patches = [
            (frontend, "json", traced_json),
            (frontend, "decode_operand", wrap("serve.operand_decode", frontend.decode_operand)),
            (frontend, "encode_array", wrap("serve.result_encode", frontend.encode_array)),
            (CompileService, "lookup", wrap("service.lookup", CompileService.lookup)),
            (CompileService, "submit", self._wrap_submit(CompileService.submit)),
            (SizeInferencer, "infer", wrap("runtime.infer", SizeInferencer.infer)),
            (Dispatcher, "_select_entry", wrap("runtime.select", Dispatcher._select_entry)),
            (dispatcher_module, "compile_plan",
             wrap("runtime.plan_compile", dispatcher_module.compile_plan)),
            (ExecutionPlan, "replay",
             wrap("runtime.replay", ExecutionPlan.replay, keep_first_arg=True)),
        ]
        self._saved = [(owner, name, owner.__dict__[name]) for owner, name, _ in self._patches]

    def _wrap(self, name: str, fn: Callable, keep_first_arg: bool = False) -> Callable:
        """``fn`` recording a span per call; ``keep_first_arg`` keeps the
        first argument (the replayed plan) as the span's info."""
        recorder = self.recorder

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index, parent = recorder.open(name)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                recorder.close(index, parent, name, start)
                if keep_first_arg:
                    recorder.info[index] = args[0]

        return traced

    def _wrap_submit(self, submit: Callable) -> Callable:
        recorder = self.recorder

        @functools.wraps(submit)
        def traced(service, *args, **kwargs):
            parent = recorder._stack[-1] if recorder._stack else None
            recorder.spans.append(None)
            index = len(recorder.spans) - 1
            start = time.perf_counter()
            future = submit(service, *args, **kwargs)
            return _ResultTimedFuture(future, service, recorder, index, parent, start)

        return traced

    @contextlib.contextmanager
    def installed(self):
        for owner, name, replacement in self._patches:
            setattr(owner, name, replacement)
        try:
            yield
        finally:
            for owner, name, original in self._saved:
                setattr(owner, name, original)


def make_service():
    """A service built like ``repro serve``'s: default compile options, a
    256-entry compile cache, no second cache tier, thread workers."""
    from repro.compiler.session import CompilerSession
    from repro.serve.service import CompileService

    return CompileService(CompilerSession(cache_capacity=256), max_queue=256)


# -- per-operation accounting ---------------------------------------------------

@dataclass
class Op:
    """One operation of the traced run: its request lines, the spans of
    its traced rounds, and the untraced time of the same lines."""

    kind: str  # "fresh_compile" or "op"
    first_span: int = 0
    last_span: int = 0
    untraced_s: float = 0.0
    traced_s: float = 0.0
    request_bytes: int = 0
    response_bytes: int = 0


@dataclass
class TracedRun:
    recorder: Recorder = field(default_factory=Recorder)
    ops: list = field(default_factory=list)
    passes: list = field(default_factory=list)  # one {pass: s} per fresh compile
    pools: list = field(default_factory=list)
    selected: list = field(default_factory=list)

    def serve_op(
        self, line: bytes, services, instrumentation, kind: str, follow=None,
        untraced: bool = True,
    ) -> list:
        """Answer one operation untraced on ``services[0]``, then traced on
        ``services[1]`` (the same service when the state allows it).

        An operation is ``line`` plus the lines ``follow(response)`` derives
        from each response until it returns ``None`` (the ``release`` after
        an shm ``execute``).  ``untraced=False`` skips the untraced half
        (set-up operations).  Returns the traced responses."""
        from repro.serve.frontend import handle_line

        op = Op(kind)
        plain, traced = services
        current = line if untraced else None
        while current is not None:
            start = time.perf_counter()
            response = handle_line(plain, current.decode())
            op.untraced_s += time.perf_counter() - start
            current = follow(response) if follow else None
        responses = []
        op.first_span = len(self.recorder.spans)
        current = line
        while current is not None:
            with instrumentation.installed():
                start = time.perf_counter()
                response = instrumentation.handle_line(traced, current.decode())
                op.traced_s += time.perf_counter() - start
            op.request_bytes += len(current)
            op.response_bytes += len(response) + 1
            responses.append(response)
            current = follow(response) if follow else None
        op.last_span = len(self.recorder.spans)
        self.ops.append(op)
        return responses

    def run_passes(self, source: str) -> None:
        """The compiler layer: each default pass on a fresh context."""
        from repro.compiler.pipeline import CompileOptions, PassContext, default_passes

        ctx = PassContext(source=source, options=CompileOptions())
        times = {}
        for compiler_pass in default_passes():
            start = time.perf_counter()
            compiler_pass.run(ctx)
            times[compiler_pass.name] = time.perf_counter() - start
        self.passes.append(times)
        self.pools.append(ctx.diagnostics.get("variant_pool", {}).get("pool_size", 0))
        self.selected.append(len(ctx.selected or ()))


def _median(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def kernel_work(plan) -> tuple[float, float, Counter]:
    """FLOPs, computed bytes moved and kernel calls of one plan replay.

    Not measured: FLOPs from the variant's cost function, bytes as every
    kernel reading both operands and writing its result once, densely
    stored (fix-ups read and write one square matrix)."""
    sizes = plan.sizes
    calls: Counter = Counter()
    moved = 0
    for step in plan.variant.steps:
        m, k, n = (sizes[d] for d in step.call_dims)
        moved += 8 * (m * k + k * n + m * n)
        calls[step.kernel.name] += 1
    for fixup in plan.variant.fixups:
        moved += 8 * 2 * sizes[fixup.dim] ** 2
        calls[fixup.kernel.name] += 1
    return float(plan.variant.flop_cost(sizes)), float(moved), calls


def layer_metrics(run: TracedRun, measured_from: int) -> dict:
    """Per-layer figures from the spans of the measured operations."""
    recorder = run.recorder
    spans = [s if s is not None else Span("unfinished", 0.0, 0.0, None) for s in recorder.spans]
    selfs = self_times(spans)
    ops = run.ops[measured_from:]
    per_op: dict[str, list] = defaultdict(list)
    calls: Counter = Counter()
    kernel_calls: Counter = Counter()
    gflops, gflop, mbytes, overhead, overheads = [], [], [], [], []
    for op in ops:
        totals: Counter = Counter()
        flops = moved = 0.0
        for index in range(op.first_span, op.last_span):
            span = spans[index]
            calls[span.name] += 1
            totals[span.name] += selfs[index]
            if span.name == ROOT:
                totals["root_total"] += span.end - span.start
            if span.name == "runtime.replay":
                f, b, k = kernel_work(recorder.info[index])
                flops += f
                moved += b
                kernel_calls.update(k)
                if span.end > span.start:
                    gflops.append(f / (span.end - span.start) / 1e9)
        for name in LAYER_SPANS:
            per_op[name].append(totals[name])
        per_op[ROOT].append(totals["root_total"])
        per_op["unattributed"].append(totals[ROOT])
        gflop.append(flops / 1e9)
        mbytes.append(moved / 1e6)
        if op.untraced_s > 0:
            overheads.append(op.traced_s / op.untraced_s - 1.0)
    metrics = {
        metric: (1e6 * _median(per_op[name]), "us")
        for name, metric in LAYER_SPANS.items()
    }
    metrics["serve.handle_line_us"] = (1e6 * _median(per_op[ROOT]), "us")
    metrics["serve.unattributed_us"] = (1e6 * _median(per_op["unattributed"]), "us")
    metrics["serve.request_bytes"] = (_median([op.request_bytes for op in ops]), "bytes")
    metrics["serve.response_bytes"] = (_median([op.response_bytes for op in ops]), "bytes")
    # Compiles and plan compiles happen in the execute workloads' set-up,
    # so these two take every operation, set-up included.
    for op in run.ops:
        for index in range(op.first_span, op.last_span):
            span = spans[index]
            if span.name == "service.compile" and op.kind == "fresh_compile":
                overhead.append(span.end - span.start - recorder.info[index])
    metrics["service.compile_overhead_us"] = (1e6 * _median(overhead), "us")
    plan_compiles = [
        s.end - s.start for s in spans if s.name == "runtime.plan_compile"
    ]
    metrics["runtime.plan_compile_us"] = (1e6 * _median(plan_compiles), "us")
    metrics["runtime.replay_gflops"] = (_median(gflops), "GFLOP/s")
    metrics["kernels.gflop_per_op"] = (_median(gflop), "GFLOP")
    metrics["kernels.mbytes_per_op"] = (_median(mbytes), "MB")
    # Calls per measured operation, so that a faster program, which fits
    # more operations into the window, does not read as more calls.
    def per_op(count: int) -> tuple[float, str]:
        return (count / len(ops) if ops else 0.0), "count/op"

    for name in COUNTED_KERNELS:
        metrics[f"kernels.calls.{name}"] = per_op(kernel_calls.pop(name, 0))
    metrics["kernels.calls.other"] = per_op(sum(kernel_calls.values()))
    for pass_name in PASS_NAMES:
        metrics[f"compiler.pass.{pass_name}_us"] = (
            1e6 * _median([p.get(pass_name, 0.0) for p in run.passes]), "us"
        )
    metrics["compiler.pool_size"] = (_median(run.pools), "count")
    metrics["compiler.selected_variants"] = (_median(run.selected), "count")
    metrics["trace.overhead_frac"] = (_median(overheads), "fraction")
    for name in (*LAYER_SPANS, ROOT, "service.compile"):
        metrics[f"{name}_calls"] = per_op(calls[name])
    return metrics


def untraced_op_us(run: TracedRun, measured_from: int, kind: str = "op") -> float:
    """Median untraced in-process time of the measured ops of ``kind``."""
    return 1e6 * _median(
        [op.untraced_s for op in run.ops[measured_from:] if op.kind == kind]
    )


@contextlib.contextmanager
def gc_paused():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _ok(responses) -> list[dict]:
    messages = [json.loads(response) for response in responses]
    for message in messages:
        if not message.get("ok"):
            raise RuntimeError(f"traced run got an error response: {message}")
    return messages


def _release_follow(response: str) -> Optional[bytes]:
    """The ``release`` line after an shm ``execute`` response."""
    from perfbench import workloads

    result = json.loads(response).get("result")
    if isinstance(result, dict) and result.get("encoding") == "shm":
        return workloads.request_line({"op": "release", "name": result["name"]})
    return None


def memo_hit_ratio(service, handles) -> float:
    hits = misses = 0
    for handle in handles:
        generated = service.lookup(handle)
        if generated is not None:
            stats = generated.dispatcher.memo_stats()
            hits += stats["hits"]
            misses += stats["misses"]
    return hits / (hits + misses) if hits + misses else 0.0


def trace_exec(workload, seconds: float) -> tuple[TracedRun, int, dict]:
    """The traced run of an execute workload: set-up (handle compiles and
    the warm pass, traced only), then alternating untraced/traced rounds
    over the pairs in the server phase's order."""
    from perfbench import workloads

    run = TracedRun()
    instrumentation = Instrumentation(run.recorder)
    service = make_service()
    follow = _release_follow if workload.shm else None
    try:
        if workload.shm:
            workload._create_segments()
            workload._build_lines()
        for index, handle in enumerate(workload.handles):
            line = workloads.compile_line(handle.source, index)
            _ok(run.serve_op(line, (service, service), instrumentation, "fresh_compile", untraced=False))
            run.run_passes(handle.source)
        for pair in workload.pairs:
            _ok(run.serve_op(pair.line, (service, service), instrumentation, "op", follow, untraced=False))
        measured_from = len(run.ops)
        order = np.random.default_rng([workload.seed, 4]).permutation(len(workload.pairs))
        with gc_paused():
            deadline = time.perf_counter() + seconds
            position = 0
            while time.perf_counter() < deadline:
                pair = workload.pairs[order[position % len(order)]]
                position += 1
                _ok(run.serve_op(pair.line, (service, service), instrumentation, "op", follow))
        extra = {
            "compiler.cache_hit_ratio": service.session.cache_stats().hit_rate,
            "runtime.memo_hit_ratio": memo_hit_ratio(
                service, [handle.key for handle in workload.handles]
            ),
        }
    finally:
        service.close()
        if workload.shm:
            workload._destroy_segments()
    return run, measured_from, extra


def trace_compile_dispatch(lines, seconds: float) -> tuple[TracedRun, int, dict]:
    """The traced run of ``compile_dispatch``: the server phase's request
    lines in order, each answered untraced by one service and traced by a
    twin, so both see fresh compiles and memo misses alike.  Each fresh
    compile also runs the pass pipeline directly."""
    run = TracedRun()
    instrumentation = Instrumentation(run.recorder)
    services = (make_service(), make_service())
    handles: set[str] = set()
    try:
        with gc_paused():
            deadline = time.perf_counter() + seconds
            for kind, line in lines:
                if time.perf_counter() >= deadline:
                    break
                messages = _ok(run.serve_op(line, services, instrumentation, kind))
                if kind == "fresh_compile":
                    handles.add(messages[0]["handle"])
                    run.run_passes(json.loads(line)["source"])
        traced = services[1]
        extra = {
            "compiler.cache_hit_ratio": traced.session.cache_stats().hit_rate,
            "runtime.memo_hit_ratio": memo_hit_ratio(traced, handles),
        }
    finally:
        for service in services:
            service.close()
    return run, 0, extra
