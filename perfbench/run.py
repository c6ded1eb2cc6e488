#!/usr/bin/env python3
"""Run the repository benchmark against a real ``repro serve --async``.

    python3 perfbench/run.py --workload exec_small_npy --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` adds the traced
in-process run and prints the per-layer metrics.  A human report comes
first (every metric with its unit and sample count, host metadata); the
last line is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  Workloads and metrics are declared in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

WORKLOADS = ("exec_small_npy", "exec_large_shm", "compile_dispatch")


def server_figures(name: str, result) -> dict:
    """The figures of one server-phase run: ``{metric: (value,
    unit, samples)}``; ``None`` values are unsupported by the sample."""
    import statistics

    from perfbench.hostspeed import slowdown
    from perfbench.stats import percentile, slice_median

    lat = result.latencies_ms
    done = result.done_at + result.compile_done_at
    failed = result.tally.failed + result.shm_leaked
    ops = max(1, len(done))
    slow = slowdown(result.calibration_s)  # a window calibrates before its first request

    def sliced(times, values, figure):
        return slice_median(times, values, *result.window, figure)

    figures = {
        "setup_s": (
            statistics.median(result.setup_cpu_s) / slow,
            "s",
            len(result.setup_cpu_s),
        ),
        "setup_wall_s": (statistics.median(result.setup_s), "s", len(result.setup_s)),
        "throughput_rps": (sliced(done, done, lambda ops, s: len(ops) / s), "1/s", len(done)),
        "server_cpu_ref_us_per_op": (
            1e6 * result.server_cpu_s / ops / slow, "us", len(done)
        ),
        "server_cpu_us_per_op": (1e6 * result.server_cpu_s / ops, "us", len(done)),
        "client_cpu_us_per_op": (1e6 * result.client_cpu_s / ops, "us", len(done)),
        "host_slowdown": (slow, "ratio", len(result.calibration_s)),
        "latency_p50_ms": (sliced(result.done_at, lat, lambda v, s: percentile(v, 50)), "ms", len(lat)),
        "latency_p90_ms": (sliced(result.done_at, lat, lambda v, s: percentile(v, 90)), "ms", len(lat)),
        "latency_p99_ms": (percentile(lat, 99), "ms", len(lat)),
        "server_rss_mb": (result.server_rss_mb, "MiB", 1),
        "failed_frac": (failed / max(1, result.tally.attempted), "fraction", result.tally.attempted),
    }
    if name == "compile_dispatch":
        excess = result.excess
        figures.update(
            compile_p50_ms=(percentile(result.compile_ms, 50), "ms", len(result.compile_ms)),
            compile_p90_ms=(percentile(result.compile_ms, 90), "ms", len(result.compile_ms)),
            flops_excess_mean=(sum(excess) / len(excess) if excess else None, "fraction", len(excess)),
            flops_excess_max=(max(excess) if excess else None, "fraction", len(excess)),
        )
    return figures


#: End-to-end metrics in the result line (BENCHMARK.json ``end_to_end``).
#: The others go with the per-layer metrics: they exist on only some
#: workloads, or they are wall-clock or raw CPU figures.  On this class of
#: shared host the hypervisor steals a varying share of the vCPUs' time and
#: the neighbours' load slows even CPU time by tens of percent for minutes,
#: so those figures spread across runs by more than any bound the benchmark
#: may set.  ``server_cpu_ref_us_per_op`` is the server's CPU time per
#: operation (no stolen time) divided by the host slowdown the calibration
#: loop measured through the same window (see ``hostspeed``); ``setup_s``
#: is the server's CPU time from spawn to the end of a set-up, scaled the
#: same way (the set-ups run just before the window).
RESULT_METRICS = ("setup_s", "server_cpu_ref_us_per_op", "server_rss_mb")
SPECIFIC_METRICS = {
    "setup_wall_s": "s",
    "throughput_rps": "1/s",
    "server_cpu_us_per_op": "us",
    "client_cpu_us_per_op": "us",
    "host_slowdown": "ratio",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "latency_p99_ms": "ms",
    "compile_p50_ms": "ms",
    "compile_p90_ms": "ms",
    "flops_excess_mean": "fraction",
    "flops_excess_max": "fraction",
    "failed_frac": "fraction",
}


def per_layer_metrics(figures: dict, run, measured_from: int, extra: dict, leaked: int) -> dict:
    """``{metric: (value, unit)}`` of a traced run (BENCHMARK.json
    ``per_layer``)."""
    from perfbench import layers

    per_layer = layers.layer_metrics(run, measured_from)
    for metric, value in extra.items():
        per_layer[metric] = (value, "fraction")
    client_p50_us = 1e3 * (figures["latency_p50_ms"][0] or 0.0)
    per_layer["serve.socket_us"] = (
        client_p50_us - layers.untraced_op_us(run, measured_from), "us"
    )
    per_layer["serve.shm_segments_leaked"] = (leaked, "count")
    # Figures a workload does not produce read 0 (no compiles, no dispatches).
    for metric, unit in SPECIFIC_METRICS.items():
        value = figures.get(metric, (None,))[0]
        per_layer[metric] = (0.0 if value is None else value, unit)
    return per_layer


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from perfbench import layers, load

    if name == "compile_dispatch":
        workload = load.CompileDispatchWorkload(ROOT, seed)
    else:
        shm = name == "exec_large_shm"
        workload = load.ExecWorkload(ROOT, seed, shm=shm, connections=1 if shm else 2)
    result = workload.run(seconds)
    figures = server_figures(name, result)
    out = {
        "figures": figures,
        "attempted": result.tally.attempted,
        "failed": result.tally.failed + result.shm_leaked,
        "outcomes": dict(result.tally.outcomes),
        "shm_leaked": result.shm_leaked,
        "server_shm_warnings": result.server_warnings,
    }
    if not trace:
        return out
    from perfbench.client import shm_names

    before = shm_names()
    if name == "compile_dispatch":
        run, measured_from, extra = layers.trace_compile_dispatch(result.lines, seconds)
    else:
        run, measured_from, extra = layers.trace_exec(workload, seconds)
    leaked_in_process = len(shm_names() - before)
    per_layer = per_layer_metrics(
        figures, run, measured_from, extra, result.shm_leaked + leaked_in_process
    )
    out["per_layer"] = per_layer
    out["traced_ops"] = len(run.ops) - measured_from
    out["failed"] += leaked_in_process
    return out


def report(name: str, out: dict) -> None:
    print(f"== {name}: attempted {out['attempted']}, failed {out['failed']} "
          f"{out['outcomes']}, shm segments leaked {out['shm_leaked']}, "
          f"server 'leaked shared_memory' warnings {out['server_shm_warnings']}")
    for metric, (value, unit, samples) in out["figures"].items():
        shown = "n/a (sample too small)" if value is None else f"{value:.6g} {unit}"
        print(f"  {metric:<20} {shown:<24} n={samples}")
    if "per_layer" in out:
        print(f"  traced run: n={out['traced_ops']} measured operations")
    for metric, (value, unit) in sorted(out.get("per_layer", {}).items()):
        print(f"  {metric:<36} {value:.6g} {unit}")


def result_line(out: dict, trace: bool) -> dict:
    if trace:
        metrics = {m: {"value": v, "unit": u} for m, (v, u) in out["per_layer"].items()}
    else:
        metrics = {}
        for metric in RESULT_METRICS:
            value, unit, _ = out["figures"][metric]
            if value is None:
                raise RuntimeError(f"{metric}: too few samples for the percentile")
            metrics[metric] = {"value": value, "unit": unit}
    return {
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import BLAS_THREAD_VARS

    os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))  # before numpy loads
    from perfbench import client, hostinfo

    client.disable_shm_tracking()
    print("host:", json.dumps(hostinfo.host_metadata(args.seed), sort_keys=True))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        out = run_workload(name, args.seed, args.seconds, bool(args.trace))
        report(name, out)
        results[name] = result_line(out, bool(args.trace))
    sys.stdout.flush()
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({"workloads": results}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
